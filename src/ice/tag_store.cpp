#include "ice/tag_store.h"

#include <mutex>
#include <string>

#include "pir/client.h"

namespace ice::proto {
namespace {

std::size_t checked_size(std::span<const bn::BigInt> tags) {
  if (tags.empty()) throw ParamError("TagStore: empty tag set");
  return tags.size();
}

}  // namespace

TagStore::TagStore(const ProtocolParams& params,
                   std::span<const bn::BigInt> tags)
    : db_(params.tag_bits()),
      embedding_(checked_size(tags)),
      server_(db_, embedding_, params.parallelism) {
  for (const auto& t : tags) db_.add(t);
}

std::size_t TagStore::n() const {
  std::shared_lock lock(mu_);
  return db_.size();
}

std::uint64_t TagStore::epoch() const {
  std::shared_lock lock(mu_);
  return epoch_;
}

TagInfo TagStore::info() const {
  std::shared_lock lock(mu_);
  return {db_.size(), epoch_};
}

bn::BigInt TagStore::tag(std::size_t index) const {
  std::shared_lock lock(mu_);
  return db_.tag(index);
}

void TagStore::update(std::size_t index, const bn::BigInt& tag) {
  // Shared: staging is internally synchronized and never touches base
  // rows, so updates ride alongside queries.
  std::shared_lock lock(mu_);
  db_.update(index, tag);
}

SnapshotPin TagStore::pin() const {
  pins_taken_.fetch_add(1, std::memory_order_relaxed);
  auto latch = latch_;  // keep the counter alive past the store if needed
  latch->fetch_add(1, std::memory_order_acq_rel);
  return SnapshotPin(static_cast<const void*>(latch.get()),
                     [latch](const void*) {
                       latch->fetch_sub(1, std::memory_order_acq_rel);
                     });
}

pir::EpochMergeStats TagStore::close_epoch(bool force) {
  if (!force && pins_active() > 0) {
    closes_skipped_.fetch_add(1, std::memory_order_relaxed);
    pir::EpochMergeStats out;
    out.epoch = epoch();
    return out;  // closed = false: audits in flight, caller retries later
  }
  std::unique_lock lock(mu_);
  pir::EpochMergeStats out = db_.close_epoch();
  // Content changed: plans minted before the close would decode the new
  // tags against pre-close expectations, so the epoch must move. An empty
  // close leaves planners valid.
  if (out.closed) ++epoch_;
  out.epoch = epoch_;
  return out;
}

StoreEpochStats TagStore::epoch_stats() const {
  StoreEpochStats out;
  {
    std::shared_lock lock(mu_);
    out.db = db_.epoch_stats();
  }
  out.pins_taken = pins_taken_.load(std::memory_order_relaxed);
  out.pins_active = pins_active();
  out.closes_skipped = closes_skipped_.load(std::memory_order_relaxed);
  return out;
}

std::size_t TagStore::append(const bn::BigInt& tag) {
  std::unique_lock lock(mu_);
  // Build the grown embedding first: if it throws, nothing has changed.
  pir::Embedding grown(db_.size() + 1);
  const std::size_t index = db_.add(tag);
  embedding_ = std::move(grown);
  ++epoch_;
  return index;
}

void TagStore::respond(std::uint64_t epoch, const pir::PirQuery& query,
                       pir::PirResponse& out) const {
  std::shared_lock lock(mu_);
  if (epoch != epoch_) {
    throw StaleEpochError("TagStore::respond: query planned at epoch " +
                          std::to_string(epoch) + ", store is at epoch " +
                          std::to_string(epoch_));
  }
  server_.respond_into(query, out);
}

std::vector<bn::BigInt> retrieve_tags_direct(
    const TagStore& tpa0, const TagStore& tpa1,
    std::span<const std::size_t> indices, bn::Rng64& rng) {
  if (tpa0.n() != tpa1.n() || tpa0.tag_bits() != tpa1.tag_bits() ||
      tpa0.epoch() != tpa1.epoch()) {
    throw ParamError("retrieve_tags_direct: TPA replicas disagree");
  }
  if (indices.empty()) return {};
  const TagInfo info = tpa0.info();
  const pir::Embedding embedding(info.n);
  const pir::PirClient client(embedding, tpa0.tag_bits());
  const pir::PirClient::EncodedQuery enc = client.encode(indices, rng);
  pir::PirResponse r0;
  pir::PirResponse r1;
  tpa0.respond(info.epoch, enc.queries[0], r0);
  tpa1.respond(info.epoch, enc.queries[1], r1);
  return client.decode(enc.secrets, r0, r1);
}

}  // namespace ice::proto
