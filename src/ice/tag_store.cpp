#include "ice/tag_store.h"

#include "common/error.h"
#include "ice/shard_audit.h"

namespace ice::proto {
namespace {

std::vector<bn::BigInt> checked(std::vector<bn::BigInt> tags) {
  if (tags.empty()) throw ParamError("TagStore: empty tag set");
  return tags;
}

}  // namespace

TagStore::TagStore(const ProtocolParams& params,
                   std::vector<bn::BigInt> tags)
    : server_(params.tag_bits(), checked(std::move(tags)),
              params.shard_budget, params.parallelism) {}

SnapshotPin TagStore::pin() const {
  pins_taken_.fetch_add(1, std::memory_order_relaxed);
  auto latch = latch_;  // keep the counter alive past the store if needed
  latch->fetch_add(1, std::memory_order_acq_rel);
  return SnapshotPin(static_cast<const void*>(latch.get()),
                     [latch](const void*) {
                       latch->fetch_sub(1, std::memory_order_acq_rel);
                     });
}

pir::EpochCloseResult TagStore::close_epoch(bool force) {
  if (!force && pins_active() > 0) {
    closes_skipped_.fetch_add(1, std::memory_order_relaxed);
    pir::EpochCloseResult out;
    out.epoch = server_.epoch();
    return out;  // closed = false: audits in flight, caller retries later
  }
  return server_.close_epoch();
}

StoreEpochStats TagStore::epoch_stats() const {
  StoreEpochStats out;
  out.db = server_.epoch_stats();
  out.pins_taken = pins_taken_.load(std::memory_order_relaxed);
  out.pins_active = pins_active();
  out.closes_skipped = closes_skipped_.load(std::memory_order_relaxed);
  return out;
}

std::vector<bn::BigInt> retrieve_tags_direct(
    const TagStore& tpa0, const TagStore& tpa1,
    std::span<const std::size_t> indices, bn::Rng64& rng) {
  if (tpa0.n() != tpa1.n() || tpa0.tag_bits() != tpa1.tag_bits() ||
      tpa0.epoch() != tpa1.epoch()) {
    throw ParamError("retrieve_tags_direct: TPA replicas disagree");
  }
  const ShardPlanner planner(tpa0.shard_map(), tpa0.tag_bits());
  ShardPlan plan = planner.plan(indices, rng);
  if (plan.secrets.empty()) return {};
  pir::ShardedPirResponse r0;
  pir::ShardedPirResponse r1;
  tpa0.respond_sharded(plan.queries[0], r0);
  tpa1.respond_sharded(plan.queries[1], r1);
  return planner.merge_decode(plan, r0, r1);
}

}  // namespace ice::proto
