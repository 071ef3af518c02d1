#include "ice/offline.h"

#include <algorithm>

#include "common/parallel.h"
#include "crypto/prf.h"

namespace ice::proto {

ChallengeBundle make_bundle(const PublicKey& pk, const ProtocolParams& params,
                            bn::Rng64& rng, std::size_t coeff_count,
                            const RungBases* rungs) {
  ChallengeBundle bundle;
  bundle.challenge = make_challenge(pk, params, rng, bundle.secret, rungs);
  if (coeff_count > 0) {
    bundle.coeffs = crypto::CoefficientPrf::expand(
        bundle.challenge.e, params.coeff_bits, coeff_count);
  }
  return bundle;
}

ChallengePool::ChallengePool(const OfflineConfig& config)
    : capacity_(std::max<std::size_t>(1, config.pool_capacity)),
      per_shard_((capacity_ + std::max<std::size_t>(1, config.pool_shards) -
                  1) /
                 std::max<std::size_t>(1, config.pool_shards)),
      coeff_count_(config.coeff_count) {
  const std::size_t shards =
      std::min(std::max<std::size_t>(1, config.pool_shards), capacity_);
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::uint64_t ChallengePool::rekey(const PublicKey& pk,
                                   const ProtocolParams& params,
                                   std::shared_ptr<const RungBases> rungs) {
  // The generation moves in the same spec_mu_ hold that swaps the spec, so
  // mint_spec() never pairs the new generation with the old key: a producer
  // that snapshotted the old spec gets its offers refused. Then drop the
  // bundles it already delivered.
  std::uint64_t gen = 0;
  {
    std::lock_guard lock(spec_mu_);
    gen = generation_.fetch_add(1, std::memory_order_acq_rel) + 1;
    spec_.emplace(MintSpec{pk, params, std::move(rungs)});
  }
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    shard->bundles.clear();
  }
  return gen;
}

void ChallengePool::invalidate() {
  {
    std::lock_guard lock(spec_mu_);
    generation_.fetch_add(1, std::memory_order_acq_rel);
    spec_.reset();
  }
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    shard->bundles.clear();
  }
}

std::optional<ChallengePool::MintSpec> ChallengePool::mint_spec() const {
  // Spec and generation read in one spec_mu_ hold (see rekey); a producer
  // minting against this spec under a generation that has since moved is
  // caught by offer().
  std::lock_guard lock(spec_mu_);
  if (!spec_) return std::nullopt;
  MintSpec spec = *spec_;
  spec.coeff_count = coeff_count_;
  spec.generation = generation_.load(std::memory_order_acquire);
  return spec;
}

bool ChallengePool::try_acquire(ChallengeBundle& out) {
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  const std::size_t start =
      cursor_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[(start + i) % shards_.size()];
    std::lock_guard lock(shard.mu);
    // Stored bundles are cleared on rekey, but a stale offer could in
    // principle land between the generation bump and the clear; the
    // per-bundle generation check makes "stale is never consumed" a local
    // invariant instead of a protocol-wide ordering argument.
    while (!shard.bundles.empty()) {
      if (shard.bundles.back().generation != gen) {
        shard.bundles.pop_back();
        continue;
      }
      out = std::move(shard.bundles.back());
      shard.bundles.pop_back();
      shard.acquires.record(true);
      return true;
    }
  }
  shards_[start]->acquires.record(false);
  return false;
}

bool ChallengePool::offer(ChallengeBundle&& bundle) {
  if (bundle.generation != generation_.load(std::memory_order_acquire)) {
    Shard& shard = *shards_[0];
    std::lock_guard lock(shard.mu);
    ++shard.stale_rejects;
    return false;
  }
  const std::size_t start =
      cursor_.load(std::memory_order_relaxed) % shards_.size();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[(start + i) % shards_.size()];
    std::lock_guard lock(shard.mu);
    if (shard.bundles.size() >= per_shard_) continue;
    // Re-check under the shard lock: a rekey that ran between our check
    // above and this insert has already cleared this shard, and inserting
    // a stale bundle now would undo that.
    if (bundle.generation != generation_.load(std::memory_order_acquire)) {
      ++shard.stale_rejects;
      return false;
    }
    shard.bundles.push_back(std::move(bundle));
    ++shard.minted;
    return true;
  }
  Shard& shard = *shards_[start];
  std::lock_guard lock(shard.mu);
  ++shard.full_rejects;
  return false;
}

std::size_t ChallengePool::depth() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    total += shard->bundles.size();
  }
  return total;
}

bool ChallengePool::full() const {
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    if (shard->bundles.size() < per_shard_) return false;
  }
  return true;
}

OfflineStats ChallengePool::stats() const {
  OfflineStats out;
  out.capacity = capacity_;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    out.hits += shard->acquires.hits;
    out.misses += shard->acquires.misses;
    out.minted += shard->minted;
    out.stale_rejects += shard->stale_rejects;
    out.full_rejects += shard->full_rejects;
    out.depth += shard->bundles.size();
  }
  return out;
}

OfflineWorker::OfflineWorker(ChallengePool& pool, bn::Rng64& rng)
    : pool_(&pool), rng_(&rng) {}

OfflineWorker::~OfflineWorker() { stop(); }

void OfflineWorker::kick() {
  {
    std::lock_guard lock(mu_);
    if (stopped_ || task_active_) return;
    if (pool_->full()) return;
    task_active_ = true;
  }
  refills_.fetch_add(1, std::memory_order_relaxed);
  try {
    shared_pool().submit([this] { refill(); });
  } catch (...) {
    std::lock_guard lock(mu_);
    task_active_ = false;
    cv_.notify_all();
    throw;
  }
}

void OfflineWorker::stop() {
  cancel_.request_stop();
  std::unique_lock lock(mu_);
  stopped_ = true;
  cv_.wait(lock, [this] { return !task_active_; });
}

void OfflineWorker::refill() {
  // One bundle per iteration with the token checked between bundles:
  // stop() never waits longer than one mint, and a rekey mid-refill makes
  // the next mint_spec() snapshot pick up the new key while offer()
  // quietly drops the bundle minted against the old one.
  while (!cancel_.stop_requested()) {
    const auto spec = pool_->mint_spec();
    if (!spec || pool_->full()) break;
    ChallengeBundle bundle = make_bundle(spec->pk, spec->params, *rng_,
                                         spec->coeff_count, spec->rungs.get());
    bundle.generation = spec->generation;
    (void)pool_->offer(std::move(bundle));
  }
  std::lock_guard lock(mu_);
  task_active_ = false;
  cv_.notify_all();
}

}  // namespace ice::proto
