#include "ice/offline.h"

#include "common/parallel.h"

namespace ice::proto {

ChallengeBundle make_bundle(const PublicKey& pk, const ProtocolParams& params,
                            bn::Rng64& rng, const RungBases* rungs) {
  ChallengeBundle bundle;
  bundle.challenge = make_challenge(pk, params, rng, bundle.secret, rungs);
  return bundle;
}

std::uint64_t ChallengePool::rekey(const PublicKey& pk,
                                   const ProtocolParams& params,
                                   std::shared_ptr<const RungBases> rungs) {
  // Key, generation and stored bundles move in one hold: mint_spec() never
  // pairs the new generation with the old key, a producer that read the
  // old spec gets its offer refused, and no old-key bundle survives.
  std::lock_guard lock(mu_);
  const std::uint64_t gen = (spec_ ? spec_->generation : 0) + 1;
  spec_.emplace(MintSpec{pk, params, std::move(rungs), gen});
  bundles_.clear();
  return gen;
}

std::uint64_t ChallengePool::generation() const {
  std::lock_guard lock(mu_);
  return spec_ ? spec_->generation : 0;
}

std::optional<ChallengePool::MintSpec> ChallengePool::mint_spec() const {
  std::lock_guard lock(mu_);
  return spec_;
}

bool ChallengePool::try_acquire(std::uint64_t generation,
                                ChallengeBundle& out) {
  std::lock_guard lock(mu_);
  // Every stored bundle is of the current generation (rekey clears, offer
  // checks), so only a caller that read an older key can miss on a
  // non-empty pool.
  const bool hit = spec_ && spec_->generation == generation &&
                   !bundles_.empty();
  acquires_.record(hit);
  if (!hit) return false;
  out = std::move(bundles_.back());
  bundles_.pop_back();
  return true;
}

bool ChallengePool::offer(ChallengeBundle&& bundle) {
  std::lock_guard lock(mu_);
  if (!spec_ || bundle.generation != spec_->generation) {
    ++stale_rejects_;
    return false;
  }
  if (bundles_.size() >= kChallengePoolCapacity) {
    ++full_rejects_;
    return false;
  }
  bundles_.push_back(std::move(bundle));
  ++minted_;
  return true;
}

std::size_t ChallengePool::depth() const {
  std::lock_guard lock(mu_);
  return bundles_.size();
}

bool ChallengePool::full() const {
  return depth() >= kChallengePoolCapacity;
}

OfflineStats ChallengePool::stats() const {
  std::lock_guard lock(mu_);
  OfflineStats out;
  out.hits = acquires_.hits;
  out.misses = acquires_.misses;
  out.minted = minted_;
  out.stale_rejects = stale_rejects_;
  out.full_rejects = full_rejects_;
  out.depth = bundles_.size();
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
    ChallengeBundle bundle =
        make_bundle(spec->pk, spec->params, *rng_, spec->rungs.get());
    bundle.generation = spec->generation;
    (void)pool_->offer(std::move(bundle));
  }
  std::lock_guard lock(mu_);
  task_active_ = false;
  cv_.notify_all();
}

}  // namespace ice::proto
