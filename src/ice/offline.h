// The challenge pool: every TPA challenge is minted before it is needed.
//
// Nothing in the TPA's challenge depends on WHICH edge is being audited:
// the challenge key e, the secret s, the fixed-base power g^s and its
// ladder are all edge-independent (Ali & Liu's federated online/offline
// inspection makes the same observation). So a background OfflineWorker on
// the shared ThreadPool mints ChallengeBundles into a bounded
// ChallengePool, and the verifier's start_audit / batch_begin pop one. Only
// a miss (the first challenge under a key, or an empty pool) mints inline,
// with the same make_challenge call (DESIGN.md §14).
//
// The pool also holds the key the TPA challenges under, and its counter is
// the TPA's key generation: rekey() swaps the key, bumps the generation and
// drops every stored bundle in one hold. A bundle minted under an older
// generation is refused at offer(), and a pop names the generation it was
// read with, so a challenge under a rotated key is never consumed.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "bignum/random.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "ice/keys.h"
#include "ice/params.h"
#include "ice/protocol.h"

namespace ice::proto {

/// Bundles the pool holds: a burst of this many challenges pops without
/// minting inline.
inline constexpr std::size_t kChallengePoolCapacity = 32;

/// One precomputed challenge: everything make_challenge draws.
struct ChallengeBundle {
  Challenge challenge;           // (e, g^s, ladder)
  ChallengeSecret secret;        // s
  std::uint64_t generation = 0;  // pool generation this was minted under
};

/// Mints one bundle exactly as make_challenge does (same RNG draw order,
/// same ladder). The caller stamps the generation.
ChallengeBundle make_bundle(const PublicKey& pk, const ProtocolParams& params,
                            bn::Rng64& rng, const RungBases* rungs = nullptr);

/// Snapshot of the pool's hit/miss/refill surface (HitCounter-style; see
/// common/stats.h). `hits`/`misses` count pops; `minted` counts accepted
/// offers; `stale_rejects` counts offers refused because the generation
/// moved mid-mint (key rotation).
struct OfflineStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t minted = 0;
  std::uint64_t stale_rejects = 0;
  std::uint64_t full_rejects = 0;
  std::size_t depth = 0;  // bundles currently pooled

  [[nodiscard]] double hit_rate() const {
    const auto total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Bounded store of ready ChallengeBundles and the key they are minted
/// under. Thread-safe; one mutex guards everything, since the pool sees
/// about one pop and one offer per audit.
class ChallengePool {
 public:
  /// The key the pool mints under, with its generation.
  struct MintSpec {
    PublicKey pk;
    ProtocolParams params;
    std::shared_ptr<const RungBases> rungs;  // the key's ladder, or null
    std::uint64_t generation = 0;
  };

  /// Key or protocol parameters changed: install the new spec, bump the
  /// generation (so in-flight mints become stale) and drop every stored
  /// bundle, in one hold. `rungs` is the new key's ladder holder. Returns
  /// the new generation.
  std::uint64_t rekey(const PublicKey& pk, const ProtocolParams& params,
                      std::shared_ptr<const RungBases> rungs = nullptr);

  [[nodiscard]] std::uint64_t generation() const;

  /// The current key and generation, read in one hold; nullopt before the
  /// first rekey.
  [[nodiscard]] std::optional<MintSpec> mint_spec() const;

  /// Pops a ready bundle minted under `generation`, which must be the
  /// current one. Records a hit or a miss either way.
  bool try_acquire(std::uint64_t generation, ChallengeBundle& out);

  /// Offers a freshly minted bundle. Refused (false) when its generation
  /// is stale or the pool is full.
  bool offer(ChallengeBundle&& bundle);

  [[nodiscard]] std::size_t depth() const;
  [[nodiscard]] bool full() const;
  [[nodiscard]] OfflineStats stats() const;

 private:
  mutable std::mutex mu_;
  std::optional<MintSpec> spec_;  // carries the current generation
  std::vector<ChallengeBundle> bundles_;  // all of the current generation
  HitCounter acquires_;
  std::uint64_t minted_ = 0;
  std::uint64_t stale_rejects_ = 0;
  std::uint64_t full_rejects_ = 0;
};

/// Background producer: refills a ChallengePool on the process-wide shared
/// ThreadPool. At most one refill task is in flight; kick() schedules one
/// when the pool has room. The CancellationToken is honored between
/// bundles, so stop() (and the destructor) drains the in-flight task
/// instead of racing a mid-refill offer — the "drain and stop background
/// producer" idiom ThreadPool itself does not provide.
class OfflineWorker {
 public:
  /// `rng` must be safe for concurrent draws (crypto::SharedCsprng is);
  /// both referents must outlive the worker.
  OfflineWorker(ChallengePool& pool, bn::Rng64& rng);
  ~OfflineWorker();

  OfflineWorker(const OfflineWorker&) = delete;
  OfflineWorker& operator=(const OfflineWorker&) = delete;

  /// Schedules a refill task unless one is already in flight, the pool is
  /// full, or the worker is stopped. Cheap; called after every challenge.
  void kick();

  /// Requests cancellation and blocks until no refill task is running.
  /// Idempotent; after stop() the worker never mints again.
  void stop();

  /// Refill tasks scheduled so far (observability/tests).
  [[nodiscard]] std::uint64_t refills() const {
    return refills_.load(std::memory_order_relaxed);
  }

 private:
  void refill();

  ChallengePool* pool_;
  bn::Rng64* rng_;
  CancellationToken cancel_;
  std::atomic<std::uint64_t> refills_{0};

  std::mutex mu_;
  std::condition_variable cv_;
  bool task_active_ = false;
  bool stopped_ = false;
};

}  // namespace ice::proto
