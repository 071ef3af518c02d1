// Montgomery-form modular arithmetic for odd moduli.
//
// The ICE hot path is modular exponentiation: TagGen computes `g^{b_i}` with
// block-sized exponents, edges compute one huge-exponent power per proof, and
// the TPA computes |S_j| small-exponent powers per verification. A reusable
// Montgomery context amortizes precomputation across those calls.
//
// The context is also the root of the exponentiation engine:
//   * `shared(N)` is a process-wide per-modulus cache so hot paths stop
//     re-deriving R^2 and -N^{-1} on every protocol call;
//   * the Montgomery-residue API (`to_mont`/`mont_mul`/`mont_sqr`/...) is
//     what bignum/multiexp.h and bignum/fixed_base.h build their shared
//     squaring chains on;
//   * `fixed_base(g, bits)` caches Lim-Lee comb tables for long-lived bases
//     on the context itself (double-checked under a shared_mutex).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "bignum/bigint.h"

namespace ice::bn {

class FixedBase;

/// Montgomery context for a fixed odd modulus N > 1.
/// Thread-safe for concurrent use after construction (the mutable fixed-base
/// table cache is internally synchronized; everything else is const).
class Montgomery {
 public:
  using Limb = BigInt::Limb;
  /// A k-limb residue (k = limb_count()), little-endian, in Montgomery form
  /// (value * R mod N with R = 2^{64 k}). The unit of the engine-level API.
  /// Small-buffer-optimized: residues up to LimbBuf::kInlineLimbs live on
  /// the stack, so passing/returning them does not touch the allocator.
  using LimbVec = LimbBuf;

  /// Throws ParamError unless `modulus` is odd and > 1.
  explicit Montgomery(const BigInt& modulus);

  /// Process-wide per-modulus context cache. Returns the same immutable
  /// context for repeated calls with the same modulus, so R^2 / -N^{-1} /
  /// comb tables are derived once per process instead of once per call.
  /// Bounded LRU (hits stamp an atomic use counter under the shared lock;
  /// eviction drops the stalest entry) so hostile inputs cannot exhaust
  /// memory; an evicted context stays alive while callers hold the pointer.
  static std::shared_ptr<const Montgomery> shared(const BigInt& modulus);
  /// Current entry count of the shared() cache (for cache-bound tests).
  static std::size_t shared_cache_size();
  /// Capacity bound of the shared() cache.
  static constexpr std::size_t kMaxSharedContexts = 64;

  [[nodiscard]] const BigInt& modulus() const { return n_big_; }
  /// Limb count k of the modulus; every Montgomery residue has k limbs.
  [[nodiscard]] std::size_t limb_count() const { return k_; }

  /// (a * b) mod N. Inputs need not be reduced; they are reduced first.
  [[nodiscard]] BigInt mul(const BigInt& a, const BigInt& b) const;

  /// base^exp mod N for exp >= 0 (throws ParamError on negative exp).
  /// Sliding odd-window chain over Montgomery residues with a squaring
  /// specialization; window width adapts to the exponent length.
  [[nodiscard]] BigInt pow(const BigInt& base, const BigInt& exp) const;
  /// Destination-passing pow: writes base^exp mod N into `out`, reusing
  /// out's limb capacity. Window tables and scratch come from the calling
  /// thread's ScratchArena, so steady-state calls are allocation-free.
  void pow_into(BigInt& out, const BigInt& base, const BigInt& exp) const;

  /// Canonical residue of x in [0, N); skips the division when x is
  /// already reduced (the common case for wire-validated proof values).
  [[nodiscard]] BigInt reduce(const BigInt& x) const;

  // --- Montgomery-residue API (engine layer) ------------------------------
  // multiexp.h / fixed_base.h run whole squaring chains in this domain and
  // convert once at each end.

  [[nodiscard]] LimbVec to_mont(const BigInt& x) const;
  [[nodiscard]] BigInt from_mont(const LimbVec& x) const;
  /// Destination-passing conversions for arena-managed inner loops.
  /// `out` is a k-limb buffer; `scratch` has scratch_limbs() limbs.
  void to_mont_into(Limb* out, const BigInt& x, Limb* scratch) const;
  /// Writes the canonical value of the k-limb residue `x` into `out`,
  /// reusing out's limb capacity (normalized, non-negative).
  void from_mont_into(BigInt& out, const Limb* x, Limb* scratch) const;
  /// R mod N: the Montgomery residue of 1 (multiplicative identity).
  [[nodiscard]] const LimbVec& one_mont() const { return one_mont_; }

  /// Montgomery product: a * b * R^{-1} mod N; a, b are k-limb residues.
  [[nodiscard]] LimbVec mont_mul(const LimbVec& a, const LimbVec& b) const;
  /// Montgomery square: a^2 * R^{-1} mod N. Result is identical to
  /// mont_mul(a, a); roughly 3/4 the limb products (cross terms doubled
  /// instead of recomputed), and squarings are the majority of pow work.
  [[nodiscard]] LimbVec mont_sqr(const LimbVec& a) const;

  // --- Allocation-free kernels for inner loops ----------------------------
  // out/a/b point at k-limb buffers; `scratch` at scratch_limbs() limbs.
  // out may alias a and/or b (results are staged in scratch).

  [[nodiscard]] std::size_t scratch_limbs() const { return 2 * k_ + 2; }
  void mul_into(Limb* out, const Limb* a, const Limb* b,
                Limb* scratch) const;
  void sqr_into(Limb* out, const Limb* a, Limb* scratch) const;

  /// Cached Lim-Lee comb for `base`, able to take exponents of at least
  /// `min_exp_bits` bits. Built lazily (and rebuilt bigger when a longer
  /// exponent shows up); the handle stays valid after eviction. The comb
  /// borrows this context, so it must not outlive it — handles obtained
  /// from a `shared()` context live for the whole process. Bounded LRU,
  /// same discipline as shared().
  [[nodiscard]] std::shared_ptr<const FixedBase> fixed_base(
      const BigInt& base, std::size_t min_exp_bits) const;
  /// Current entry count of the comb cache (for cache-bound tests).
  [[nodiscard]] std::size_t fixed_base_cache_size() const;
  /// Capacity bound of the per-context comb cache.
  static constexpr std::size_t kMaxCachedBases = 8;

 private:
  std::size_t k_;      // limb count of modulus
  LimbVec n_;          // modulus limbs, length k_
  BigInt n_big_;
  Limb n0inv_;         // -N^{-1} mod 2^64
  LimbVec r2_;         // R^2 mod N (R = 2^{64 k_}), length k_
  LimbVec one_mont_;   // R mod N
  LimbVec one_plain_;  // the k-limb constant 1 (from_mont multiplies by it)
  // A fixed-width MULX/ADX kernel serves k_ on this host
  // (bignum/mont_kernels.h); otherwise the portable kernels run.
  bool fixed_width_ = false;

  // Small per-context comb cache keyed by base value (linear scan; there
  // are only ever a handful of long-lived bases per modulus). Hits bump the
  // entry's use stamp under the shared lock; eviction drops the stalest.
  struct FbEntry {
    BigInt base;
    std::shared_ptr<const FixedBase> comb;
    mutable std::atomic<std::uint64_t> last_use{0};

    FbEntry(BigInt b, std::shared_ptr<const FixedBase> c, std::uint64_t stamp)
        : base(std::move(b)), comb(std::move(c)), last_use(stamp) {}
    FbEntry(FbEntry&& o) noexcept
        : base(std::move(o.base)),
          comb(std::move(o.comb)),
          last_use(o.last_use.load(std::memory_order_relaxed)) {}
    FbEntry& operator=(FbEntry&& o) noexcept {
      base = std::move(o.base);
      comb = std::move(o.comb);
      last_use.store(o.last_use.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
      return *this;
    }
  };
  mutable std::shared_mutex fb_mu_;
  mutable std::vector<FbEntry> fb_cache_;
  mutable std::atomic<std::uint64_t> fb_clock_{0};
};

}  // namespace ice::bn
