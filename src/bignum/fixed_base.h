// Fixed-base exponentiation via Lim-Lee comb precomputation.
//
// TagGen raises the same public base g to one block-sized exponent per data
// block (paper Tab. III), and every challenge raises g to a fresh secret
// (Fig. 3). When the base is long-lived, precomputing the comb table
//   T[j] = prod_{bit i of j} g^{2^{a i}},   a = ceil(capacity / h)
// turns a t-bit exponentiation from ~t squarings + t/w multiplies into
// ~a squarings + a multiplies (a = t / h): the h "teeth" of the comb read
// one bit from each of the h exponent blocks per column, so the whole
// squaring chain shrinks by the factor h.
//
// Tables are built once per (context, base, size class) and cached on the
// Montgomery context itself (Montgomery::fixed_base): a base keeps one comb
// per exponent size it is raised to (TagGen's block-sized one, the
// challenges' |N|-sized one), since pow walks the whole comb. Callers on
// the protocol hot paths never construct combs directly; key setup looks
// the |N|-sized comb up once so the first challenge does not build it.
#pragma once

#include <cstddef>
#include <vector>

#include "bignum/bigint.h"
#include "bignum/montgomery.h"

namespace ice::bn {

/// Precomputed Lim-Lee comb for one base under one Montgomery context.
/// Immutable and thread-safe after construction. Borrows the context: the
/// context must outlive the comb (contexts from Montgomery::shared live for
/// the whole process).
class FixedBase {
 public:
  /// Builds the comb sized for exponents up to `max_exp_bits` bits
  /// (rounded up; see capacity_bits()). Cost: ~capacity squarings plus
  /// 2^h multiplies, amortized across every later pow() call.
  FixedBase(const Montgomery& mont, const BigInt& base,
            std::size_t max_exp_bits);

  /// base^exp mod N for exp >= 0 (throws ParamError on negative exp).
  /// Exponents longer than capacity_bits() fall back to Montgomery::pow,
  /// so the result is always correct (just not comb-accelerated).
  [[nodiscard]] BigInt pow(const BigInt& exp) const;
  /// Destination-passing pow: writes into `out`, reusing its limb capacity;
  /// scratch comes from the calling thread's ScratchArena (zero-allocation
  /// in steady state — the TagGen per-block loop runs on this).
  void pow_into(BigInt& out, const BigInt& exp) const;

  [[nodiscard]] const BigInt& base() const { return base_; }
  [[nodiscard]] std::size_t capacity_bits() const { return cap_bits_; }
  /// Comb teeth h (table holds 2^h residues).
  [[nodiscard]] std::size_t teeth() const { return teeth_; }

 private:
  const Montgomery* mont_;
  BigInt base_;
  std::size_t cap_bits_;  // max supported exponent bits (cols_ * teeth_)
  std::size_t teeth_;     // h
  std::size_t cols_;      // a = ceil(cap_bits_ / h)
  std::vector<Montgomery::LimbVec> table_;  // 2^h entries; [0] unused
};

}  // namespace ice::bn
