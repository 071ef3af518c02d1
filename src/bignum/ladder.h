// Power ladders: base^exp with the squaring chain cut into c rungs.
//
// A proof raises a fresh base to an exponent as long as a block, and the
// squaring chain of one pow is as long as its exponent. A power ladder over
// the base, rung i = base^{2^{i·L}} for i < c, cuts that chain c ways:
//   base^E = prod_i rung_i^{E_i},   E = sum_i E_i · 2^{i·L},
// where E_i is the i-th L-bit chunk of E. bn::multi_exp computes the
// product with one shared chain of L squarings instead of |E|, and the
// result is the same canonical residue as the single pow.
//
// The rungs themselves cost (c - 1)·L squarings, so a ladder pays off only
// for whoever reuses them: the TPA builds g's rungs once per key and raises
// them to each challenge's secret with combs (ice/protocol.h, DESIGN.md §8).
#pragma once

#include <cstddef>
#include <vector>

#include "bignum/bigint.h"
#include "bignum/montgomery.h"

namespace ice::bn {

/// The rungs of a power ladder above its base: rungs[i - 1] =
/// base^{2^{i·width}} mod N for 1 <= i < count(). An empty ladder is c = 1,
/// and ladder_pow over it is a plain pow.
struct Ladder {
  std::size_t width = 0;      // L in bits: a multiple of 64 when rungs exist
  std::vector<BigInt> rungs;  // c - 1 values

  [[nodiscard]] std::size_t count() const { return rungs.size() + 1; }
};

/// L for `count` rungs covering `max_exp_bits`: ceil(max_exp_bits / count),
/// rounded up to a multiple of 64 so that every chunk is a slice of limbs.
/// Throws ParamError when count is 0.
[[nodiscard]] std::size_t ladder_width(std::size_t max_exp_bits,
                                       std::size_t count);

/// The ladder of `count` rungs over `base` at `width`, by squaring: one
/// chain of (count - 1)·width squarings. Throws ParamError unless width is
/// a positive multiple of 64 (count <= 1 builds an empty ladder).
[[nodiscard]] Ladder build_ladder(const Montgomery& mont, const BigInt& base,
                                  std::size_t count, std::size_t width);

/// Cuts exp >= 0 into `count` chunks of `width` bits, low chunk first; the
/// last chunk takes every bit from (count - 1)·width up, so an exponent
/// longer than count·width stays exact. Reuses the limb capacity of
/// `out`'s values. Throws ParamError unless width is a positive multiple
/// of 64 and count >= 1.
void ladder_chunks(const BigInt& exp, std::size_t count, std::size_t width,
                   std::vector<BigInt>& out);

/// base^exp mod N through the ladder: multi_exp over (base, rungs...) and
/// the chunks of exp. Equal to mont.pow(base, exp) when every rung is
/// base^{2^{i·width}}; an empty ladder runs mont.pow itself. `parallelism`
/// follows multi_exp: t > 1 splits the rungs over t chunks, each with its
/// own width-long chain. Throws ParamError on a negative exponent or a
/// width that is not a positive multiple of 64.
[[nodiscard]] BigInt ladder_pow(const Montgomery& mont, const BigInt& base,
                                const Ladder& ladder, const BigInt& exp,
                                std::size_t parallelism = 1);

}  // namespace ice::bn
