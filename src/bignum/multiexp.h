// Simultaneous multi-exponentiation: prod_i bases[i]^{exps[i]} mod N.
//
// The TPA verification identity (paper Lemma 1), every owner-driven audit
// and the edge's ladder proof (bignum/ladder.h) bottom out in this product.
// Computing it one pow at a time costs a full squaring chain per base;
// Straus interleaving shares ONE chain across all bases: per-base sliding
// odd windows, sized by Montgomery::pow's cost model, merged onto a single
// chain of max_bits squarings instead of k * max_bits. The result is the
// canonical residue, bit-identical to folding Montgomery::pow with modular
// multiplies.
#pragma once

#include <cstddef>
#include <vector>

#include "bignum/bigint.h"
#include "bignum/montgomery.h"

namespace ice::bn {

/// prod_i bases[i]^{exps[i]} mod N. Sizes must match (ParamError), every
/// exponent must be >= 0 (ParamError); the empty product is 1 mod N.
///
/// `parallelism` follows the ProtocolParams convention (0 = one chunk per
/// hardware thread, 1 = serial, t = at most t chunks): pairs are chunked
/// across the shared pool, each chunk computes its partial product with one
/// shared chain, and the partials are combined in chunk order — modular
/// multiplication is exact and commutative, so every thread count yields
/// the identical canonical result.
[[nodiscard]] BigInt multi_exp(const Montgomery& mont,
                               const std::vector<BigInt>& bases,
                               const std::vector<BigInt>& exps,
                               std::size_t parallelism = 1);

/// prod_i values[i] mod N (all exponents 1): the ICE-batch product check.
/// One Montgomery conversion per value and one mont_mul per step — the
/// degenerate multi-exp where windowing cannot help. Same chunk-ordered
/// parallel reduction contract as multi_exp.
[[nodiscard]] BigInt mont_product(const Montgomery& mont,
                                  const std::vector<BigInt>& values,
                                  std::size_t parallelism = 1);

}  // namespace ice::bn
