// Challenge-coefficient PRF.
//
// ChallengeEdge sends a random key `e`; the edge and the verifier both expand
// it to the coefficient sequence a_1, a_2, ..., a_m of d-bit integers used to
// aggregate data blocks / tags (paper Sec. III-A, ProofEdge/VerifyEdge).
// Determinism of this expansion is what makes the proof checkable.
#pragma once

#include <cstdint>
#include <vector>

#include "bignum/bigint.h"
#include "crypto/chacha20.h"

namespace ice::crypto {

/// Expands a challenge key into a deterministic stream of coefficients.
class CoefficientPrf {
 public:
  /// The widest coefficient the PRF draws, in bits.
  static constexpr std::size_t kMaxCoeffBits = 256;

  /// `key` is the challenge value e (any length; hashed to a ChaCha20 key).
  /// `coeff_bits` is d, the coefficient width in bits (1..=kMaxCoeffBits).
  CoefficientPrf(const bn::BigInt& key, std::size_t coeff_bits);

  /// The i-th call returns a_{i+1}. Nonzero (a zero coefficient would let a
  /// corrupted block escape the aggregate; the PRF resamples on zero).
  bn::BigInt next();

  /// In-place next(): draws keystream into a stack buffer and reuses `out`'s
  /// limb capacity — no heap traffic per coefficient.
  void next_into(bn::BigInt& out);

  /// First `count` coefficients from a fresh expansion of `key`.
  static std::vector<bn::BigInt> expand(const bn::BigInt& key,
                                        std::size_t coeff_bits,
                                        std::size_t count);

  /// In-place expand(): resizes `out` to `count` and overwrites each slot,
  /// reusing vector and per-element limb capacity across calls. Steady-state
  /// audit loops pass a warm thread-local vector and allocate nothing.
  static void expand_into(const bn::BigInt& key, std::size_t coeff_bits,
                          std::size_t count, std::vector<bn::BigInt>& out);

  [[nodiscard]] std::size_t coeff_bits() const { return coeff_bits_; }

 private:
  std::size_t coeff_bits_;
  ChaCha20 stream_;
};

}  // namespace ice::crypto
