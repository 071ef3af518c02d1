// Protocol parameter sets for ICE.
//
// The paper's prototype uses |N| = 1024-bit RSA moduli, 1024-bit PRF keys
// and 256KB..1MB blocks. All of these are sweepable here; kPaper mirrors the
// paper, kTest shrinks the numbers so unit tests run in milliseconds without
// changing any code path.
#pragma once

#include <cstddef>

namespace ice::proto {

struct ProtocolParams {
  /// |N| in bits; also K, the per-tag bit width stored by the TPAs.
  std::size_t modulus_bits = 1024;
  /// d: bit length of each challenge coefficient a_k (paper Sec. III-A).
  std::size_t coeff_bits = 64;
  /// Bit length of the challenge key e (seeds the coefficient PRF).
  std::size_t challenge_key_bits = 128;
  /// Data block size in bytes (the paper sweeps 256KB..1024KB).
  std::size_t block_bytes = 256 * 1024;
  /// Worker-task budget for the parallel audit hot paths (proof
  /// aggregation, PIR bitplane evaluation, TPA multi-exponentiation):
  /// 0 = one task per hardware thread, 1 = the exact single-threaded legacy
  /// path, t = at most t chunks on the shared pool (common/parallel.h).
  /// A local deployment knob: it is never serialized onto the wire and
  /// never changes a protocol result bit (see tests/ice/parallel_diff_*).
  std::size_t parallelism = 0;

  /// Parameters matching the paper's experimental setup.
  static constexpr ProtocolParams paper() { return ProtocolParams{}; }

  /// Shrunk parameters for fast tests: 256-bit modulus, 4KB blocks.
  static constexpr ProtocolParams test() {
    return ProtocolParams{.modulus_bits = 256,
                          .coeff_bits = 64,
                          .challenge_key_bits = 128,
                          .block_bytes = 4 * 1024};
  }

  /// K, the tag width in bits (alias making call sites self-documenting).
  [[nodiscard]] constexpr std::size_t tag_bits() const {
    return modulus_bits;
  }
};

}  // namespace ice::proto
