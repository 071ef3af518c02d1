// Runtime-dispatched SIMD kernels for the PIR evaluation engine.
//
// The Woodruff–Yekhanin servers are pure XOR workloads over K-bit tag rows
// packed in 64-bit words: the fused sweep XORs rows into GF(4) component
// bitplanes and folds per-shard accumulators; the folded planes are the
// response. These kernels provide those operations in three tiers —
// portable u64, AVX2 (256-bit) and AVX-512 (512-bit) — probed once at
// startup (the same pattern as the bignum ADX squaring dispatch) and
// selectable at runtime so benches can compare tiers and tests can pin
// every tier to the portable reference.
//
// The GF(4) coefficients of the sweep become all-ones/all-zero word masks
// (or AVX-512 lane masks) instead of branches, so a random query point
// never costs a misprediction per row.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ice::simd {

enum class XorTier : std::uint8_t { kPortable = 0, kAvx2 = 1, kAvx512 = 2 };

/// dst pair ([lo | hi], w words apart) += c * (ul + uh x) over the first bw
/// words, for a GF(4) element c in [0, 3] (gf::GF4's 2-bit value). With
/// x (lo + hi x) = hi + (lo + hi) x the product is
///   c = 1: (ul, uh),  c = 2: (uh, ul ^ uh),  c = 3: (ul ^ uh, ul),
/// at most two XORs per word; c's bits become word masks, not branches.
/// The portable run kernel folds U with it, and PirClient::decode folds
/// z and M^-1's row into whole bit planes.
inline void add_scaled(std::uint64_t* dst, std::size_t w,
                       const std::uint64_t* ul, const std::uint64_t* uh,
                       std::size_t bw, unsigned c) {
  if (c == 0) return;
  const std::uint64_t m0 = 0 - static_cast<std::uint64_t>(c & 1u);
  const std::uint64_t m1 = 0 - static_cast<std::uint64_t>((c >> 1) & 1u);
  for (std::size_t j = 0; j < bw; ++j) {
    dst[j] ^= (ul[j] & m0) ^ (uh[j] & m1);
    dst[w + j] ^= (uh[j] & m0) ^ ((ul[j] ^ uh[j]) & m1);
  }
}

/// The kernel bundle for one tier. Rows are `w` little-endian 64-bit words;
/// source and destination ranges must not partially overlap.
struct XorKernels {
  /// dst[0..w) ^= src[0..w).
  void (*xor_row)(std::uint64_t* dst, const std::uint64_t* src,
                  std::size_t w);
  /// One run of the run-factored weight-3 sweep for one query point q
  /// (gamma GF(4) element bytes, each in [0, 3]). rows[0..len*w) are the
  /// tag rows T_c of the embedding rows {a, b, c} for c = c0 .. c0+len-1 —
  /// one (a, b) run, which the lexicographic embedding stores
  /// consecutively. `acc` is the point's accumulator: the value pair at
  /// word 0 and gradient j's pair at word 2w(1 + j), each pair [lo | hi]
  /// of w words (the two GF(4) component planes). With s = q_a q_b and
  /// U = sum_c q_c T_c the kernel adds
  ///   grad_c += s T_c  (each c),  value += s U,
  ///   grad_a += q_b U,            grad_b += q_a U,
  /// which is exactly the run's share of F(q) = sum T_abc q_a q_b q_c and
  /// of its partials. Requires a < b < c0 and c0 + len <= gamma; the
  /// destination pairs are distinct, so the order of the adds is free.
  void (*xor_run)(std::uint64_t* acc, const std::uint64_t* rows,
                  std::size_t w, const std::uint8_t* q, std::uint32_t a,
                  std::uint32_t b, std::uint32_t c0, std::size_t len);
  XorTier tier;
  const char* name;
};

/// Highest tier this CPU supports (probed once, cached).
[[nodiscard]] XorTier best_supported_tier();

/// True when the CPU can run `tier`.
[[nodiscard]] bool tier_supported(XorTier tier);

/// Kernel bundle for a specific tier. Throws ParamError when the CPU lacks
/// the tier (callers gate on tier_supported()).
[[nodiscard]] const XorKernels& kernels_for(XorTier tier);

/// The tier the ICE_SIMD environment variable caps this process at
/// ("portable" | "avx2" | "avx512"; kAvx512 when unset or naming no tier).
/// Read once per process; set_active_tier does not move it. The bignum
/// layer reads it too: a cap below avx512 keeps 1024-bit moduli off the
/// IFMA Montgomery kernel.
[[nodiscard]] XorTier env_tier_cap();

/// The process-wide active bundle: best_supported_tier() capped by
/// env_tier_cap(), unless overridden by set_active_tier().
[[nodiscard]] const XorKernels& active_kernels();

/// Overrides the active tier (benches compare tiers; tests pin the fused
/// sweep bit-identical across them). Returns the previous tier. The slot is
/// atomic, so concurrent active_kernels() readers are race-free, but calls
/// are meant for startup / between evaluations, not mid-sweep.
XorTier set_active_tier(XorTier tier);

[[nodiscard]] const char* tier_name(XorTier tier);

}  // namespace ice::simd
