// Radix-2^52 AVX-512 IFMA Montgomery multiply for 1024-bit N (Gueron &
// Krasnov, ARITH 2016; Drucker & Gueron, "Fast modular squaring with
// AVX512IFMA", 2019).
//
// A residue is 20 digits of 52 bits, held in three zmm registers (8, 8 and
// 4 lanes; the short one is read and written with a 4-lane mask), and
// R = 2^1040. vpmadd52luq / vpmadd52huq add the low / high 52 bits of a
// 52 x 52-bit product into a 64-bit lane, so the accumulator's lanes can
// run unnormalized (20 rounds add under 2^59 to a lane) and carry once at
// the end. Each round i (operand scanning over the digits of b):
//   * the reduction digit y = (t_0 + a_0 b_i) (-N^{-1}) mod 2^52 comes
//     from a scalar copy t_0 of digit 0. The scalar adds the full 104-bit
//     products a_0 b_i and n_0 y, whose sum with t_0 is 0 mod 2^52, and
//     keeps their carry; the next t_0 is that carry plus lane 1 of
//     t + lo(a b_i), extracted before y is known, plus lo(n_1 y). So no
//     lane extract sits between one y and the next;
//   * the vector adds lo(a b_i) and lo(N y), shifts down one lane with
//     valignq, then adds hi(a b_i) and hi(N y), computed beside the low
//     halves into registers of their own. Lane 0 is only ever scratch:
//     t_0 is authoritative and replaces it after round 19.
// Then one vector pass carries each lane's bits above 52 into the next
// lane, which leaves digits below 2^52 + 2^8; the carries still due ripple
// through digits equal to 2^52 - 1, which a generate/propagate mask
// addition resolves in one step.
//
// With a, b < 2N and 4N < R the result (ab + mN) / R is below 2N, so
// residues stay below 2N and are never reduced further; from_mont does the
// one final comparison.
#include <algorithm>

#include "bignum/mont_kernels.h"
#include "common/simd.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define ICE_BN_HAVE_IFMA_KERNEL 1
#include <immintrin.h>
#else
#include "common/error.h"
#endif

namespace ice::bn::detail {

namespace {

// ISO C++ has no __int128; __extension__ keeps -Wpedantic quiet.
__extension__ typedef unsigned __int128 u128;

constexpr Limb kMask52 = (Limb{1} << 52) - 1;
constexpr unsigned kTailLanes = 0x0f;  // digits 16..19 of the third register

#ifdef ICE_BN_HAVE_IFMA_KERNEL

#define ICE_IFMA_TARGET __attribute__((target("avx512f,avx512vl,avx512ifma")))

// The zero-masked forms with an all-ones mask: GCC 12's unmasked
// valignq/vpsrlq intrinsics pass an undefined vector and warn under
// -Wuninitialized.
constexpr __mmask8 kAllLanes = 0xff;

// The 16 lanes hi:lo moved down s lanes (valignq): s = 1 drops lo's lane 0
// and pulls in hi's lane 0; s = 7 moves hi's lanes 0..6 up to 1..7.
template <int s>
ICE_IFMA_TARGET inline __m512i shift_down(__m512i hi, __m512i lo) {
  return _mm512_maskz_alignr_epi64(kAllLanes, hi, lo, s);
}

ICE_IFMA_TARGET inline __m512i above52(__m512i x) {
  return _mm512_maskz_srli_epi64(kAllLanes, x, 52);
}

ICE_IFMA_TARGET void mul20(Limb* out, const Limb* a, const Limb* b,
                           const Limb* n, Limb k0) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(kMask52));
  const __m512i a0 = _mm512_loadu_si512(a);
  const __m512i a1 = _mm512_loadu_si512(a + 8);
  const __m512i a2 = _mm512_maskz_loadu_epi64(kTailLanes, a + 16);
  const __m512i n0 = _mm512_loadu_si512(n);
  const __m512i n1 = _mm512_loadu_si512(n + 8);
  const __m512i n2 = _mm512_maskz_loadu_epi64(kTailLanes, n + 16);
  const Limb a_0 = a[0], n_0 = n[0], n_1 = n[1];
  __m512i t0 = zero, t1 = zero, t2 = zero;
  Limb t_0 = 0;  // digit 0 of t; t0's lane 0 is scratch
  for (std::size_t i = 0; i < kIfmaDigits; ++i) {
    const Limb bi = b[i];
    const __m512i vb = _mm512_set1_epi64(static_cast<long long>(bi));
    t0 = _mm512_madd52lo_epu64(t0, a0, vb);
    t1 = _mm512_madd52lo_epu64(t1, a1, vb);
    t2 = _mm512_madd52lo_epu64(t2, a2, vb);
    const __m512i h0 = _mm512_madd52hi_epu64(zero, a0, vb);
    const __m512i h1 = _mm512_madd52hi_epu64(zero, a1, vb);
    const __m512i h2 = _mm512_madd52hi_epu64(zero, a2, vb);
    const Limb lane1 = static_cast<Limb>(t0[1]);
    u128 d0 = static_cast<u128>(a_0) * bi + t_0;
    const Limb y = (static_cast<Limb>(d0) * k0) & kMask52;
    d0 += static_cast<u128>(n_0) * y;  // now 0 mod 2^52
    t_0 = static_cast<Limb>(d0 >> 52) + lane1 + ((n_1 * y) & kMask52);
    const __m512i vy = _mm512_set1_epi64(static_cast<long long>(y));
    t0 = _mm512_madd52lo_epu64(t0, n0, vy);
    t1 = _mm512_madd52lo_epu64(t1, n1, vy);
    t2 = _mm512_madd52lo_epu64(t2, n2, vy);
    const __m512i g0 = _mm512_madd52hi_epu64(h0, n0, vy);
    const __m512i g1 = _mm512_madd52hi_epu64(h1, n1, vy);
    const __m512i g2 = _mm512_madd52hi_epu64(h2, n2, vy);
    t0 = _mm512_add_epi64(shift_down<1>(t1, t0), g0);
    t1 = _mm512_add_epi64(shift_down<1>(t2, t1), g1);
    t2 = _mm512_add_epi64(shift_down<1>(zero, t2), g2);
  }
  t0 = _mm512_mask_set1_epi64(t0, 1, static_cast<long long>(t_0));

  // One carry pass: lane j keeps its low 52 bits plus lane j-1's bits
  // above 52. The top lane's carry is zero, since t < 2N < 2^1040.
  const __m512i c0 = above52(t0);
  const __m512i c1 = above52(t1);
  const __m512i c2 = above52(t2);
  t0 = _mm512_add_epi64(_mm512_and_si512(t0, mask), shift_down<7>(c0, zero));
  t1 = _mm512_add_epi64(_mm512_and_si512(t1, mask), shift_down<7>(c1, c0));
  t2 = _mm512_add_epi64(_mm512_and_si512(t2, mask), shift_down<7>(c2, c1));
  // A digit above 2^52 - 1 generates a carry of one; a digit equal to it
  // propagates an incoming one. ((g << 1) + p) ^ p marks every digit a
  // carry reaches; each such digit gains one and all drop bit 52.
  const unsigned g = _mm512_cmpgt_epu64_mask(t0, mask) |
                     (unsigned{_mm512_cmpgt_epu64_mask(t1, mask)} << 8) |
                     (unsigned{_mm512_cmpgt_epu64_mask(t2, mask)} << 16);
  const unsigned p = _mm512_cmpeq_epu64_mask(t0, mask) |
                     (unsigned{_mm512_cmpeq_epu64_mask(t1, mask)} << 8) |
                     (unsigned{_mm512_cmpeq_epu64_mask(t2, mask)} << 16);
  const unsigned c = ((g << 1) + p) ^ p;
  const __m512i one = _mm512_set1_epi64(1);
  t0 = _mm512_mask_add_epi64(t0, static_cast<__mmask8>(c), t0, one);
  t1 = _mm512_mask_add_epi64(t1, static_cast<__mmask8>(c >> 8), t1, one);
  t2 = _mm512_mask_add_epi64(t2, static_cast<__mmask8>(c >> 16), t2, one);
  _mm512_storeu_si512(out, _mm512_and_si512(t0, mask));
  _mm512_storeu_si512(out + 8, _mm512_and_si512(t1, mask));
  _mm512_mask_storeu_epi64(out + 16, kTailLanes, _mm512_and_si512(t2, mask));
}

#endif  // ICE_BN_HAVE_IFMA_KERNEL

}  // namespace

bool mont_ifma_supported() {
#ifdef ICE_BN_HAVE_IFMA_KERNEL
  static const bool ok = __builtin_cpu_supports("avx512f") &&
                         __builtin_cpu_supports("avx512vl") &&
                         __builtin_cpu_supports("avx512ifma");
  return ok;
#else
  return false;
#endif
}

bool mont_ifma_selected() {
  static const bool on = mont_ifma_supported() &&
                         simd::env_tier_cap() == simd::XorTier::kAvx512;
  return on;
}

void mont_mul_ifma(Limb* out, const Limb* a, const Limb* b, const Limb* n,
                   Limb k0) {
#ifdef ICE_BN_HAVE_IFMA_KERNEL
  mul20(out, a, b, n, k0);
#else
  (void)out, (void)a, (void)b, (void)n, (void)k0;
  throw ParamError("Montgomery: no AVX-512 IFMA kernel in this build");
#endif
}

void limbs_to_digits52(Limb* digits, const Limb* limbs) {
  for (std::size_t i = 0; i < kIfmaDigits; ++i) {
    const std::size_t w = 52 * i / 64;
    const unsigned s = 52 * i % 64;
    Limb v = limbs[w] >> s;
    if (s > 12 && w + 1 < kIfmaLimbs) v |= limbs[w + 1] << (64 - s);
    digits[i] = v & kMask52;
  }
}

void digits52_to_limbs(Limb* limbs, const Limb* digits) {
  std::fill(limbs, limbs + kIfmaLimbs, Limb{0});
  for (std::size_t i = 0; i < kIfmaDigits; ++i) {
    const std::size_t w = 52 * i / 64;
    const unsigned s = 52 * i % 64;
    limbs[w] |= digits[i] << s;
    if (s > 12 && w + 1 < kIfmaLimbs) limbs[w + 1] |= digits[i] >> (64 - s);
  }
}

}  // namespace ice::bn::detail
