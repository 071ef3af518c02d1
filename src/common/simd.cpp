#include "common/simd.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string_view>

#include "common/error.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define ICE_SIMD_X86 1
#include <immintrin.h>
#endif

namespace ice::simd {

namespace {

// ---------------------------------------------------------------- portable

// Unrolled by four so the independent u64 ALU ops pipeline even when the
// compiler's cost model declines to auto-vectorize a runtime trip count.
void xor_row_portable(std::uint64_t* dst, const std::uint64_t* src,
                      std::size_t w) {
  std::size_t j = 0;
  for (; j + 4 <= w; j += 4) {
    dst[j] ^= src[j];
    dst[j + 1] ^= src[j + 1];
    dst[j + 2] ^= src[j + 2];
    dst[j + 3] ^= src[j + 3];
  }
  for (; j < w; ++j) dst[j] ^= src[j];
}

// GF(4) products of 2-bit elements (gf::GF4's table: x^2 = x + 1).
constexpr std::uint8_t kGf4Mul[4][4] = {
    {0, 0, 0, 0}, {0, 1, 2, 3}, {0, 2, 3, 1}, {0, 3, 1, 2}};

// All-ones when bit `bit` of the 2-bit element e is set, else zero.
constexpr std::uint64_t bit_mask(unsigned e, unsigned bit) {
  return 0 - static_cast<std::uint64_t>((e >> bit) & 1u);
}

// Words per block of the portable run kernel: U (2 x 16 words, one K =
// 1024 row per plane) lives in a stack block the word loops vectorize over.
constexpr std::size_t kRunWords = 16;

// Words [j0, j0 + bw) of xor_run, bw <= kRunWords.
void run_words_portable(std::uint64_t* acc, const std::uint64_t* rows,
                        std::size_t w, const std::uint8_t* q, std::uint32_t a,
                        std::uint32_t b, std::uint32_t c0, std::size_t len,
                        std::size_t j0, std::size_t bw) {
  const unsigned qa = q[a], qb = q[b], s = kGf4Mul[qa][qb];
  const std::size_t pair = 2 * w;
  std::uint64_t ul[kRunWords] = {}, uh[kRunWords] = {};
  const std::uint64_t* t = rows + j0;
  std::uint64_t* dc = acc + pair * (1 + c0) + j0;
  for (std::size_t r = 0; r < len; ++r, t += w, dc += pair) {
    const unsigned qc = q[c0 + r];
    const std::uint64_t ml = bit_mask(qc, 0), mh = bit_mask(qc, 1);
    for (std::size_t j = 0; j < bw; ++j) {
      ul[j] ^= t[j] & ml;
      uh[j] ^= t[j] & mh;
    }
    if (s & 1u) {
      for (std::size_t j = 0; j < bw; ++j) dc[j] ^= t[j];
    }
    if (s & 2u) {
      for (std::size_t j = 0; j < bw; ++j) dc[w + j] ^= t[j];
    }
  }
  add_scaled(acc + j0, w, ul, uh, bw, s);
  add_scaled(acc + pair * (1 + a) + j0, w, ul, uh, bw, qb);
  add_scaled(acc + pair * (1 + b) + j0, w, ul, uh, bw, qa);
}

void xor_run_portable(std::uint64_t* acc, const std::uint64_t* rows,
                      std::size_t w, const std::uint8_t* q, std::uint32_t a,
                      std::uint32_t b, std::uint32_t c0, std::size_t len) {
  // Every term of the run carries q_a or q_b.
  if ((q[a] | q[b]) == 0) return;
  for (std::size_t j0 = 0; j0 < w; j0 += kRunWords) {
    run_words_portable(acc, rows, w, q, a, b, c0, len, j0,
                       std::min(kRunWords, w - j0));
  }
}

#if defined(ICE_SIMD_X86)

// ------------------------------------------------------------------- AVX2

__attribute__((target("avx2"))) void xor_row_avx2(std::uint64_t* dst,
                                                  const std::uint64_t* src,
                                                  std::size_t w) {
  std::size_t j = 0;
  for (; j + 4 <= w; j += 4) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + j));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + j));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + j),
                        _mm256_xor_si256(d, s));
  }
  for (; j < w; ++j) dst[j] ^= src[j];
}

// dst pair += c * (u_lo, u_hi) for one 4-word lane (see
// add_scaled in simd.h for the GF(4) product).
__attribute__((target("avx2"))) void add_scaled_avx2(std::uint64_t* dst,
                                                     std::size_t w,
                                                     __m256i ul, __m256i uh,
                                                     unsigned c) {
  const __m256i m0 =
      _mm256_set1_epi64x(static_cast<long long>(bit_mask(c, 0)));
  const __m256i m1 =
      _mm256_set1_epi64x(static_cast<long long>(bit_mask(c, 1)));
  const __m256i lo = _mm256_xor_si256(_mm256_and_si256(ul, m0),
                                      _mm256_and_si256(uh, m1));
  const __m256i hi = _mm256_xor_si256(
      _mm256_and_si256(uh, m0),
      _mm256_and_si256(_mm256_xor_si256(ul, uh), m1));
  __m256i* const l = reinterpret_cast<__m256i*>(dst);
  __m256i* const h = reinterpret_cast<__m256i*>(dst + w);
  _mm256_storeu_si256(l, _mm256_xor_si256(_mm256_loadu_si256(l), lo));
  _mm256_storeu_si256(h, _mm256_xor_si256(_mm256_loadu_si256(h), hi));
}

__attribute__((target("avx2"))) void xor_run_avx2(
    std::uint64_t* acc, const std::uint64_t* rows, std::size_t w,
    const std::uint8_t* q, std::uint32_t a, std::uint32_t b,
    std::uint32_t c0, std::size_t len) {
  const unsigned qa = q[a], qb = q[b];
  if ((qa | qb) == 0) return;
  const unsigned s = kGf4Mul[qa][qb];
  const std::size_t pair = 2 * w;
  std::size_t j0 = 0;
  // Eight words (two ymm per plane) per block; the tail goes portable.
  for (; j0 + 8 <= w; j0 += 8) {
    __m256i ul0 = _mm256_setzero_si256(), ul1 = _mm256_setzero_si256();
    __m256i uh0 = _mm256_setzero_si256(), uh1 = _mm256_setzero_si256();
    const std::uint64_t* t = rows + j0;
    std::uint64_t* dc = acc + pair * (1 + c0) + j0;
    for (std::size_t r = 0; r < len; ++r, t += w, dc += pair) {
      const __m256i t0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(t));
      const __m256i t1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(t + 4));
      const unsigned qc = q[c0 + r];
      const __m256i ml =
          _mm256_set1_epi64x(static_cast<long long>(bit_mask(qc, 0)));
      const __m256i mh =
          _mm256_set1_epi64x(static_cast<long long>(bit_mask(qc, 1)));
      ul0 = _mm256_xor_si256(ul0, _mm256_and_si256(t0, ml));
      ul1 = _mm256_xor_si256(ul1, _mm256_and_si256(t1, ml));
      uh0 = _mm256_xor_si256(uh0, _mm256_and_si256(t0, mh));
      uh1 = _mm256_xor_si256(uh1, _mm256_and_si256(t1, mh));
      for (unsigned plane = 0; plane < 2; ++plane) {
        if (((s >> plane) & 1u) == 0) continue;
        __m256i* const d0 = reinterpret_cast<__m256i*>(dc + plane * w);
        __m256i* const d1 = reinterpret_cast<__m256i*>(dc + plane * w + 4);
        _mm256_storeu_si256(d0, _mm256_xor_si256(_mm256_loadu_si256(d0), t0));
        _mm256_storeu_si256(d1, _mm256_xor_si256(_mm256_loadu_si256(d1), t1));
      }
    }
    const std::uint32_t slots[3] = {0, 1 + a, 1 + b};
    const unsigned coeffs[3] = {s, qb, qa};
    for (int f = 0; f < 3; ++f) {
      if (coeffs[f] == 0) continue;
      std::uint64_t* const dst = acc + pair * slots[f] + j0;
      add_scaled_avx2(dst, w, ul0, uh0, coeffs[f]);
      add_scaled_avx2(dst + 4, w, ul1, uh1, coeffs[f]);
    }
  }
  if (j0 < w) run_words_portable(acc, rows, w, q, a, b, c0, len, j0, w - j0);
}

// ---------------------------------------------------------------- AVX-512

__attribute__((target("avx512f"))) void xor_row_avx512(
    std::uint64_t* dst, const std::uint64_t* src, std::size_t w) {
  std::size_t j = 0;
  for (; j + 8 <= w; j += 8) {
    const __m512i s = _mm512_loadu_si512(src + j);
    const __m512i d = _mm512_loadu_si512(dst + j);
    _mm512_storeu_si512(dst + j, _mm512_xor_si512(d, s));
  }
  if (j < w) {
    const __mmask8 k = static_cast<__mmask8>((1u << (w - j)) - 1u);
    const __m512i s = _mm512_maskz_loadu_epi64(k, src + j);
    const __m512i d = _mm512_maskz_loadu_epi64(k, dst + j);
    _mm512_mask_storeu_epi64(dst + j, k, _mm512_xor_si512(d, s));
  }
}

// Lane mask of the first min(n, 8) words of a zmm.
constexpr __mmask8 word_lanes(std::size_t n) {
  return n >= 8 ? __mmask8{0xFF} : static_cast<__mmask8>((1u << n) - 1u);
}

// All-lanes mask when bit `bit` of the 2-bit element e is set, else none.
constexpr __mmask8 bit_lanes(unsigned e, unsigned bit) {
  return static_cast<__mmask8>(0u - ((e >> bit) & 1u));
}

// dst[0..16) ^= (t0 | t1) on the lanes k0 | k1 select.
__attribute__((target("avx512f"))) inline void xor_lanes(
    std::uint64_t* dst, __mmask8 k0, __mmask8 k1, __m512i t0, __m512i t1) {
  _mm512_mask_storeu_epi64(
      dst, k0, _mm512_xor_si512(_mm512_maskz_loadu_epi64(k0, dst), t0));
  _mm512_mask_storeu_epi64(
      dst + 8, k1,
      _mm512_xor_si512(_mm512_maskz_loadu_epi64(k1, dst + 8), t1));
}

// dst pair += c * (ul + uh x) over one 16-word block (see
// add_scaled in simd.h for the GF(4) product).
__attribute__((target("avx512f"))) inline void add_scaled_avx512(
    std::uint64_t* dst, std::size_t w, __mmask8 k0, __mmask8 k1,
    __m512i ul0, __m512i ul1, __m512i uh0, __m512i uh1, unsigned c) {
  if (c == 0) return;
  const __mmask8 m0 = bit_lanes(c, 0), m1 = bit_lanes(c, 1);
  xor_lanes(dst, k0, k1,
            _mm512_xor_si512(_mm512_maskz_mov_epi64(m0, ul0),
                             _mm512_maskz_mov_epi64(m1, uh0)),
            _mm512_xor_si512(_mm512_maskz_mov_epi64(m0, ul1),
                             _mm512_maskz_mov_epi64(m1, uh1)));
  xor_lanes(dst + w, k0, k1,
            _mm512_xor_si512(
                _mm512_maskz_mov_epi64(m0, uh0),
                _mm512_maskz_mov_epi64(m1, _mm512_xor_si512(ul0, uh0))),
            _mm512_xor_si512(
                _mm512_maskz_mov_epi64(m0, uh1),
                _mm512_maskz_mov_epi64(m1, _mm512_xor_si512(ul1, uh1))));
}

// Sixteen words (two zmm per plane) per block; a narrower tail block is
// lane-masked, so any w runs through the one loop.
__attribute__((target("avx512f"))) void xor_run_avx512(
    std::uint64_t* acc, const std::uint64_t* rows, std::size_t w,
    const std::uint8_t* q, std::uint32_t a, std::uint32_t b,
    std::uint32_t c0, std::size_t len) {
  const unsigned qa = q[a], qb = q[b];
  if ((qa | qb) == 0) return;
  const unsigned s = kGf4Mul[qa][qb];
  const std::size_t pair = 2 * w;
  for (std::size_t j0 = 0; j0 < w; j0 += 16) {
    const std::size_t bw = std::min<std::size_t>(16, w - j0);
    const __mmask8 k0 = word_lanes(bw);
    const __mmask8 k1 = word_lanes(bw > 8 ? bw - 8 : 0);
    __m512i ul0 = _mm512_setzero_si512(), ul1 = _mm512_setzero_si512();
    __m512i uh0 = _mm512_setzero_si512(), uh1 = _mm512_setzero_si512();
    const std::uint64_t* t = rows + j0;
    std::uint64_t* dc = acc + pair * (1 + c0) + j0;
    for (std::size_t r = 0; r < len; ++r, t += w, dc += pair) {
      const __m512i t0 = _mm512_maskz_loadu_epi64(k0, t);
      const __m512i t1 = _mm512_maskz_loadu_epi64(k1, t + 8);
      const unsigned qc = q[c0 + r];
      const __mmask8 ml = bit_lanes(qc, 0), mh = bit_lanes(qc, 1);
      ul0 = _mm512_mask_xor_epi64(ul0, ml, ul0, t0);
      ul1 = _mm512_mask_xor_epi64(ul1, ml, ul1, t1);
      uh0 = _mm512_mask_xor_epi64(uh0, mh, uh0, t0);
      uh1 = _mm512_mask_xor_epi64(uh1, mh, uh1, t1);
      if (s & 1u) xor_lanes(dc, k0, k1, t0, t1);
      if (s & 2u) xor_lanes(dc + w, k0, k1, t0, t1);
    }
    add_scaled_avx512(acc + j0, w, k0, k1, ul0, ul1, uh0, uh1, s);
    add_scaled_avx512(acc + pair * (1 + a) + j0, w, k0, k1, ul0, ul1, uh0,
                      uh1, qb);
    add_scaled_avx512(acc + pair * (1 + b) + j0, w, k0, k1, ul0, ul1, uh0,
                      uh1, qa);
  }
}

#endif  // ICE_SIMD_X86

constexpr XorKernels kPortableKernels = {xor_row_portable, xor_run_portable,
                                         XorTier::kPortable, "portable"};
#if defined(ICE_SIMD_X86)
constexpr XorKernels kAvx2Kernels = {xor_row_avx2, xor_run_avx2,
                                     XorTier::kAvx2, "avx2"};
constexpr XorKernels kAvx512Kernels = {xor_row_avx512, xor_run_avx512,
                                       XorTier::kAvx512, "avx512"};
#endif

XorTier probe_best_tier() {
#if defined(ICE_SIMD_X86)
  if (__builtin_cpu_supports("avx512f")) return XorTier::kAvx512;
  if (__builtin_cpu_supports("avx2")) return XorTier::kAvx2;
#endif
  return XorTier::kPortable;
}

XorTier read_env_cap() {
  const char* env = std::getenv("ICE_SIMD");
  const std::string_view want(env == nullptr ? "" : env);
  if (want == "portable") return XorTier::kPortable;
  if (want == "avx2") return XorTier::kAvx2;
  return XorTier::kAvx512;
}

const XorKernels* initial_kernels() {
  return &kernels_for(std::min(best_supported_tier(), env_tier_cap()));
}

std::atomic<const XorKernels*>& active_slot() {
  static std::atomic<const XorKernels*> slot{initial_kernels()};
  return slot;
}

}  // namespace

XorTier best_supported_tier() {
  static const XorTier tier = probe_best_tier();
  return tier;
}

XorTier env_tier_cap() {
  static const XorTier cap = read_env_cap();
  return cap;
}

bool tier_supported(XorTier tier) {
  return static_cast<int>(tier) <= static_cast<int>(best_supported_tier());
}

const XorKernels& kernels_for(XorTier tier) {
  if (!tier_supported(tier)) {
    throw ParamError("simd::kernels_for: tier not supported by this CPU");
  }
  switch (tier) {
    case XorTier::kPortable:
      return kPortableKernels;
#if defined(ICE_SIMD_X86)
    case XorTier::kAvx2:
      return kAvx2Kernels;
    case XorTier::kAvx512:
      return kAvx512Kernels;
#else
    default:
      break;
#endif
  }
  throw ParamError("simd::kernels_for: unknown tier");
}

const XorKernels& active_kernels() { return *active_slot().load(); }

XorTier set_active_tier(XorTier tier) {
  const XorKernels& next = kernels_for(tier);  // validates support
  return active_slot().exchange(&next)->tier;
}

const char* tier_name(XorTier tier) {
  switch (tier) {
    case XorTier::kPortable:
      return "portable";
    case XorTier::kAvx2:
      return "avx2";
    case XorTier::kAvx512:
      return "avx512";
  }
  return "?";
}

}  // namespace ice::simd
