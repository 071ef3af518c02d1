// Montgomery multiply/square kernels behind Montgomery::mul_into/sqr_into,
// and the sliding-window exponent scan Montgomery::pow and multi_exp share.
//
// Internal to bignum/, its differential tests and bench_modexp: everything
// else goes through Montgomery, which picks the kernel. The 64-bit kernels
// (portable and MULX/ADX) take k-limb residues with R = 2^{64 k} and return
// the canonical a * b * R^{-1} mod N in [0, N), so they are interchangeable
// bit for bit. The IFMA kernel keeps its own residues (20 digits of 52
// bits, R = 2^1040, values below 2N); Montgomery converts at to_mont and
// from_mont, so every canonical value it returns is the same.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace ice::bn::detail {

using Limb = std::uint64_t;

/// Portable u128 kernels for any limb count k >= 1: the reference, and the
/// path for every width and host without a fixed-width kernel. `scratch`
/// holds 2k + 2 limbs; out may alias a and/or b.
void mont_mul_portable(Limb* out, const Limb* a, const Limb* b, const Limb* n,
                       Limb n0inv, std::size_t k, Limb* scratch);
void mont_sqr_portable(Limb* out, const Limb* a, const Limb* n, Limb n0inv,
                       std::size_t k, Limb* scratch);

/// True when a fixed-width MULX/ADCX/ADOX kernel serves k limbs on this
/// host: k in {4, 8, 16} (256-, 512- and 1024-bit N) on x86-64 with ADX,
/// BMI1 and BMI2.
bool mont_fixed_width(std::size_t k);

/// The fixed-width kernels; require mont_fixed_width(k). They keep their
/// product on their own stack frame, so there is no scratch argument; out
/// may alias a and/or b.
void mont_mul_fixed(Limb* out, const Limb* a, const Limb* b, const Limb* n,
                    Limb n0inv, std::size_t k);
void mont_sqr_fixed(Limb* out, const Limb* a, const Limb* n, Limb n0inv,
                    std::size_t k);

/// The IFMA kernel serves N of kIfmaLimbs limbs (1024-bit N); its residues
/// are kIfmaDigits little-endian digits of 52 bits each, with R = 2^1040.
inline constexpr std::size_t kIfmaLimbs = 16;
inline constexpr std::size_t kIfmaDigits = 20;

/// True when this CPU can run mont_mul_ifma (AVX-512F, VL and IFMA).
bool mont_ifma_supported();
/// True when Montgomery serves 16-limb N with mont_mul_ifma in this
/// process: mont_ifma_supported() and the ICE_SIMD variable does not cap
/// the process below avx512. Decided once per process.
bool mont_ifma_selected();

/// a * b * 2^{-1040} mod N for 20-digit a, b below 2N (digits below
/// 2^52), with n = N's 20 digits and k0 = -N^{-1} mod 2^52. The result
/// is below 2N with digits below 2^52, but not always below N: it is the
/// kernel's own residue, not the canonical value. It serves the square
/// too (mont_mul_ifma(out, a, a, ...)). out may alias a and/or b.
/// Requires mont_ifma_supported().
void mont_mul_ifma(Limb* out, const Limb* a, const Limb* b, const Limb* n,
                   Limb k0);

/// 16 64-bit limbs to 20 52-bit digits, and back; digits52_to_limbs needs
/// a value below 2^1024.
void limbs_to_digits52(Limb* digits, const Limb* limbs);
void digits52_to_limbs(Limb* limbs, const Limb* digits);

/// Widest sliding window Montgomery::pow and multi_exp use: 2^9 table
/// entries per base, 64 KB at 1024 bits.
inline constexpr unsigned kMaxPowWindowBits = 10;

/// Sliding-window width for an nbits-long exponent: the w in
/// [1, kMaxPowWindowBits] minimizing 2^{w-1} + nbits / (w + 1) multiplies
/// (table plus windows). Per base, so it sizes multi_exp's windows too: the
/// squaring chain is shared and does not depend on w.
unsigned pow_window_bits(std::size_t nbits);

/// One odd window of a sliding-window exponent scan: the digit (odd, below
/// 2^w) whose lowest bit is exponent bit `pos`.
struct OddWindow {
  std::size_t pos;
  unsigned digit;
};

/// Calls fn(OddWindow) for each odd window of the n-limb normalized
/// magnitude d (n = 0 is zero: no windows), top window first. Reads limbs,
/// never single bits: clz finds the next set bit, at most two limbs hold a
/// window (w <= kMaxPowWindowBits), and ctz makes its digit odd.
template <typename Fn>
void for_each_odd_window(const Limb* d, std::size_t n, unsigned w, Fn&& fn) {
  if (n == 0) return;
  std::size_t li = n - 1;  // limb holding the window's top bit
  Limb v = d[li];          // its bits at and below that top bit
  for (;;) {
    const std::size_t top =
        li * 64 + 63 - static_cast<std::size_t>(std::countl_zero(v));
    const std::size_t low = top >= w - 1 ? top - (w - 1) : 0;
    const std::size_t lo_limb = low / 64;
    const unsigned shift = low % 64;
    Limb bits = d[lo_limb] >> shift;
    if (shift != 0 && lo_limb + 1 < n) bits |= d[lo_limb + 1] << (64 - shift);
    bits &= (Limb{2} << (top - low)) - 1;
    const unsigned tz = static_cast<unsigned>(std::countr_zero(bits));
    const OddWindow win{low + tz, static_cast<unsigned>(bits >> tz)};
    fn(win);
    if (win.pos == 0) return;
    // The next window's top: the highest set bit below win.pos.
    li = (win.pos - 1) / 64;
    v = d[li] & (~Limb{0} >> (63 - (win.pos - 1) % 64));
    while (v == 0) {
      if (li == 0) return;
      v = d[--li];
    }
  }
}

}  // namespace ice::bn::detail
