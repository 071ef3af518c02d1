// Montgomery multiply/square kernels behind Montgomery::mul_into/sqr_into,
// and the sliding-window exponent scan Montgomery::pow and multi_exp share.
//
// Internal to bignum/, its differential tests and bench_modexp: everything
// else goes through Montgomery, which picks the kernel. Every kernel
// returns the canonical residue a * b * R^{-1} mod N in [0, N)
// (R = 2^{64 k}), so the kernels are interchangeable bit for bit.
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
