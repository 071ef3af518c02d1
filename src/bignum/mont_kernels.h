// Montgomery multiply/square kernels behind Montgomery::mul_into/sqr_into.
//
// Internal to bignum/ and its differential tests: everything else goes
// through Montgomery, which picks the kernel. Every kernel returns the
// canonical residue a * b * R^{-1} mod N in [0, N) (R = 2^{64 k}), so the
// kernels are interchangeable bit for bit.
#pragma once

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

/// Widest sliding window Montgomery::pow uses: 2^9 table entries, 64 KB at
/// 1024 bits.
inline constexpr unsigned kMaxPowWindowBits = 10;

/// Sliding-window width Montgomery::pow uses for an nbits-long exponent:
/// the w in [1, kMaxPowWindowBits] minimizing 2^{w-1} + nbits / (w + 1)
/// multiplies (table plus windows).
unsigned pow_window_bits(std::size_t nbits);

}  // namespace ice::bn::detail
