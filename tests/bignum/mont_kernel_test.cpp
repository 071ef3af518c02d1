// Differential suite for the Montgomery kernels (bignum/mont_kernels.h):
// the fixed-width MULX/ADX kernels against the portable u128 kernels and a
// BigInt a * b * R^{-1} mod N reference at k = 4, 8 and 16 limbs, the
// radix-2^52 IFMA kernel against the BigInt reference at 1024-bit N, and
// Montgomery::pow (fixed kernels, tuned windows) against a square-and-
// multiply chain on the portable kernels.
#include "bignum/mont_kernels.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bignum/bigint.h"
#include "bignum/montgomery.h"
#include "bignum/random.h"
#include "common/rng.h"

namespace ice::bn {
namespace {

using detail::Limb;
using Limbs = std::vector<Limb>;

Limbs limbs_of(const BigInt& x, std::size_t k) {
  Limbs out(k, 0);
  const LimbBuf& l = x.limbs();
  std::copy(l.begin(), l.end(), out.begin());
  return out;
}

// -N^{-1} mod 2^64 by Newton iteration.
Limb neg_inv64(Limb n0) {
  Limb inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - n0 * inv;
  return ~inv + 1;
}

struct Modulus {
  explicit Modulus(BigInt value)
      : n(std::move(value)),
        k(n.limbs().size()),
        limbs(limbs_of(n, k)),
        n0inv(neg_inv64(limbs[0])),
        r_inv(mod_inverse((BigInt(1) << (64 * k)).mod(n), n)) {}

  BigInt n;
  std::size_t k;
  Limbs limbs;
  Limb n0inv;
  BigInt r_inv;  // R^{-1} mod N, R = 2^{64 k}
};

BigInt odd(const BigInt& x) { return x.is_odd() ? x : x + BigInt(1); }

// The moduli each width is checked against: random full-width, N just
// below 2^{64k} (all-ones limbs), and N with top limb 1.
std::vector<Modulus> moduli(std::size_t k, Rng64& rng) {
  std::vector<Modulus> out;
  out.emplace_back(odd(random_bits(rng, 64 * k)));
  out.emplace_back((BigInt(1) << (64 * k)) - BigInt(1));
  out.emplace_back((BigInt(1) << (64 * (k - 1))) +
                   odd(random_bits(rng, 64 * (k - 1) - 1)));
  return out;
}

// Operands: the edge values, then random residues.
std::vector<BigInt> operands(const Modulus& m, Rng64& rng) {
  std::vector<BigInt> out = {
      BigInt(0), BigInt(1), m.n - BigInt(1),
      ((BigInt(1) << (64 * m.k)) - BigInt(1)).mod(m.n)};
  for (int i = 0; i < 12; ++i) out.push_back(random_below(rng, m.n));
  return out;
}

class MontKernelTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  MontKernelTest() : gen_(0x6d6b + GetParam()), rng_(gen_) {}
  SplitMix64 gen_;
  Rng64Adapter<SplitMix64> rng_;
};

TEST_P(MontKernelTest, PortableMatchesBigIntReference) {
  const std::size_t k = GetParam();
  for (const Modulus& m : moduli(k, rng_)) {
    ASSERT_EQ(m.k, k);
    const std::vector<BigInt> ops = operands(m, rng_);
    Limbs out(k), scratch(2 * k + 2);
    for (const BigInt& a : ops) {
      const Limbs la = limbs_of(a, k);
      for (const BigInt& b : ops) {
        const Limbs lb = limbs_of(b, k);
        detail::mont_mul_portable(out.data(), la.data(), lb.data(),
                                  m.limbs.data(), m.n0inv, k, scratch.data());
        EXPECT_EQ(BigInt::from_limbs(out), (a * b * m.r_inv).mod(m.n));
      }
      detail::mont_sqr_portable(out.data(), la.data(), m.limbs.data(),
                                m.n0inv, k, scratch.data());
      EXPECT_EQ(BigInt::from_limbs(out), (a * a * m.r_inv).mod(m.n));
    }
  }
}

TEST_P(MontKernelTest, FixedWidthMatchesPortable) {
  const std::size_t k = GetParam();
  if (!detail::mont_fixed_width(k)) {
    GTEST_SKIP() << "no fixed-width kernel for this width on this host";
  }
  for (const Modulus& m : moduli(k, rng_)) {
    const std::vector<BigInt> ops = operands(m, rng_);
    Limbs want(k), got(k), scratch(2 * k + 2);
    for (const BigInt& a : ops) {
      const Limbs la = limbs_of(a, k);
      for (const BigInt& b : ops) {
        const Limbs lb = limbs_of(b, k);
        detail::mont_mul_portable(want.data(), la.data(), lb.data(),
                                  m.limbs.data(), m.n0inv, k, scratch.data());
        detail::mont_mul_fixed(got.data(), la.data(), lb.data(),
                               m.limbs.data(), m.n0inv, k);
        EXPECT_EQ(got, want) << "mul, modulus " << m.n.to_hex();
      }
      detail::mont_sqr_portable(want.data(), la.data(), m.limbs.data(),
                                m.n0inv, k, scratch.data());
      detail::mont_sqr_fixed(got.data(), la.data(), m.limbs.data(), m.n0inv,
                             k);
      EXPECT_EQ(got, want) << "sqr, modulus " << m.n.to_hex();
      detail::mont_mul_fixed(got.data(), la.data(), la.data(), m.limbs.data(),
                             m.n0inv, k);
      EXPECT_EQ(got, want) << "mul(a, a), modulus " << m.n.to_hex();
    }
  }
}

TEST_P(MontKernelTest, FixedWidthOutputMayAliasInputs) {
  const std::size_t k = GetParam();
  if (!detail::mont_fixed_width(k)) {
    GTEST_SKIP() << "no fixed-width kernel for this width on this host";
  }
  for (const Modulus& m : moduli(k, rng_)) {
    const BigInt a = random_below(rng_, m.n);
    const BigInt b = random_below(rng_, m.n);
    const Limbs la = limbs_of(a, k);
    const Limbs lb = limbs_of(b, k);
    const Limbs ab = limbs_of((a * b * m.r_inv).mod(m.n), k);
    const Limbs aa = limbs_of((a * a * m.r_inv).mod(m.n), k);

    Limbs x = la;
    detail::mont_mul_fixed(x.data(), x.data(), lb.data(), m.limbs.data(),
                           m.n0inv, k);
    EXPECT_EQ(x, ab);
    x = lb;
    detail::mont_mul_fixed(x.data(), la.data(), x.data(), m.limbs.data(),
                           m.n0inv, k);
    EXPECT_EQ(x, ab);
    x = la;
    detail::mont_mul_fixed(x.data(), x.data(), x.data(), m.limbs.data(),
                           m.n0inv, k);
    EXPECT_EQ(x, aa);
    x = la;
    detail::mont_sqr_fixed(x.data(), x.data(), m.limbs.data(), m.n0inv, k);
    EXPECT_EQ(x, aa);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, MontKernelTest,
                         ::testing::Values(std::size_t{4}, std::size_t{8},
                                           std::size_t{16}),
                         [](const auto& info) {
                           return "K" + std::to_string(info.param);
                         });

// --- The IFMA kernel: 20 digits of 52 bits, R = 2^1040, values below 2N.

constexpr Limb kMask52 = (Limb{1} << 52) - 1;

// x as 20 digits of 52 bits, read bit by bit (independent of the kernel
// file's limb conversions).
Limbs digits_of(const BigInt& x) {
  Limbs d(detail::kIfmaDigits, 0);
  for (std::size_t i = 0; i < 52 * d.size(); ++i) {
    if (x.bit(i)) d[i / 52] |= Limb{1} << (i % 52);
  }
  return d;
}

BigInt value_of_digits(const Limbs& d) {
  BigInt v;
  for (std::size_t i = d.size(); i-- > 0;) v = (v << 52) + BigInt(d[i]);
  return v;
}

class MontKernelIfmaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!detail::mont_ifma_supported()) {
      GTEST_SKIP() << "no AVX-512 IFMA on this host";
    }
  }
  SplitMix64 gen_{0x1f3a};
  Rng64Adapter<SplitMix64> rng_{gen_};
};

// The header's promise for a product of a and b: digits below 2^52, a
// value below 2N, congruent to a * b * 2^{-1040} mod N.
void expect_ifma_product(const Limbs& got, const BigInt& a, const BigInt& b,
                         const Modulus& m, const BigInt& r_inv) {
  for (const Limb d : got) EXPECT_LE(d, kMask52);
  const BigInt v = value_of_digits(got);
  EXPECT_LT(v, m.n + m.n);
  EXPECT_EQ(v.mod(m.n), (a * b * r_inv).mod(m.n))
      << "modulus " << m.n.to_hex();
}

TEST_F(MontKernelIfmaTest, MatchesBigIntReferenceBelowTwoN) {
  for (const Modulus& m : moduli(16, rng_)) {
    const Limbs n = digits_of(m.n);
    const Limb k0 = m.n0inv & kMask52;
    const BigInt r_inv = mod_inverse((BigInt(1) << 1040).mod(m.n), m.n);
    // The edge operands (inputs below 2N are admitted), then random
    // residues below N and below 2N.
    std::vector<BigInt> ops = {BigInt(0), BigInt(1), m.n - BigInt(1), m.n,
                               m.n + m.n - BigInt(1)};
    for (int i = 0; i < 8; ++i) ops.push_back(random_below(rng_, m.n));
    for (int i = 0; i < 8; ++i) ops.push_back(random_below(rng_, m.n + m.n));
    Limbs out(detail::kIfmaDigits);
    for (const BigInt& a : ops) {
      const Limbs la = digits_of(a);
      for (const BigInt& b : ops) {
        detail::mont_mul_ifma(out.data(), la.data(), digits_of(b).data(),
                              n.data(), k0);
        expect_ifma_product(out, a, b, m, r_inv);
      }
    }
  }
}

TEST_F(MontKernelIfmaTest, OutputMayAliasInputs) {
  for (const Modulus& m : moduli(16, rng_)) {
    const Limbs n = digits_of(m.n);
    const Limb k0 = m.n0inv & kMask52;
    const BigInt r_inv = mod_inverse((BigInt(1) << 1040).mod(m.n), m.n);
    const BigInt a = random_below(rng_, m.n + m.n);
    const BigInt b = random_below(rng_, m.n + m.n);
    Limbs x = digits_of(a);
    detail::mont_mul_ifma(x.data(), x.data(), digits_of(b).data(), n.data(),
                          k0);
    expect_ifma_product(x, a, b, m, r_inv);
    x = digits_of(b);
    detail::mont_mul_ifma(x.data(), digits_of(a).data(), x.data(), n.data(),
                          k0);
    expect_ifma_product(x, a, b, m, r_inv);
    x = digits_of(a);
    detail::mont_mul_ifma(x.data(), x.data(), x.data(), n.data(), k0);
    expect_ifma_product(x, a, a, m, r_inv);
  }
}

TEST_F(MontKernelIfmaTest, DigitConversionsRoundTrip) {
  std::vector<BigInt> values = {BigInt(0), BigInt(1),
                                (BigInt(1) << 1024) - BigInt(1)};
  for (int i = 0; i < 16; ++i) values.push_back(random_bits(rng_, 1024));
  for (const BigInt& x : values) {
    const Limbs limbs = limbs_of(x, detail::kIfmaLimbs);
    Limbs digits(detail::kIfmaDigits), back(detail::kIfmaLimbs);
    detail::limbs_to_digits52(digits.data(), limbs.data());
    EXPECT_EQ(digits, digits_of(x));
    detail::digits52_to_limbs(back.data(), digits.data());
    EXPECT_EQ(back, limbs);
  }
}

// A context on the IFMA kernel hands out canonical values only: a residue
// that is N itself (0 mod N, not reduced) comes back as 0.
TEST_F(MontKernelIfmaTest, ContextReturnsCanonicalValues) {
  if (!detail::mont_ifma_selected()) {
    GTEST_SKIP() << "ICE_SIMD keeps 1024-bit moduli on MULX/ADX";
  }
  for (const Modulus& m : moduli(16, rng_)) {
    const Montgomery mont(m.n);
    ASSERT_STREQ(mont.kernel_name(), "ifma");
    ASSERT_EQ(mont.limb_count(), detail::kIfmaDigits);
    const BigInt r_inv = mod_inverse((BigInt(1) << 1040).mod(m.n), m.n);
    for (const BigInt& x :
         {BigInt(0), BigInt(1), m.n - BigInt(1), random_below(rng_, m.n)}) {
      EXPECT_EQ(mont.from_mont(mont.to_mont(x)), x);
    }
    for (const BigInt& x : {m.n, m.n + BigInt(1), m.n + m.n - BigInt(1)}) {
      const Limbs d = digits_of(x);
      const Montgomery::LimbVec residue(d.data(), d.data() + d.size());
      EXPECT_EQ(mont.from_mont(residue), (x * r_inv).mod(m.n));
    }
  }
}

// base^exp mod N by binary square-and-multiply on the portable kernels:
// the reference chain for Montgomery::pow.
BigInt portable_pow(const Modulus& m, const BigInt& base, const BigInt& exp) {
  const std::size_t k = m.k;
  const Limbs r2 = limbs_of((BigInt(1) << (128 * k)).mod(m.n), k);
  Limbs one(k, 0);
  one[0] = 1;
  Limbs b = limbs_of(base.mod(m.n), k), acc(k), scratch(2 * k + 2);
  detail::mont_mul_portable(b.data(), b.data(), r2.data(), m.limbs.data(),
                            m.n0inv, k, scratch.data());
  detail::mont_mul_portable(acc.data(), one.data(), r2.data(), m.limbs.data(),
                            m.n0inv, k, scratch.data());
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    detail::mont_sqr_portable(acc.data(), acc.data(), m.limbs.data(), m.n0inv,
                              k, scratch.data());
    if (exp.bit(i)) {
      detail::mont_mul_portable(acc.data(), acc.data(), b.data(),
                                m.limbs.data(), m.n0inv, k, scratch.data());
    }
  }
  detail::mont_mul_portable(acc.data(), acc.data(), one.data(),
                            m.limbs.data(), m.n0inv, k, scratch.data());
  return BigInt::from_limbs(acc);
}

TEST(MontPowTest, WindowWidthFollowsCostModel) {
  // w minimizes 2^{w-1} + nbits/(w+1): it steps up where the two costs
  // cross, nbits = 2^{w-1} (w+1)(w+2), and stops at the 64 KB cap.
  EXPECT_EQ(detail::pow_window_bits(1), 1u);
  for (unsigned w = 1; w < detail::kMaxPowWindowBits; ++w) {
    const std::size_t cross = (std::size_t{1} << (w - 1)) * (w + 1) * (w + 2);
    EXPECT_EQ(detail::pow_window_bits(cross - 1), w);
    EXPECT_EQ(detail::pow_window_bits(cross + 1), w + 1);
  }
  EXPECT_EQ(detail::pow_window_bits(525380), detail::kMaxPowWindowBits);
}

TEST(MontPowTest, EveryWindowWidthMatchesPortableChain) {
  SplitMix64 gen(0x9077);
  Rng64Adapter rng(gen);
  const Modulus m(odd(random_bits(rng, 1024)));
  const Montgomery mont(m.n);
  const BigInt base = random_below(rng, m.n);
  // The shortest and longest exponent served by each width.
  std::vector<std::size_t> lengths;
  for (std::size_t nbits = 1; nbits <= 30000; ++nbits) {
    if (detail::pow_window_bits(nbits) != detail::pow_window_bits(nbits + 1)) {
      lengths.push_back(nbits);
      lengths.push_back(nbits + 1);
    }
  }
  ASSERT_EQ(lengths.size(), 2 * (detail::kMaxPowWindowBits - 1));
  for (std::size_t nbits : lengths) {
    const BigInt exp = random_bits(rng, nbits);
    EXPECT_EQ(mont.pow(base, exp), portable_pow(m, base, exp))
        << nbits << "-bit exponent";
  }
}

TEST(MontPowTest, EdgeProofSizedExponentMatchesPortableChain) {
  // 525,380 bits: the exponent of one edge proof at 64 KB blocks.
  SplitMix64 gen(0x9078);
  Rng64Adapter rng(gen);
  const Modulus m(odd(random_bits(rng, 1024)));
  const BigInt base = random_below(rng, m.n);
  const BigInt exp = random_bits(rng, 525380);
  EXPECT_EQ(Montgomery(m.n).pow(base, exp), portable_pow(m, base, exp));
}

}  // namespace
}  // namespace ice::bn
