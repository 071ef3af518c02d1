// Property-based sweeps: algebraic identities on random operands at many
// bit sizes, pinning schoolbook multiplication (the only multiply) up to
// 4096-bit operands and the Knuth-D division corner cases (qhat
// corrections).
#include <gtest/gtest.h>

#include <cstdint>

#include "bignum/bigint.h"
#include "bignum/random.h"
#include "common/rng.h"

namespace ice::bn {
namespace {

class BigIntPropertyTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  BigIntPropertyTest() : gen_(0x5eed + GetParam()), rng_(gen_) {}

  BigInt random_signed(std::size_t bits) {
    BigInt v = random_bits(rng_, bits);
    return (gen_() & 1) ? v.negated() : v;
  }

  SplitMix64 gen_;
  Rng64Adapter<SplitMix64> rng_;
};

TEST_P(BigIntPropertyTest, AddSubInverse) {
  const std::size_t bits = GetParam();
  for (int i = 0; i < 50; ++i) {
    const BigInt a = random_signed(bits);
    const BigInt b = random_signed(bits / 2 + 1);
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ((a - b) + b, a);
  }
}

TEST_P(BigIntPropertyTest, AdditionCommutesAndAssociates) {
  const std::size_t bits = GetParam();
  for (int i = 0; i < 30; ++i) {
    const BigInt a = random_signed(bits);
    const BigInt b = random_signed(bits);
    const BigInt c = random_signed(bits / 3 + 1);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
  }
}

TEST_P(BigIntPropertyTest, MultiplicationCommutesAndDistributes) {
  const std::size_t bits = GetParam();
  for (int i = 0; i < 20; ++i) {
    const BigInt a = random_signed(bits);
    const BigInt b = random_signed(bits);
    const BigInt c = random_signed(bits / 2 + 1);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ(a * (b + c), a * b + a * c);
  }
}

TEST_P(BigIntPropertyTest, DivModInvariant) {
  const std::size_t bits = GetParam();
  for (int i = 0; i < 40; ++i) {
    const BigInt num = random_signed(bits * 2);
    BigInt den = random_signed(bits);
    if (den.is_zero()) den = BigInt(1);
    BigInt q, r;
    BigInt::divmod(num, den, q, r);
    EXPECT_EQ(q * den + r, num);
    EXPECT_LT(r.abs(), den.abs());
    if (!r.is_zero()) {
      EXPECT_EQ(r.sign(), num.sign());
    }
  }
}

TEST_P(BigIntPropertyTest, MulDivRoundTrip) {
  const std::size_t bits = GetParam();
  for (int i = 0; i < 30; ++i) {
    BigInt a = random_bits(rng_, bits);
    BigInt b = random_bits(rng_, bits + 17);
    const BigInt prod = a * b;
    EXPECT_EQ(prod / a, b);
    EXPECT_EQ(prod / b, a);
    EXPECT_TRUE((prod % a).is_zero());
    EXPECT_TRUE((prod % b).is_zero());
  }
}

TEST_P(BigIntPropertyTest, HexAndDecRoundTrip) {
  const std::size_t bits = GetParam();
  for (int i = 0; i < 10; ++i) {
    const BigInt a = random_signed(bits);
    EXPECT_EQ(BigInt::from_hex(a.to_hex()), a);
    EXPECT_EQ(BigInt::from_dec(a.to_dec()), a);
  }
}

TEST_P(BigIntPropertyTest, BytesRoundTrip) {
  const std::size_t bits = GetParam();
  for (int i = 0; i < 10; ++i) {
    const BigInt a = random_bits(rng_, bits);
    EXPECT_EQ(BigInt::from_bytes_be(a.to_bytes_be()), a);
    // Fixed-width with headroom round-trips too.
    EXPECT_EQ(BigInt::from_bytes_be(a.to_bytes_be(bits / 8 + 3)), a);
  }
}

TEST_P(BigIntPropertyTest, ShiftRoundTrip) {
  const std::size_t bits = GetParam();
  for (int i = 0; i < 20; ++i) {
    const BigInt a = random_bits(rng_, bits);
    const std::size_t k = gen_.below(3 * 64 + 1);
    EXPECT_EQ((a << k) >> k, a);
    EXPECT_EQ((a >> k) << k, ((a >> k) << k));  // no crash on underflow
  }
}

TEST_P(BigIntPropertyTest, ModularReductionConsistent) {
  const std::size_t bits = GetParam();
  for (int i = 0; i < 20; ++i) {
    const BigInt a = random_signed(bits * 2);
    BigInt m = random_bits(rng_, bits);
    if (m.is_zero()) m = BigInt(7);
    const BigInt r = a.mod(m);
    EXPECT_GE(r, BigInt(0));
    EXPECT_LT(r, m);
    EXPECT_TRUE(((a - r) % m).is_zero());
  }
}

TEST_P(BigIntPropertyTest, RandomBelowInRange) {
  const std::size_t bits = GetParam();
  const BigInt bound = random_bits(rng_, bits);
  for (int i = 0; i < 50; ++i) {
    const BigInt v = random_below(rng_, bound);
    EXPECT_GE(v, BigInt(0));
    EXPECT_LT(v, bound);
  }
}

TEST_P(BigIntPropertyTest, RandomBitsExactWidth) {
  const std::size_t bits = GetParam();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(random_bits(rng_, bits).bit_length(), bits);
  }
}

TEST_P(BigIntPropertyTest, GcdDividesBoth) {
  const std::size_t bits = GetParam();
  for (int i = 0; i < 15; ++i) {
    const BigInt a = random_bits(rng_, bits);
    const BigInt b = random_bits(rng_, bits / 2 + 1);
    const BigInt g = gcd(a, b);
    EXPECT_TRUE((a % g).is_zero());
    EXPECT_TRUE((b % g).is_zero());
    // gcd(a/g, b/g) == 1
    EXPECT_EQ(gcd(a / g, b / g), BigInt(1));
  }
}

// Bit sizes chosen to cross limb boundaries and the LimbBuf inline
// capacity (36 limbs = 2304 bits).
INSTANTIATE_TEST_SUITE_P(Widths, BigIntPropertyTest,
                         ::testing::Values(8, 63, 64, 65, 127, 128, 256, 1000,
                                           2048, 2500, 4096),
                         [](const auto& info) {
                           return "bits" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace ice::bn
