// Differential tests pinning the multi-exponentiation engine to the scalar
// reference: for every modulus size, batch size, exponent shape and thread
// count, multi_exp (Straus) must equal the fold of Montgomery::pow with
// modular multiplies, bit for bit.
#include "bignum/multiexp.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <thread>
#include <vector>

#include "bignum/mont_kernels.h"
#include "bignum/random.h"
#include "common/error.h"
#include "common/rng.h"
#include "support/fixtures.h"

namespace ice::bn {
namespace {

BigInt fixture_modulus(std::size_t bits) {
  switch (bits) {
    case 128:
      return BigInt::from_hex(std::string(testing::kSafePrime128[0])) *
             BigInt::from_hex(std::string(testing::kSafePrime128[1]));
    case 256:
      return BigInt::from_hex(std::string(testing::kSafePrime256[0])) *
             BigInt::from_hex(std::string(testing::kSafePrime256[1]));
    default:
      return BigInt::from_hex(std::string(testing::kSafePrime512[0])) *
             BigInt::from_hex(std::string(testing::kSafePrime512[1]));
  }
}

// The scalar reference the engine must match bit for bit.
BigInt fold_of_pow(const Montgomery& mont, const std::vector<BigInt>& bases,
                   const std::vector<BigInt>& exps) {
  BigInt acc = BigInt(1).mod(mont.modulus());
  for (std::size_t i = 0; i < bases.size(); ++i) {
    acc = mont.mul(acc, mont.pow(bases[i], exps[i]));
  }
  return acc;
}

class MultiExpDifferentialTest : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(MultiExpDifferentialTest, MatchesFoldOfPowAcrossSizesAndThreads) {
  const std::size_t modulus_bits = GetParam();
  const BigInt n = fixture_modulus(modulus_bits);
  const Montgomery mont(n);
  SplitMix64 gen(1000 + modulus_bits);
  Rng64Adapter rng(gen);

  std::vector<std::size_t> ks = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 64};
  const std::size_t threads[] = {1, 2, 7, 0};  // 0 = hardware concurrency
  for (std::size_t k : ks) {
    std::vector<BigInt> bases(k), exps(k);
    for (std::size_t i = 0; i < k; ++i) {
      bases[i] = random_below(rng, n);
      exps[i] = random_bits(rng, 1 + (i * 37) % modulus_bits);
    }
    const BigInt want = fold_of_pow(mont, bases, exps);
    for (std::size_t t : threads) {
      EXPECT_EQ(multi_exp(mont, bases, exps, t), want)
          << "k=" << k << " threads=" << t;
    }
  }
}

TEST_P(MultiExpDifferentialTest, EdgeCaseExponents) {
  const BigInt n = fixture_modulus(GetParam());
  const Montgomery mont(n);
  SplitMix64 gen(2000 + GetParam());
  Rng64Adapter rng(gen);

  // Zero exponents sprinkled in, base 1, base 0, single-bit exponents.
  std::vector<BigInt> bases = {random_below(rng, n), BigInt(1),
                               random_below(rng, n), BigInt(0),
                               random_below(rng, n)};
  std::vector<BigInt> exps = {BigInt(0), random_bits(rng, 100), BigInt(1),
                              BigInt(0), BigInt(1) << 63};
  const BigInt want = fold_of_pow(mont, bases, exps);
  EXPECT_EQ(multi_exp(mont, bases, exps, 1), want);

  // All exponents zero: the empty product.
  std::vector<BigInt> zeros(bases.size(), BigInt(0));
  EXPECT_EQ(multi_exp(mont, bases, zeros), BigInt(1));

  // k = 1 degenerates to a plain pow.
  EXPECT_EQ(multi_exp(mont, {bases[0]}, {exps[1]}),
            mont.pow(bases[0], exps[1]));
}

INSTANTIATE_TEST_SUITE_P(ModulusBits, MultiExpDifferentialTest,
                         ::testing::Values(std::size_t{128}, std::size_t{256},
                                           std::size_t{512}));

// base^exp by bit-serial square-and-multiply on the residue API: a
// reference for Montgomery::pow that shares nothing with the window scan
// Montgomery::pow and multi_exp both run on.
BigInt bitwise_pow(const Montgomery& mont, const BigInt& base,
                   const BigInt& exp) {
  const Montgomery::LimbVec b = mont.to_mont(base);
  Montgomery::LimbVec acc = mont.one_mont();
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    acc = mont.mont_sqr(acc);
    if (exp.bit(i)) acc = mont.mont_mul(acc, b);
  }
  return mont.from_mont(acc);
}

BigInt set_bits(std::initializer_list<std::size_t> bits) {
  BigInt x;
  for (std::size_t b : bits) x += BigInt(1) << b;
  return x;
}

BigInt ones(std::size_t n) { return (BigInt(1) << n) - BigInt(1); }

struct ShapeCase {
  const char* name;
  std::vector<BigInt> exps;
};

// Exponent shapes the limb-level window schedule must get right, around
// L-bit chunks (L a multiple of 64, as the ladder cuts them).
std::vector<ShapeCase> schedule_shapes(std::size_t L, Rng64& rng) {
  std::vector<ShapeCase> cases;
  // A lone set bit just below, at and just above each limb boundary.
  for (const std::size_t j : {std::size_t{1}, std::size_t{2}, L / 64}) {
    cases.push_back({"single bit at a limb boundary",
                     {BigInt(1) << (64 * j - 1), BigInt(1) << (64 * j),
                      BigInt(1) << (64 * j + 1)}});
  }
  // Two bits 3 apart across each boundary: one window (w >= 4) holds both.
  std::vector<BigInt> straddle;
  for (std::size_t j = 1; 64 * j + 1 < L - 1; ++j) {
    straddle.push_back(set_bits({L - 1, 64 * j + 1, 64 * j - 2}));
  }
  cases.push_back({"windows straddling limb boundaries", straddle});
  cases.push_back({"long zero runs",
                   {set_bits({L - 1, 0}), set_bits({L - 1, L / 2, 1}),
                    (random_bits(rng, 70) << (L - 70)) + BigInt(5)}});
  cases.push_back({"all-ones chunks",
                   {ones(L), ones(64), ones(130), ones(L - 1)}});
  cases.push_back({"zero exponents beside nonzero ones",
                   {BigInt(0), random_bits(rng, L), BigInt(0), BigInt(0),
                    random_bits(rng, L / 2), BigInt(0)}});
  cases.push_back({"top bits below the window width",
                   {random_bits(rng, L), BigInt(1), BigInt(2), BigInt(3),
                    BigInt(5), BigInt(7), BigInt(12)}});
  cases.push_back({"a last chunk longer than L",
                   {random_bits(rng, L), random_bits(rng, L),
                    random_bits(rng, L), random_bits(rng, 2 * L + 37)}});
  return cases;
}

// k = 16 limbs runs the IFMA kernel where the host has it, else MULX/ADX;
// 8 and 4 limbs run MULX/ADX where the host has it; 6 limbs (384 bits) has
// no fixed-width kernel, so it always runs the portable ones.
class MultiExpScheduleTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MultiExpScheduleTest, ShapesMatchFoldOfPowAtEveryThreadCount) {
  SplitMix64 gen(0x5c4ed + GetParam());
  Rng64Adapter rng(gen);
  const std::size_t limbs = GetParam();
  const BigInt n = (BigInt(1) << (64 * limbs - 1)) +
                   random_bits(rng, 64 * limbs - 2) * BigInt(2) + BigInt(1);
  const Montgomery mont(n);
  ASSERT_EQ(n.limbs().size(), limbs);
  // An IFMA context's residues are 20 digits of 52 bits.
  ASSERT_EQ(mont.limb_count(), std::string(mont.kernel_name()) == "ifma"
                                   ? detail::kIfmaDigits
                                   : limbs);
  for (const std::size_t L : {std::size_t{192}, std::size_t{1088}}) {
    for (const ShapeCase& c : schedule_shapes(L, rng)) {
      std::vector<BigInt> bases(c.exps.size());
      for (auto& b : bases) b = random_below(rng, n);
      for (std::size_t i = 0; i < bases.size(); ++i) {
        ASSERT_EQ(mont.pow(bases[i], c.exps[i]),
                  bitwise_pow(mont, bases[i], c.exps[i]))
            << c.name << ", exponent " << i;
      }
      const BigInt want = fold_of_pow(mont, bases, c.exps);
      for (const std::size_t t : {1u, 2u, 3u, 4u}) {
        EXPECT_EQ(multi_exp(mont, bases, c.exps, t), want)
            << c.name << ", L=" << L << ", threads " << t;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Limbs, MultiExpScheduleTest,
                         ::testing::Values(std::size_t{16}, std::size_t{8},
                                           std::size_t{4}, std::size_t{6}),
                         [](const auto& info) {
                           return "K" + std::to_string(info.param);
                         });

TEST(MultiExpTest, LadderChunkWindowsMatchFoldOfPow) {
  // One 4-thread chunk of the 64 KB ladder (eight rungs of L = 16,448
  // bits, the top one longer), where the cost model picks w = 9: 2^8-entry
  // tables on every base.
  const BigInt n = fixture_modulus(512);
  const Montgomery mont(n);
  SplitMix64 gen(0x16448);
  Rng64Adapter rng(gen);
  const std::size_t L = 16448;
  ASSERT_EQ(detail::pow_window_bits(L), 9u);
  std::vector<BigInt> bases(8), exps(8);
  for (std::size_t i = 0; i < bases.size(); ++i) {
    bases[i] = random_below(rng, n);
    exps[i] = random_bits(rng, i + 1 == bases.size() ? L + 700 : L);
  }
  const BigInt want = fold_of_pow(mont, bases, exps);
  for (const std::size_t t : {1u, 2u, 3u, 4u}) {
    EXPECT_EQ(multi_exp(mont, bases, exps, t), want) << "threads " << t;
  }
}

TEST(MultiExpTest, EmptyInputIsOne) {
  const Montgomery mont(BigInt(101));
  EXPECT_EQ(multi_exp(mont, {}, {}), BigInt(1));
}

TEST(MultiExpTest, RejectsBadArguments) {
  const Montgomery mont(BigInt(101));
  EXPECT_THROW(multi_exp(mont, {BigInt(2)}, {}), ParamError);
  EXPECT_THROW(multi_exp(mont, {BigInt(2)}, {BigInt(-1)}), ParamError);
}

TEST(MultiExpTest, MontProductMatchesSerialFold) {
  const BigInt n = fixture_modulus(256);
  const Montgomery mont(n);
  SplitMix64 gen(31);
  Rng64Adapter rng(gen);
  for (std::size_t k : {std::size_t{1}, std::size_t{5}, std::size_t{64}}) {
    std::vector<BigInt> values(k);
    BigInt want(1);
    for (auto& v : values) {
      v = random_below(rng, n);
      want = mont.mul(want, v);
    }
    for (std::size_t t : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                          std::size_t{0}}) {
      EXPECT_EQ(mont_product(mont, values, t), want) << "k=" << k;
    }
  }
  EXPECT_EQ(mont_product(mont, {}), BigInt(1));
}

TEST(MultiExpTest, MontSqrMatchesMontMul) {
  SplitMix64 gen(32);
  Rng64Adapter rng(gen);
  for (std::size_t bits : {std::size_t{128}, std::size_t{256},
                           std::size_t{512}}) {
    const BigInt n = fixture_modulus(bits);
    const Montgomery mont(n);
    for (int i = 0; i < 25; ++i) {
      const auto a = mont.to_mont(random_below(rng, n));
      EXPECT_EQ(mont.mont_sqr(a), mont.mont_mul(a, a));
    }
    // Degenerate residues: 0 and the Montgomery unit.
    const Montgomery::LimbVec zero(mont.limb_count(), 0);
    EXPECT_EQ(mont.mont_sqr(zero), mont.mont_mul(zero, zero));
    EXPECT_EQ(mont.mont_sqr(mont.one_mont()),
              mont.mont_mul(mont.one_mont(), mont.one_mont()));
  }
  // Odd limb count (k = 3): keeps the portable squaring kernel covered on
  // CPUs where the 4-, 8- and 16-limb moduli dispatch to the fixed-width
  // ADX kernels.
  const BigInt n3 = (BigInt(1) << 190) + BigInt(111);
  const Montgomery mont3(n3);
  ASSERT_EQ(mont3.limb_count(), 3u);
  for (int i = 0; i < 25; ++i) {
    const auto a = mont3.to_mont(random_below(rng, n3));
    EXPECT_EQ(mont3.mont_sqr(a), mont3.mont_mul(a, a));
    EXPECT_EQ(mont3.from_mont(mont3.mont_sqr(a)),
              mont3.from_mont(a) * mont3.from_mont(a) % n3);
  }
}

TEST(MultiExpTest, SqrIntoAllowsAliasedOutput) {
  const BigInt n = fixture_modulus(256);
  const Montgomery mont(n);
  SplitMix64 gen(33);
  Rng64Adapter rng(gen);
  auto a = mont.to_mont(random_below(rng, n));
  const auto want = mont.mont_sqr(a);
  std::vector<Montgomery::Limb> scratch(mont.scratch_limbs());
  mont.sqr_into(a.data(), a.data(), scratch.data());  // out aliases input
  EXPECT_EQ(a, want);
}

TEST(MultiExpTest, SharedContextReturnsSameInstance) {
  const BigInt n = fixture_modulus(128);
  const auto a = Montgomery::shared(n);
  const auto b = Montgomery::shared(n);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->modulus(), n);
  // A different modulus gets a different context.
  EXPECT_NE(Montgomery::shared(BigInt(101)).get(), a.get());
}

TEST(MultiExpTest, SharedContextConcurrentAccess) {
  const BigInt n = fixture_modulus(256);
  SplitMix64 gen(34);
  Rng64Adapter rng(gen);
  const BigInt base = random_below(rng, n);
  const BigInt exp = random_bits(rng, 200);
  const BigInt want = Montgomery(n).pow(base, exp);
  std::vector<std::thread> workers;
  std::vector<int> ok(8, 0);
  for (int w = 0; w < 8; ++w) {
    workers.emplace_back([&, w] {
      const auto mont = Montgomery::shared(n);
      ok[w] = mont->pow(base, exp) == want ? 1 : 0;
    });
  }
  for (auto& t : workers) t.join();
  for (int w = 0; w < 8; ++w) EXPECT_EQ(ok[w], 1) << "worker " << w;
}

}  // namespace
}  // namespace ice::bn
