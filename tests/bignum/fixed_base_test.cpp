// Differential tests for the Lim-Lee fixed-base comb: FixedBase::pow must
// equal Montgomery::pow bit for bit at every exponent length, including
// past the comb's declared capacity (generic fallback) and through the
// per-context cache (a comb per size class, concurrent lookups).
#include "bignum/fixed_base.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "bignum/montgomery.h"
#include "bignum/random.h"
#include "common/rng.h"
#include "support/fixtures.h"

namespace ice::bn {
namespace {

BigInt fixture_modulus(std::size_t bits) {
  switch (bits) {
    case 128:
      return BigInt::from_hex(std::string(testing::kSafePrime128[2])) *
             BigInt::from_hex(std::string(testing::kSafePrime128[3]));
    case 256:
      return BigInt::from_hex(std::string(testing::kSafePrime256[2])) *
             BigInt::from_hex(std::string(testing::kSafePrime256[3]));
    default:
      return BigInt::from_hex(std::string(testing::kSafePrime512[2])) *
             BigInt::from_hex(std::string(testing::kSafePrime512[3]));
  }
}

class FixedBaseDifferentialTest
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FixedBaseDifferentialTest, PowMatchesMontgomeryPow) {
  const BigInt n = fixture_modulus(GetParam());
  const Montgomery mont(n);
  SplitMix64 gen(4000 + GetParam());
  Rng64Adapter rng(gen);
  const BigInt g = random_unit(rng, n);
  const FixedBase comb(mont, g, /*max_exp_bits=*/n.bit_length());

  for (std::size_t bits :
       {std::size_t{1}, std::size_t{17}, std::size_t{64}, std::size_t{65},
        std::size_t{200}, n.bit_length() - 1, n.bit_length()}) {
    for (int i = 0; i < 5; ++i) {
      const BigInt e = random_bits(rng, bits);
      EXPECT_EQ(comb.pow(e), mont.pow(g, e)) << "bits=" << bits;
    }
  }
}

TEST_P(FixedBaseDifferentialTest, EdgeExponentsAndBases) {
  const BigInt n = fixture_modulus(GetParam());
  const Montgomery mont(n);
  SplitMix64 gen(5000 + GetParam());
  Rng64Adapter rng(gen);

  const BigInt g = random_unit(rng, n);
  const FixedBase comb(mont, g, 256);
  EXPECT_EQ(comb.pow(BigInt(0)), BigInt(1));
  EXPECT_EQ(comb.pow(BigInt(1)), mont.reduce(g));
  EXPECT_EQ(comb.pow(BigInt(2)), mont.mul(g, g));
  // Single set bit at every tooth boundary region.
  for (std::size_t b : {std::size_t{0}, std::size_t{42}, std::size_t{255}}) {
    const BigInt e = BigInt(1) << b;
    EXPECT_EQ(comb.pow(e), mont.pow(g, e)) << "bit=" << b;
  }

  // Base 1 and base 0 are degenerate but must still agree.
  const FixedBase one(mont, BigInt(1), 128);
  EXPECT_EQ(one.pow(random_bits(rng, 100)), BigInt(1));
  const FixedBase zero(mont, BigInt(0), 128);
  EXPECT_EQ(zero.pow(BigInt(5)), BigInt(0));
  EXPECT_EQ(zero.pow(BigInt(0)), BigInt(1));
}

TEST_P(FixedBaseDifferentialTest, OverCapacityFallsBackToGenericPow) {
  const BigInt n = fixture_modulus(GetParam());
  const Montgomery mont(n);
  SplitMix64 gen(6000 + GetParam());
  Rng64Adapter rng(gen);
  const BigInt g = random_unit(rng, n);
  const FixedBase comb(mont, g, 128);
  const BigInt e = random_bits(rng, comb.capacity_bits() + 321);
  EXPECT_EQ(comb.pow(e), mont.pow(g, e));
}

INSTANTIATE_TEST_SUITE_P(ModulusBits, FixedBaseDifferentialTest,
                         ::testing::Values(std::size_t{128}, std::size_t{256},
                                           std::size_t{512}));

TEST(FixedBaseCacheTest, ContextCachesAndRebuildsBigger) {
  const BigInt n = fixture_modulus(256);
  const auto mont = Montgomery::shared(n);
  SplitMix64 gen(60);
  Rng64Adapter rng(gen);
  const BigInt g = random_unit(rng, n);

  const auto small = mont->fixed_base(g, 100);
  EXPECT_GE(small->capacity_bits(), 100u);
  // Same base, capacity already covered: same handle.
  EXPECT_EQ(mont->fixed_base(g, 50).get(), small.get());
  // Longer exponent shows up: the cache rebuilds bigger, and the old handle
  // stays usable.
  const auto big = mont->fixed_base(g, small->capacity_bits() + 1);
  EXPECT_NE(big.get(), small.get());
  EXPECT_GT(big->capacity_bits(), small->capacity_bits());
  const BigInt e = random_bits(rng, 90);
  EXPECT_EQ(small->pow(e), big->pow(e));
  // Cache keys on the reduced base value.
  EXPECT_EQ(mont->fixed_base(g + n, 50)->pow(e), big->pow(e));
}

TEST(FixedBaseCacheTest, TagGenShapedExponents) {
  // The TagGen workload: block-sized exponents far longer than the modulus.
  const BigInt n = fixture_modulus(512);
  const Montgomery mont(n);
  SplitMix64 gen(61);
  Rng64Adapter rng(gen);
  const BigInt g = random_unit(rng, n);
  const FixedBase comb(mont, g, 4096);
  for (int i = 0; i < 3; ++i) {
    const BigInt e = random_bits(rng, 4000 + 17 * i);
    EXPECT_EQ(comb.pow(e), mont.pow(g, e));
  }
}

TEST(FixedBaseCacheTest, ConcurrentLookupsAgree) {
  const BigInt n = fixture_modulus(256);
  const auto mont = Montgomery::shared(n);
  SplitMix64 gen(62);
  Rng64Adapter rng(gen);
  const BigInt g = random_unit(rng, n);
  const BigInt e = random_bits(rng, 300);
  const BigInt want = mont->pow(g, e);
  std::vector<std::thread> workers;
  std::vector<int> ok(8, 0);
  for (int w = 0; w < 8; ++w) {
    workers.emplace_back([&, w] {
      // Mixed capacities force cache hits, misses, and rebuilds to race.
      const auto comb = mont->fixed_base(g, 128 + 64 * (w % 4));
      ok[w] = comb->pow(e) == want ? 1 : 0;
    });
  }
  for (auto& t : workers) t.join();
  for (int w = 0; w < 8; ++w) EXPECT_EQ(ok[w], 1) << "worker " << w;
}

// Key setup looks the |N|-sized comb up eagerly: after that, the first
// hot-path lookup of (context, base) is a cache hit instead of a whole
// table build — the first-audit latency cliff the lazy path used to pay.
TEST(FixedBaseCacheTest, WarmEagerlyBuildsAndCachesTheComb) {
  const BigInt n = fixture_modulus(128);
  const Montgomery mont(n);
  SplitMix64 gen(63);
  Rng64Adapter rng(gen);
  const BigInt g = random_unit(rng, n);

  ASSERT_EQ(mont.fixed_base_cache_size(), 0u);
  const auto comb = mont.fixed_base(g, n.bit_length());
  EXPECT_EQ(mont.fixed_base_cache_size(), 1u);
  EXPECT_GE(comb->capacity_bits(), n.bit_length());

  // Steady state immediately: same handle, no rebuild, correct powers.
  EXPECT_EQ(mont.fixed_base(g, n.bit_length()).get(), comb.get());
  EXPECT_EQ(mont.fixed_base_cache_size(), 1u);
  const BigInt e = random_bits(rng, n.bit_length());
  EXPECT_EQ(comb->pow(e), mont.pow(g, e));

  // Idempotent: looking up again is a hit, not a second table.
  EXPECT_EQ(mont.fixed_base(g, n.bit_length()).get(), comb.get());
  EXPECT_EQ(mont.fixed_base_cache_size(), 1u);
}

// pow walks every column of a comb: after TagGen has cached a block-sized
// comb for g (a 64 KB block here), a modulus-sized g^s must get a comb of
// its own size, not a block-long chain.
TEST(FixedBaseCacheTest, ModulusSizedExponentGetsItsOwnComb) {
  const BigInt n = fixture_modulus(256);
  const Montgomery mont(n);
  SplitMix64 gen(64);
  Rng64Adapter rng(gen);
  const BigInt g = random_unit(rng, n);

  const auto block = mont.fixed_base(g, 8 * 65536);
  ASSERT_GE(block->capacity_bits(), 8u * 65536);
  const auto small = mont.fixed_base(g, n.bit_length());
  const std::size_t rounded = (n.bit_length() + 255) / 256 * 256;
  EXPECT_GE(small->capacity_bits(), n.bit_length());
  EXPECT_LE(small->capacity_bits(), 2 * rounded);
  EXPECT_EQ(mont.fixed_base_cache_size(), 2u);
  // Both stay cached: each size class is a hit from now on.
  EXPECT_EQ(mont.fixed_base(g, 8 * 65536).get(), block.get());
  EXPECT_EQ(mont.fixed_base(g, n.bit_length()).get(), small.get());
  for (int i = 0; i < 5; ++i) {
    const BigInt e = random_bits(rng, n.bit_length());
    EXPECT_EQ(small->pow(e), mont.pow(g, e));
    EXPECT_EQ(block->pow(e), mont.pow(g, e));
  }
}

}  // namespace
}  // namespace ice::bn
