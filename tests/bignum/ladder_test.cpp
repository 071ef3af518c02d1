// Differential tests pinning the power ladder to the single pow: for every
// rung count, thread count and exponent shape, ladder_pow over an honest
// ladder must equal Montgomery::pow(base, exp) bit for bit, and every built
// rung must equal pow(base, 2^{i·L}).
#include "bignum/ladder.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bignum/random.h"
#include "common/error.h"
#include "common/rng.h"
#include "support/fixtures.h"

namespace ice::bn {
namespace {

BigInt modulus_512() {
  return BigInt::from_hex(std::string(testing::kSafePrime512[0])) *
         BigInt::from_hex(std::string(testing::kSafePrime512[1]));
}

TEST(LadderTest, WidthIsTheLimbAlignedCeiling) {
  EXPECT_EQ(ladder_width(0, 16), 64u);
  EXPECT_EQ(ladder_width(1, 16), 64u);
  EXPECT_EQ(ladder_width(1024, 16), 64u);
  EXPECT_EQ(ladder_width(1025, 16), 128u);
  // The 64 KB proof exponent at |N| = 1024: 8·65536 + 64 + 64 + 1024 bits.
  EXPECT_EQ(ladder_width(525440, 16), 32896u);
  EXPECT_EQ(ladder_width(525440, 1), 525440u);
  EXPECT_THROW((void)ladder_width(100, 0), ParamError);
}

TEST(LadderTest, BuiltRungsAreRepeatedSquares) {
  const BigInt n = modulus_512();
  const Montgomery mont(n);
  SplitMix64 gen(0x1add);
  Rng64Adapter rng(gen);
  const BigInt base = random_below(rng, n);
  for (const std::size_t width : {std::size_t{64}, std::size_t{192}}) {
    const Ladder ladder = build_ladder(mont, base, 16, width);
    ASSERT_EQ(ladder.count(), 16u);
    EXPECT_EQ(ladder.width, width);
    for (std::size_t i = 1; i < ladder.count(); ++i) {
      EXPECT_EQ(ladder.rungs[i - 1], mont.pow(base, BigInt(1) << (i * width)))
          << "rung " << i << " at width " << width;
    }
  }
  EXPECT_TRUE(build_ladder(mont, base, 1, 64).rungs.empty());
}

TEST(LadderTest, ChunksReassembleTheExponent) {
  SplitMix64 gen(0xc4c4);
  Rng64Adapter rng(gen);
  std::vector<BigInt> chunks;
  for (const std::size_t bits : {0u, 1u, 63u, 64u, 700u, 1024u, 3000u}) {
    const BigInt exp = bits == 0 ? BigInt(0) : random_bits(rng, bits);
    ladder_chunks(exp, 8, 128, chunks);
    ASSERT_EQ(chunks.size(), 8u);
    BigInt sum(0);
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      if (i + 1 < chunks.size()) {
        EXPECT_LE(chunks[i].bit_length(), 128u);
      }
      sum += chunks[i] << (i * 128);
    }
    EXPECT_EQ(sum, exp) << bits << " bits";
  }
  // The last chunk takes every bit above (count - 1)·width.
  const BigInt long_exp = random_bits(rng, 8 * 128 + 500);
  ladder_chunks(long_exp, 8, 128, chunks);
  EXPECT_EQ(chunks.back(), long_exp >> (7 * 128));
}

// The exactness matrix: c in {1, 2, 16, 64, 256}, parallelism in
// {1, 2, 7, hardware}, and exponents that are a multiple of c·L, not a
// multiple, shorter than c bits, longer than c·L, 0 and 1.
TEST(LadderTest, LadderPowMatchesPowAcrossRungsThreadsAndShapes) {
  const BigInt n = modulus_512();
  const Montgomery mont(n);
  SplitMix64 gen(0x1ad0);
  Rng64Adapter rng(gen);
  const BigInt base = random_below(rng, n);
  constexpr std::size_t kWidth = 64;
  const std::size_t threads[] = {1, 2, 7, 0};  // 0 = hardware concurrency
  for (const std::size_t c : {1u, 2u, 16u, 64u, 256u}) {
    const Ladder ladder = build_ladder(mont, base, c, kWidth);
    const std::size_t span = c * kWidth;
    // |E| = c·L exactly, with an all-zero low chunk.
    const BigInt multiple = (random_bits(rng, span) >> kWidth) << kWidth;
    const std::vector<BigInt> exps = {
        multiple,
        random_bits(rng, span - 37),              // not a multiple of c·L
        random_bits(rng, c > 2 ? c - 1 : 1),      // |E| < c
        random_bits(rng, span + 3 * kWidth + 5),  // |E| > c·L
        BigInt(0),
        BigInt(1),
    };
    for (const BigInt& exp : exps) {
      const BigInt expected = mont.pow(base, exp);
      for (const std::size_t t : threads) {
        EXPECT_EQ(ladder_pow(mont, base, ladder, exp, t), expected)
            << "c=" << c << " |E|=" << exp.bit_length() << " threads=" << t;
      }
    }
  }
}

TEST(LadderTest, RejectsBadWidthsAndNegativeExponents) {
  const BigInt n = modulus_512();
  const Montgomery mont(n);
  const BigInt base(5);
  EXPECT_THROW((void)build_ladder(mont, base, 2, 0), ParamError);
  EXPECT_THROW((void)build_ladder(mont, base, 2, 65), ParamError);
  Ladder ladder = build_ladder(mont, base, 2, 64);
  EXPECT_THROW((void)ladder_pow(mont, base, ladder, BigInt(-3)), ParamError);
  EXPECT_THROW((void)ladder_pow(mont, base, Ladder{}, BigInt(-3)),
               ParamError);
  for (const std::size_t width : {std::size_t{0}, std::size_t{96}}) {
    ladder.width = width;
    EXPECT_THROW((void)ladder_pow(mont, base, ladder, BigInt(7)), ParamError)
        << width;
  }
  std::vector<BigInt> chunks;
  EXPECT_THROW(ladder_chunks(BigInt(7), 0, 64, chunks), ParamError);
  // A width far past any exponent only yields empty upper chunks.
  ladder_chunks(BigInt(7), 4, std::size_t{1} << 62, chunks);
  EXPECT_EQ(chunks[0], BigInt(7));
  EXPECT_TRUE(chunks[3].is_zero());
}

}  // namespace
}  // namespace ice::bn
