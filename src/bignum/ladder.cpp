#include "bignum/ladder.h"

#include <algorithm>

#include "bignum/multiexp.h"
#include "common/error.h"

namespace ice::bn {

namespace {

constexpr std::size_t kLimbBits = BigInt::kLimbBits;

void require_width(std::size_t width, const char* where) {
  if (width == 0 || width % kLimbBits != 0) {
    throw ParamError(std::string(where) +
                     ": rung width must be a positive multiple of 64");
  }
}

}  // namespace

std::size_t ladder_width(std::size_t max_exp_bits, std::size_t count) {
  if (count == 0) throw ParamError("ladder_width: zero rungs");
  const std::size_t bits = (max_exp_bits + count - 1) / count;
  return std::max<std::size_t>(1, (bits + kLimbBits - 1) / kLimbBits) *
         kLimbBits;
}

Ladder build_ladder(const Montgomery& mont, const BigInt& base,
                    std::size_t count, std::size_t width) {
  Ladder ladder;
  if (count <= 1) return ladder;
  require_width(width, "build_ladder");
  ladder.width = width;
  ladder.rungs.reserve(count - 1);
  Montgomery::LimbVec acc = mont.to_mont(base);
  Montgomery::LimbVec scratch(mont.scratch_limbs());
  for (std::size_t i = 1; i < count; ++i) {
    for (std::size_t s = 0; s < width; ++s) {
      mont.sqr_into(acc.data(), acc.data(), scratch.data());
    }
    ladder.rungs.push_back(mont.from_mont(acc));
  }
  return ladder;
}

void ladder_chunks(const BigInt& exp, std::size_t count, std::size_t width,
                   std::vector<BigInt>& out) {
  require_width(width, "ladder_chunks");
  if (count == 0) throw ParamError("ladder_chunks: zero rungs");
  const LimbBuf& limbs = exp.limbs();
  const std::size_t n = limbs.size();
  const std::size_t per = width / kLimbBits;
  out.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    // i > n / per means i·per > n, without forming a product that could
    // overflow for a hostile width.
    const std::size_t begin = i > n / per ? n : i * per;
    const std::size_t end =
        i + 1 == count || i + 1 > n / per ? n : (i + 1) * per;
    out[i].assign_limbs(limbs.data() + begin, end - begin);
  }
}

BigInt ladder_pow(const Montgomery& mont, const BigInt& base,
                  const Ladder& ladder, const BigInt& exp,
                  std::size_t parallelism) {
  if (exp.is_negative()) throw ParamError("ladder_pow: negative exponent");
  if (ladder.rungs.empty()) return mont.pow(base, exp);
  require_width(ladder.width, "ladder_pow");
  std::vector<BigInt> bases;
  bases.reserve(ladder.count());
  bases.push_back(base);
  bases.insert(bases.end(), ladder.rungs.begin(), ladder.rungs.end());
  std::vector<BigInt> chunks;
  ladder_chunks(exp, ladder.count(), ladder.width, chunks);
  return multi_exp(mont, bases, chunks, parallelism);
}

}  // namespace ice::bn
