// PirClient codec tests: the word-parallel plane decode must agree with a
// plain scalar reference decoder (gf::dot per gradient fold, the full
// M^{-1} solve per bit) on honest and on random answers, and encode must
// draw a deterministic number of RNG words for a given (n, count) — the
// bit pool persists across coordinates and indices, so the draw count is
// exactly ceil(2 * gamma * count / 64).
#include "pir/client.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bignum/random.h"
#include "common/error.h"
#include "common/rng.h"
#include "gf/gf4_matrix.h"
#include "pir/server.h"
#include "pir/tag_database.h"
#include "support/pir_planes.h"

namespace ice::pir {
namespace {

using gf::GF4;
using gf::GF4Matrix;
using gf::GF4Vector;

class CountingRng final : public bn::Rng64 {
 public:
  explicit CountingRng(std::uint64_t seed) : gen_(seed) {}
  std::uint64_t next_u64() override {
    ++calls_;
    return gen_();
  }
  [[nodiscard]] std::size_t calls() const { return calls_; }

 private:
  SplitMix64 gen_;
  std::size_t calls_ = 0;
};

// The interpolation matrix from src/pir/client.cpp, reproduced here so the
// test decodes independently: rows map (c0..c3) to (g(1), g'(1), g(x),
// g'(x)) over GF(4).
GF4Matrix decode_matrix_inverse() {
  return GF4Matrix({
             {1, 1, 1, 1},
             {0, 1, 0, 1},
             {1, 2, 3, 1},
             {0, 1, 0, 3},
         })
      .inverse();
}

// Gathers one plane's gradient vector out of the coordinate-major element
// layout (gradients[j][pi] -> plane vector of length gamma).
GF4Vector plane_gradient(const PirSingleResponse& e, std::size_t pi) {
  GF4Vector g(e.gradients.size());
  for (std::size_t j = 0; j < e.gradients.size(); ++j) {
    g[j] = e.gradients[j][pi];
  }
  return g;
}

// The interpolation inputs u = (g(1), g'(1), g(x), g'(x)) of bitplane pi
// at point l, from the two responses' elements.
GF4Vector interpolation_inputs(const PirSingleResponse& e0,
                               const PirSingleResponse& e1,
                               const GF4Vector& z, std::size_t pi) {
  GF4Vector u(4);
  u[0] = e0.values[pi];
  u[1] = gf::dot(plane_gradient(e0, pi), z);
  u[2] = e1.values[pi];
  u[3] = gf::dot(plane_gradient(e1, pi), z);
  return u;
}

// Element-by-element reference decoder: per plane, both gradient folds via
// the scalar gf::dot, then the full 4x4 interpolation solve. Returns
// nullopt when some decoded c_0 is not a bit.
std::optional<std::vector<bn::BigInt>> scalar_decode(
    const QuerySecrets& secrets, const PirResponse& r0, const PirResponse& r1,
    std::size_t tag_bits) {
  const GF4Matrix m_inv = decode_matrix_inverse();
  std::vector<bn::BigInt> tags;
  for (std::size_t l = 0; l < secrets.indices.size(); ++l) {
    const PirSingleResponse e0 = testing::point_elements(r0, l);
    const PirSingleResponse e1 = testing::point_elements(r1, l);
    std::vector<std::uint64_t> words((tag_bits + 63) / 64);
    for (std::size_t pi = 0; pi < tag_bits; ++pi) {
      const GF4 bit =
          m_inv.mul(interpolation_inputs(e0, e1, secrets.z[l], pi))[0];
      if (bit.value() > 1) return std::nullopt;
      if (bit.value() == 1) {
        words[pi / 64] |= std::uint64_t{1} << (pi % 64);
      }
    }
    tags.push_back(bn::BigInt::from_limbs(words));
  }
  return tags;
}

// Sets value element pi of point l in r.
void set_value(PirResponse& r, std::size_t l, std::size_t pi, GF4 v) {
  const std::size_t w = r.shape.words();
  std::uint64_t* const lo = r.planes.data() + l * r.shape.stride();
  const std::uint64_t bit = std::uint64_t{1} << (pi % 64);
  lo[pi / 64] = (lo[pi / 64] & ~bit) | ((v.value() & 1u) ? bit : 0);
  lo[w + pi / 64] = (lo[w + pi / 64] & ~bit) | ((v.value() & 2u) ? bit : 0);
}

TEST(ClientCodecTest, WordParallelDecodeMatchesScalarReference) {
  // Several n so gamma sweeps odd sizes; tag_bits = 130 exercises the
  // sub-word tail of the word-parallel gradient fold.
  for (std::size_t n : {std::size_t{5}, std::size_t{60}, std::size_t{400}}) {
    SplitMix64 gen(0xdec0de + n);
    bn::Rng64Adapter rng(gen);
    const std::size_t tag_bits = 130;
    TagDatabase db(tag_bits);
    std::vector<bn::BigInt> stored;
    for (std::size_t i = 0; i < n; ++i) {
      stored.push_back(bn::random_bits(rng, tag_bits));
      db.add(stored.back());
    }
    const Embedding emb(n);
    const PirServer server(db, emb);
    const PirClient client(emb, tag_bits);

    std::vector<std::size_t> wanted = {0, n / 2, n - 1, 0};
    const auto enc = client.encode(wanted, rng);
    const PirResponse r0 = server.respond(enc.queries[0]);
    const PirResponse r1 = server.respond(enc.queries[1]);

    const auto fast = client.decode(enc.secrets, r0, r1);
    const auto slow = scalar_decode(enc.secrets, r0, r1, tag_bits);
    ASSERT_TRUE(slow.has_value()) << "n=" << n;
    ASSERT_EQ(fast.size(), wanted.size()) << "n=" << n;
    ASSERT_EQ(slow->size(), wanted.size()) << "n=" << n;
    for (std::size_t l = 0; l < wanted.size(); ++l) {
      EXPECT_EQ(fast[l], (*slow)[l]) << "n=" << n << " point " << l;
      EXPECT_EQ(fast[l], stored[wanted[l]]) << "n=" << n << " point " << l;
    }
  }
}

// Random answers, not a server's: where every decoded c_0 is a bit (r1's
// values chosen per plane to make it one) the plane decode returns the
// reference's tags, and where some c_0 is not a bit both refuse.
TEST(ClientCodecTest, PlaneDecodeMatchesPerBitReferenceOnRandomAnswers) {
  const GF4Matrix m_inv = decode_matrix_inverse();
  for (std::size_t n : {std::size_t{4}, std::size_t{100}, std::size_t{969}}) {
    for (std::size_t tag_bits : {std::size_t{1}, std::size_t{63},
                                 std::size_t{130}, std::size_t{1024}}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " k=" << tag_bits);
      SplitMix64 gen(0x5eed + n * 7 + tag_bits);
      bn::Rng64Adapter rng(gen);
      const Embedding emb(n);
      const PirClient client(emb, tag_bits);
      const std::vector<std::size_t> wanted = {0, n - 1, n / 2};
      const auto enc = client.encode(wanted, rng);
      const PirShape shape{wanted.size(), tag_bits, emb.gamma()};
      const PirResponse r0 = testing::random_response(gen, shape);
      PirResponse r1 = testing::random_response(gen, shape);

      // Fully random: some bit is almost surely not boolean at K > 1, and
      // the plane decode must refuse exactly when the reference does.
      const bool reference_ok =
          scalar_decode(enc.secrets, r0, r1, tag_bits).has_value();
      if (reference_ok) {
        EXPECT_NO_THROW((void)client.decode(enc.secrets, r0, r1));
      } else {
        EXPECT_THROW((void)client.decode(enc.secrets, r0, r1), ProtocolError);
      }

      // Make every c_0 a random bit by choosing F(x)'s element per plane.
      for (std::size_t l = 0; l < wanted.size(); ++l) {
        const PirSingleResponse e0 = testing::point_elements(r0, l);
        const PirSingleResponse e1 = testing::point_elements(r1, l);
        for (std::size_t pi = 0; pi < tag_bits; ++pi) {
          GF4Vector u = interpolation_inputs(e0, e1, enc.secrets.z[l], pi);
          const auto want = static_cast<std::uint8_t>(gen() & 1u);
          bool found = false;
          for (std::uint8_t v = 0; v < 4 && !found; ++v) {
            u[2] = GF4(v);
            if (m_inv.mul(u)[0].value() == want) {
              set_value(r1, l, pi, GF4(v));
              found = true;
            }
          }
          ASSERT_TRUE(found);
        }
      }
      const auto slow = scalar_decode(enc.secrets, r0, r1, tag_bits);
      ASSERT_TRUE(slow.has_value());
      EXPECT_EQ(client.decode(enc.secrets, r0, r1), *slow);
    }
  }
}

// A value bit flipped in a hi plane moves c_0 off {0, 1}, and the plane
// decode refuses it with the same error the per-bit solve raised.
TEST(ClientCodecTest, FlippedHiPlaneValueBitIsRefused) {
  const std::size_t n = 60, tag_bits = 130;
  SplitMix64 gen(0xf11b);
  bn::Rng64Adapter rng(gen);
  TagDatabase db(tag_bits);
  for (std::size_t i = 0; i < n; ++i) db.add(bn::random_bits(rng, tag_bits));
  const Embedding emb(n);
  const PirServer server(db, emb);
  const PirClient client(emb, tag_bits);
  const std::vector<std::size_t> wanted = {5, 17};
  const auto enc = client.encode(wanted, rng);
  const PirResponse r1 = server.respond(enc.queries[1]);
  const std::size_t w = (tag_bits + 63) / 64;
  for (std::size_t pi : {std::size_t{0}, std::size_t{64}, tag_bits - 1}) {
    PirResponse r0 = server.respond(enc.queries[0]);
    // Point 1's value pair: the hi plane starts w words in.
    r0.planes[r0.shape.stride() + w + pi / 64] ^= std::uint64_t{1}
                                                  << (pi % 64);
    try {
      (void)client.decode(enc.secrets, r0, r1);
      ADD_FAILURE() << "pi=" << pi << ": expected ProtocolError";
    } catch (const ProtocolError& e) {
      EXPECT_NE(std::string(e.what()).find("non-boolean decoded bit"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ClientCodecTest, DecodeRejectsSecretDimensionMismatch) {
  const std::size_t n = 10, tag_bits = 8;
  SplitMix64 gen(0x9a);
  bn::Rng64Adapter rng(gen);
  TagDatabase db(tag_bits);
  for (std::size_t i = 0; i < n; ++i) db.add(bn::random_bits(rng, tag_bits));
  const Embedding emb(n);
  const PirServer server(db, emb);
  const PirClient client(emb, tag_bits);
  std::vector<std::size_t> wanted = {1};
  auto enc = client.encode(wanted, rng);
  const PirResponse r0 = server.respond(enc.queries[0]);
  const PirResponse r1 = server.respond(enc.queries[1]);
  enc.secrets.z[0].push_back(GF4::one());  // corrupt the secret's dimension
  EXPECT_THROW(client.decode(enc.secrets, r0, r1), ProtocolError);
}

TEST(ClientCodecTest, EncodeDrawsDeterministicRngWordCount) {
  // The z pool persists across coordinates and indices and refills keep the
  // leftover bit, so encode consumes exactly ceil(2 * gamma * count / 64)
  // words — independent of which indices are requested.
  for (std::size_t n : {std::size_t{4}, std::size_t{100}, std::size_t{2000}}) {
    const Embedding emb(n);
    const PirClient client(emb, 64);
    const std::size_t gamma = emb.gamma();
    for (std::size_t count :
         {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{32}}) {
      const std::size_t expected = (2 * gamma * count + 63) / 64;
      for (std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{99}}) {
        CountingRng rng(seed);
        std::vector<std::size_t> wanted(count);
        for (std::size_t l = 0; l < count; ++l) {
          wanted[l] = (l * 7 + static_cast<std::size_t>(seed)) % n;
        }
        [[maybe_unused]] const auto enc = client.encode(wanted, rng);
        EXPECT_EQ(rng.calls(), expected)
            << "n=" << n << " gamma=" << gamma << " count=" << count;
      }
    }
  }
}

TEST(ClientCodecTest, EncodeStillRoundTripsAfterPoolRefactor) {
  // Guard that the pooled bit draws still produce valid uniform-looking
  // secrets: full retrieval round-trip at a gamma where 2*gamma does not
  // divide 64, forcing mid-word refills that keep a leftover bit.
  const std::size_t n = 969;  // gamma = 19 -> 38 bits per z vector
  SplitMix64 gen(0x600d);
  bn::Rng64Adapter rng(gen);
  const std::size_t tag_bits = 48;
  TagDatabase db(tag_bits);
  std::vector<bn::BigInt> stored;
  for (std::size_t i = 0; i < n; ++i) {
    stored.push_back(bn::random_bits(rng, tag_bits));
    db.add(stored.back());
  }
  const Embedding emb(n);
  ASSERT_NE((2 * emb.gamma()) % 64, 0u);
  const PirServer server(db, emb);
  const PirClient client(emb, tag_bits);
  std::vector<std::size_t> wanted = {0, 17, 501, 968, 17};
  const auto enc = client.encode(wanted, rng);
  const auto tags = client.decode(enc.secrets, server.respond(enc.queries[0]),
                                  server.respond(enc.queries[1]));
  ASSERT_EQ(tags.size(), wanted.size());
  for (std::size_t l = 0; l < wanted.size(); ++l) {
    EXPECT_EQ(tags[l], stored[wanted[l]]) << "point " << l;
  }
}

}  // namespace
}  // namespace ice::pir
