// End-to-end PIR tests: encode -> two servers respond -> decode recovers
// exactly the requested tags, through each evaluator (the fused engine and
// both per-point references), across database sizes and tag widths; plus
// the query-privacy distribution property (Theorem 8).
#include <gtest/gtest.h>

#include <array>
#include <map>

#include "bignum/random.h"
#include "common/error.h"
#include "common/rng.h"
#include "pir/client.h"
#include "pir/server.h"
#include "support/pir_planes.h"

namespace ice::pir {
namespace {

/// Which evaluator answers: the per-point references looped over the
/// query, or the fused engine.
enum class Evaluator { kNaive, kMatrix, kBitsliced };

struct Params {
  std::size_t n;
  std::size_t tag_bits;
  Evaluator evaluator;
};

std::string evaluator_name(Evaluator e) {
  switch (e) {
    case Evaluator::kNaive: return "Naive";
    case Evaluator::kMatrix: return "Matrix";
    case Evaluator::kBitsliced: return "Bitsliced";
  }
  return "?";
}

PirResponse answer(const PirServer& server, const Bitplanes& planes,
                   Evaluator e, const PirQuery& query, std::size_t tag_bits,
                   std::size_t gamma) {
  if (e == Evaluator::kBitsliced) return server.respond(query);
  std::vector<PirSingleResponse> points;
  for (const auto& q : query.points) {
    points.push_back(e == Evaluator::kNaive ? server.respond_naive(q)
                                            : server.respond_matrix(planes, q));
  }
  return testing::from_elements(points, tag_bits, gamma);
}

class PirRoundTripTest : public ::testing::TestWithParam<Params> {
 protected:
  PirRoundTripTest() : gen_(0xdb + GetParam().n), rng_(gen_) {}
  SplitMix64 gen_;
  bn::Rng64Adapter<SplitMix64> rng_;
};

TEST_P(PirRoundTripTest, RecoversRequestedTags) {
  const auto [n, tag_bits, evaluator] = GetParam();
  TagDatabase db(tag_bits);
  std::vector<bn::BigInt> truth;
  for (std::size_t i = 0; i < n; ++i) {
    truth.push_back(bn::random_bits(rng_, 1 + gen_.below(tag_bits)));
    db.add(truth.back());
  }
  const Embedding emb(n);
  const PirServer s0(db, emb);
  const PirServer s1(db, emb);
  const Bitplanes planes = db.build_planes();
  const PirClient client(emb, tag_bits);

  // Query a batch of random indexes (with repeats allowed).
  std::vector<std::size_t> wanted;
  for (int i = 0; i < 5; ++i) wanted.push_back(gen_.below(n));
  auto enc = client.encode(wanted, rng_);
  const PirResponse r0 =
      answer(s0, planes, evaluator, enc.queries[0], tag_bits, emb.gamma());
  const PirResponse r1 =
      answer(s1, planes, evaluator, enc.queries[1], tag_bits, emb.gamma());
  const auto tags = client.decode(enc.secrets, r0, r1);
  ASSERT_EQ(tags.size(), wanted.size());
  for (std::size_t l = 0; l < wanted.size(); ++l) {
    EXPECT_EQ(tags[l], truth[wanted[l]]) << "index " << wanted[l];
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PirRoundTripTest,
    ::testing::Values(Params{1, 64, Evaluator::kBitsliced},
                      Params{10, 64, Evaluator::kNaive},
                      Params{10, 64, Evaluator::kMatrix},
                      Params{10, 64, Evaluator::kBitsliced},
                      Params{100, 128, Evaluator::kNaive},
                      Params{100, 128, Evaluator::kMatrix},
                      Params{100, 128, Evaluator::kBitsliced},
                      Params{200, 256, Evaluator::kMatrix},
                      Params{200, 256, Evaluator::kBitsliced},
                      Params{500, 1024, Evaluator::kBitsliced},
                      Params{64, 1, Evaluator::kBitsliced},
                      Params{65, 65, Evaluator::kMatrix}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "k" +
             std::to_string(info.param.tag_bits) +
             evaluator_name(info.param.evaluator);
    });

// Random (not client-encoded) points: the two references and the fused
// engine's one-point answer agree on every value and gradient.
TEST(PirStrategiesTest, AllStrategiesAgreeOnResponses) {
  SplitMix64 gen(515);
  bn::Rng64Adapter rng(gen);
  const std::size_t n = 80, k = 96;
  TagDatabase db(k);
  for (std::size_t i = 0; i < n; ++i) db.add(bn::random_bits(rng, k));
  const Embedding emb(n);
  const PirServer server(db, emb);
  const Bitplanes planes = db.build_planes();
  for (int trial = 0; trial < 5; ++trial) {
    PirQuery query;
    query.points.emplace_back(emb.gamma());
    for (auto& v : query.points[0]) {
      v = gf::GF4(static_cast<std::uint8_t>(gen.below(4)));
    }
    const auto a = server.respond_naive(query.points[0]);
    const auto b = server.respond_matrix(planes, query.points[0]);
    const auto c = testing::point_elements(server.respond(query), 0);
    EXPECT_EQ(a.values, b.values);
    EXPECT_EQ(a.values, c.values);
    EXPECT_EQ(a.gradients, b.gradients);
    EXPECT_EQ(a.gradients, c.gradients);
  }
}

TEST(PirClientTest, WrongDimensionQueryRejected) {
  TagDatabase db(32);
  db.add(bn::BigInt(7));
  const Embedding emb(1);
  const PirServer server(db, emb);
  EXPECT_THROW(server.respond_naive(gf::GF4Vector(emb.gamma() + 1)),
               ParamError);
  EXPECT_THROW(
      server.respond_matrix(db.build_planes(), gf::GF4Vector(emb.gamma() + 1)),
      ParamError);
}

TEST(PirClientTest, MalformedResponsesRejected) {
  SplitMix64 gen(9);
  bn::Rng64Adapter rng(gen);
  TagDatabase db(32);
  for (int i = 0; i < 10; ++i) db.add(bn::BigInt(i));
  const Embedding emb(10);
  const PirServer server(db, emb);
  const PirClient client(emb, 32);
  const std::vector<std::size_t> wanted = {3};
  auto enc = client.encode(wanted, rng);
  PirResponse r0 = server.respond(enc.queries[0]);
  PirResponse r1 = server.respond(enc.queries[1]);
  // Count mismatch.
  PirResponse bad = r0;
  bad.shape.points = 0;
  bad.planes.clear();
  EXPECT_THROW(client.decode(enc.secrets, bad, r1), ProtocolError);
  // Bitplane (tag width) mismatch.
  bad = r0;
  bad.shape.tag_bits = 31;
  EXPECT_THROW(client.decode(enc.secrets, bad, r1), ProtocolError);
  // Gradient dimension mismatch.
  bad = r0;
  bad.shape.gamma -= 1;
  bad.planes.resize(bad.shape.stride());
  EXPECT_THROW(client.decode(enc.secrets, r0, bad), ProtocolError);
  // Planes shorter than the shape claims.
  bad = r0;
  bad.planes.pop_back();
  EXPECT_THROW(client.decode(enc.secrets, bad, r1), ProtocolError);
}

TEST(PirClientTest, IndexOutOfRangeRejected) {
  SplitMix64 gen(10);
  bn::Rng64Adapter rng(gen);
  const Embedding emb(10);
  const PirClient client(emb, 32);
  const std::vector<std::size_t> wanted = {10};
  EXPECT_THROW(client.encode(wanted, rng), ParamError);
}

// Theorem 8: each individual query point is uniform on F_4^gamma, so its
// distribution cannot depend on the queried index. We chi-square the first
// coordinate across many encodings of two different indexes.
TEST(PirPrivacyTest, QueryMarginalsLookUniformAndIndexIndependent) {
  SplitMix64 gen(11);
  bn::Rng64Adapter rng(gen);
  const Embedding emb(20);
  const PirClient client(emb, 8);
  const int kTrials = 4000;
  for (std::size_t target : {std::size_t{0}, std::size_t{17}}) {
    std::map<std::uint8_t, int> histogram;
    const std::vector<std::size_t> wanted = {target};
    for (int t = 0; t < kTrials; ++t) {
      auto enc = client.encode(wanted, rng);
      ++histogram[enc.queries[0].points[0][0].value()];
    }
    for (std::uint8_t v = 0; v < 4; ++v) {
      EXPECT_NEAR(histogram[v], kTrials / 4, kTrials / 8)
          << "value " << int{v} << " target " << target;
    }
  }
}

// The two servers' views of the same retrieval are distinct points (they
// cannot individually learn phi(j)) unless z = 0, which is negligible.
TEST(PirPrivacyTest, ServersSeeDifferentPointsAlmostAlways) {
  SplitMix64 gen(12);
  bn::Rng64Adapter rng(gen);
  const Embedding emb(50);
  const PirClient client(emb, 8);
  int identical = 0;
  const std::vector<std::size_t> wanted = {25};
  for (int t = 0; t < 500; ++t) {
    auto enc = client.encode(wanted, rng);
    if (enc.queries[0].points[0] == enc.queries[1].points[0]) ++identical;
  }
  // P[z = 0] = 4^-gamma; with gamma ~ 9 this is ~4e-6.
  EXPECT_EQ(identical, 0);
}

}  // namespace
}  // namespace ice::pir
