// Differential tests for the fused multi-query evaluation engine: at every
// parallelism setting and batch size, PirServer::respond must be
// bit-identical to looping a per-point reference over the points — on both
// servers' query distributions (tau = 0 queries phi + z, tau = 1 queries
// phi + x*z) and under every SIMD tier this CPU supports. The first part of
// each case name says what the fused answer is pinned to:
//   Naive     — respond_naive, the term-by-term reference;
//   Matrix    — respond_matrix over planes built from the same rows, the
//               paper's matrix representation;
//   Bitsliced — the fused engine's own answer to each point asked alone,
//               so batching and point tiling cannot move any point's bits.
#include <gtest/gtest.h>

#include <vector>

#include "bignum/random.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/simd.h"
#include "pir/client.h"
#include "pir/server.h"

namespace ice::pir {
namespace {

enum class Reference { kNaive, kMatrix, kBitsliced };

struct Case {
  Reference reference;
  std::size_t parallelism;
  std::size_t m;
};

std::string reference_name(Reference r) {
  switch (r) {
    case Reference::kNaive: return "Naive";
    case Reference::kMatrix: return "Matrix";
    case Reference::kBitsliced: return "Bitsliced";
  }
  return "?";
}

PirSingleResponse reference_response(const PirServer& server,
                                     const Bitplanes& planes, Reference r,
                                     const gf::GF4Vector& q) {
  switch (r) {
    case Reference::kNaive: return server.respond_naive(q);
    case Reference::kMatrix: return server.respond_matrix(planes, q);
    case Reference::kBitsliced: break;
  }
  PirQuery one;
  one.points.push_back(q);
  return server.respond(one).entries.at(0);
}

/// Restores the dispatched XOR tier when a test leaves, even on a failed
/// ASSERT.
class TierGuard {
 public:
  TierGuard() : original_(simd::active_kernels().tier) {}
  ~TierGuard() { simd::set_active_tier(original_); }

 private:
  simd::XorTier original_;
};

std::vector<simd::XorTier> supported_tiers() {
  std::vector<simd::XorTier> tiers;
  for (simd::XorTier tier : {simd::XorTier::kPortable, simd::XorTier::kAvx2,
                             simd::XorTier::kAvx512}) {
    if (simd::tier_supported(tier)) tiers.push_back(tier);
  }
  return tiers;
}

class PirBatchDiffTest : public ::testing::TestWithParam<Case> {
 protected:
  static constexpr std::size_t kN = 150;
  static constexpr std::size_t kTagBits = 96;
};

TEST_P(PirBatchDiffTest, FusedRespondMatchesLoopedRespondOne) {
  const auto [reference, parallelism, m] = GetParam();
  SplitMix64 gen(0xba7c + m * 31 + parallelism);
  bn::Rng64Adapter rng(gen);
  TagDatabase db(kTagBits);
  for (std::size_t i = 0; i < kN; ++i) {
    db.add(bn::random_bits(rng, 1 + gen.below(kTagBits)));
  }
  const Embedding emb(kN);
  const PirServer server(db, emb, parallelism);
  const Bitplanes planes = db.build_planes();
  const PirClient client(emb, kTagBits);

  // Realistic query distributions: what each of the two TPAs actually sees
  // for an m-point retrieval.
  std::vector<std::size_t> wanted;
  for (std::size_t l = 0; l < m; ++l) wanted.push_back(gen.below(kN));
  const auto enc = client.encode(wanted, rng);

  const TierGuard guard;
  for (std::size_t tau = 0; tau < PirClient::kNumServers; ++tau) {
    const PirQuery& query = enc.queries[tau];
    simd::set_active_tier(simd::XorTier::kPortable);
    std::vector<PirSingleResponse> refs;
    for (const auto& q : query.points) {
      refs.push_back(reference_response(server, planes, reference, q));
    }
    for (simd::XorTier tier : supported_tiers()) {
      simd::set_active_tier(tier);
      const PirResponse fused = server.respond(query);
      ASSERT_EQ(fused.entries.size(), m) << "tau=" << tau;
      for (std::size_t l = 0; l < m; ++l) {
        EXPECT_EQ(fused.entries[l].values, refs[l].values)
            << simd::tier_name(tier) << " tau=" << tau << " point " << l;
        EXPECT_EQ(fused.entries[l].gradients, refs[l].gradients)
            << simd::tier_name(tier) << " tau=" << tau << " point " << l;
      }
    }
  }
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (Reference r :
       {Reference::kNaive, Reference::kMatrix, Reference::kBitsliced}) {
    for (std::size_t parallelism : {std::size_t{1}, std::size_t{0},
                                    std::size_t{4}}) {
      for (std::size_t m : {std::size_t{1}, std::size_t{2}, std::size_t{17},
                            std::size_t{64}}) {
        cases.push_back({r, parallelism, m});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PirBatchDiffTest, ::testing::ValuesIn(all_cases()),
    [](const auto& info) {
      return reference_name(info.param.reference) + "p" +
             std::to_string(info.param.parallelism) + "m" +
             std::to_string(info.param.m);
    });

// ------------------------------------------------------------------------
// The production width. pir-1m serves K = 1024 (w = 16, one full AVX-512
// block); K = 520 (w = 9) leaves a one-word tail in every kernel block.
// Each shape below pins the fused engine to respond_naive at every
// supported tier, for a one-point and a 40-point query. The run-factored
// sweep folds each run of rows sharing (a, b) on its own, so the shapes
// are about where runs end: at the last coordinate, inside the database's
// last run, or at a row-shard edge.
// ------------------------------------------------------------------------

enum class Shape {
  kFullLastRun,       // the last row is {a, b, gamma - 1}
  kOneRow,            // n = 1: a single one-row run
  kPartialLastRun,    // the last row stops short of gamma - 1
  kChunkEdgesInRuns,  // parallelism 1..7, row shards cutting runs
};

std::string shape_name(Shape s) {
  switch (s) {
    case Shape::kFullLastRun: return "FullLastRun";
    case Shape::kOneRow: return "OneRow";
    case Shape::kPartialLastRun: return "PartialLastRun";
    case Shape::kChunkEdgesInRuns: return "ChunkEdgesInRuns";
  }
  return "?";
}

bool last_run_full(const Embedding& emb) {
  return emb.triple(emb.n() - 1)[2] == emb.gamma() - 1;
}

// The smallest n >= from whose last run is (or is not) full. n = C(gamma, 3)
// itself never occurs: gamma_for(C(g, 3)) >= g + 1, so a full last run is
// the closest the embedding gets to filling its capacity.
std::size_t n_with_last_run(bool full, std::size_t from) {
  std::size_t n = from;
  while (last_run_full(Embedding(n)) != full) ++n;
  return n;
}

std::size_t shape_n(Shape s) {
  switch (s) {
    case Shape::kFullLastRun: return n_with_last_run(true, 80);
    case Shape::kOneRow: return 1;
    case Shape::kPartialLastRun: return n_with_last_run(false, 80);
    case Shape::kChunkEdgesInRuns: return 150;
  }
  return 0;
}

// True when some edge of the balanced p-way row partition falls strictly
// inside a run (the rows on both sides share (a, b)).
bool chunk_edge_inside_run(const Embedding& emb, std::size_t p) {
  for (std::size_t c = 1; c < p; ++c) {
    const std::size_t edge = chunk_bounds(emb.n(), p, c).begin;
    const Embedding::Triple before = emb.triple(edge - 1);
    const Embedding::Triple after = emb.triple(edge);
    if (before[0] == after[0] && before[1] == after[1]) return true;
  }
  return false;
}

struct WidthCase {
  std::size_t tag_bits;
  Shape shape;
  std::size_t m;
};

class PirWidthDiffTest : public ::testing::TestWithParam<WidthCase> {};

TEST_P(PirWidthDiffTest, FusedRespondMatchesNaiveAtProductionWidth) {
  const auto [tag_bits, shape, m] = GetParam();
  const std::size_t n = shape_n(shape);
  SplitMix64 gen(0x1024 + tag_bits * 7 + m * 31 + n);
  bn::Rng64Adapter rng(gen);
  TagDatabase db(tag_bits);
  for (std::size_t i = 0; i < n; ++i) {
    db.add(bn::random_bits(rng, tag_bits - gen.below(8)));
  }
  const Embedding emb(n);
  switch (shape) {
    case Shape::kFullLastRun: ASSERT_TRUE(last_run_full(emb)); break;
    case Shape::kPartialLastRun: ASSERT_FALSE(last_run_full(emb)); break;
    case Shape::kOneRow: ASSERT_EQ(emb.n(), 1u); break;
    case Shape::kChunkEdgesInRuns:
      for (std::size_t p = 2; p <= 7; ++p) {
        ASSERT_TRUE(chunk_edge_inside_run(emb, p)) << "p=" << p;
      }
      break;
  }
  std::vector<std::size_t> parallelisms = {1, 0};
  if (shape == Shape::kChunkEdgesInRuns) {
    parallelisms = {1, 2, 3, 4, 5, 6, 7};
  }

  const PirServer reference(db, emb, /*parallelism=*/0);
  const PirClient client(emb, tag_bits);
  std::vector<std::size_t> wanted;
  for (std::size_t l = 0; l < m; ++l) wanted.push_back(gen.below(n));
  const auto enc = client.encode(wanted, rng);

  const TierGuard guard;
  for (std::size_t tau = 0; tau < PirClient::kNumServers; ++tau) {
    const PirQuery& query = enc.queries[tau];
    std::vector<PirSingleResponse> refs;
    for (const auto& q : query.points) {
      refs.push_back(reference.respond_naive(q));
    }
    for (simd::XorTier tier : supported_tiers()) {
      simd::set_active_tier(tier);
      for (std::size_t parallelism : parallelisms) {
        const PirServer server(db, emb, parallelism);
        const PirResponse fused = server.respond(query);
        ASSERT_EQ(fused.entries.size(), m);
        for (std::size_t l = 0; l < m; ++l) {
          EXPECT_EQ(fused.entries[l].values, refs[l].values)
              << simd::tier_name(tier) << " p=" << parallelism
              << " tau=" << tau << " point " << l;
          EXPECT_EQ(fused.entries[l].gradients, refs[l].gradients)
              << simd::tier_name(tier) << " p=" << parallelism
              << " tau=" << tau << " point " << l;
        }
      }
    }
  }
}

std::vector<WidthCase> width_cases() {
  std::vector<WidthCase> cases;
  for (std::size_t k : {std::size_t{1024}, std::size_t{520}}) {
    for (Shape shape : {Shape::kFullLastRun, Shape::kOneRow,
                        Shape::kPartialLastRun, Shape::kChunkEdgesInRuns}) {
      for (std::size_t m : {std::size_t{1}, std::size_t{40}}) {
        cases.push_back({k, shape, m});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    ProductionWidth, PirWidthDiffTest, ::testing::ValuesIn(width_cases()),
    [](const auto& info) {
      return "K" + std::to_string(info.param.tag_bits) +
             shape_name(info.param.shape) + "M" +
             std::to_string(info.param.m);
    });

// The fused sweep must produce the same bits no matter which XOR kernel
// tier serves it (portable / AVX2 / AVX-512, as available).
TEST(PirBatchSimdTest, AllSupportedTiersProduceIdenticalResponses) {
  SplitMix64 gen(0x7135);
  bn::Rng64Adapter rng(gen);
  const std::size_t n = 120, k = 256;
  TagDatabase db(k);
  for (std::size_t i = 0; i < n; ++i) db.add(bn::random_bits(rng, k));
  const Embedding emb(n);
  const PirServer server(db, emb);
  const PirClient client(emb, k);
  std::vector<std::size_t> wanted = {3, 77, 3, 119, 0};
  const auto enc = client.encode(wanted, rng);

  const simd::XorTier original = simd::active_kernels().tier;
  simd::set_active_tier(simd::XorTier::kPortable);
  const PirResponse reference = server.respond(enc.queries[0]);
  for (simd::XorTier tier :
       {simd::XorTier::kAvx2, simd::XorTier::kAvx512}) {
    if (!simd::tier_supported(tier)) continue;
    simd::set_active_tier(tier);
    const PirResponse got = server.respond(enc.queries[0]);
    ASSERT_EQ(got.entries.size(), reference.entries.size());
    for (std::size_t l = 0; l < got.entries.size(); ++l) {
      EXPECT_EQ(got.entries[l].values, reference.entries[l].values)
          << simd::tier_name(tier) << " point " << l;
      EXPECT_EQ(got.entries[l].gradients, reference.entries[l].gradients)
          << simd::tier_name(tier) << " point " << l;
    }
  }
  simd::set_active_tier(original);
}

TEST(PirBatchTest, EmptyBatchYieldsEmptyResponse) {
  TagDatabase db(32);
  db.add(bn::BigInt(5));
  const Embedding emb(1);
  const PirServer server(db, emb);
  EXPECT_TRUE(server.respond(PirQuery{}).entries.empty());
}

TEST(PirBatchTest, AnyWrongDimensionPointRejected) {
  TagDatabase db(32);
  db.add(bn::BigInt(5));
  const Embedding emb(1);
  const PirServer server(db, emb);
  PirQuery query;
  query.points.emplace_back(emb.gamma());
  query.points.emplace_back(emb.gamma() + 1);  // second point malformed
  EXPECT_THROW(server.respond(query), ParamError);
  EXPECT_THROW(server.respond_naive(query.points[1]), ParamError);
  EXPECT_THROW(server.respond_matrix(db.build_planes(), query.points[1]),
               ParamError);
}

}  // namespace
}  // namespace ice::pir
