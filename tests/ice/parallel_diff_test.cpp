// Differential tests for the parallel audit paths: every parallelized
// computation (edge proof aggregation, PIR bitplane evaluation, user tag
// repacking, TPA verification) must be BIT-IDENTICAL to the serial
// reference (parallelism = 1) at every tested thread count, including
// counts above the hardware concurrency and a prime count (7) that leaves
// uneven chunk tails.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "bignum/random.h"
#include "common/rng.h"
#include "ice/batch.h"
#include "ice/protocol.h"
#include "ice/tag.h"
#include "pir/client.h"
#include "pir/server.h"
#include "support/ice_fixtures.h"
#include "support/pir_planes.h"

namespace ice::proto {
namespace {

std::vector<std::size_t> tested_thread_counts() {
  std::vector<std::size_t> counts{1, 2, 7};
  counts.push_back(
      std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  return counts;
}

class ParallelDiffTest : public ::testing::Test {
 protected:
  ParallelDiffTest()
      : params_(ice::testing::test_params()),
        keys_(ice::testing::test_keypair_256()),
        tagger_(keys_.pk) {
    params_.parallelism = 1;  // serial reference unless a test overrides
  }

  ProtocolParams params_;
  KeyPair keys_;
  TagGenerator tagger_;
  SplitMix64 gen_{0x9a11};
  bn::Rng64Adapter<SplitMix64> rng_{gen_};
};

TEST_F(ParallelDiffTest, ProofBitExactAtEveryThreadCount) {
  const auto blocks = ice::testing::make_blocks(9, 256, 21);
  ChallengeSecret secret;
  const Challenge chal = make_challenge(keys_.pk, params_, rng_, secret);
  const bn::BigInt s_tilde = draw_blinding(keys_.pk, rng_);
  const Proof serial = make_proof(keys_.pk, params_, blocks, chal, s_tilde);
  for (std::size_t t : tested_thread_counts()) {
    ProtocolParams p = params_;
    p.parallelism = t;
    const Proof parallel = make_proof(keys_.pk, p, blocks, chal, s_tilde);
    EXPECT_EQ(parallel.p, serial.p) << "threads=" << t;
  }
}

TEST_F(ParallelDiffTest, BatchProofBitExactAtEveryThreadCount) {
  const auto blocks = ice::testing::make_blocks(11, 256, 22);
  ChallengeSecret secret;
  Challenge chal = make_challenge(keys_.pk, params_, rng_, secret);
  chal.e = draw_challenge_keys(params_, 1, rng_)[0];  // the user's e_j
  const Proof serial =
      make_proof(keys_.pk, params_, blocks, chal, bn::BigInt(1));
  for (std::size_t t : tested_thread_counts()) {
    ProtocolParams p = params_;
    p.parallelism = t;
    const Proof parallel = make_proof(keys_.pk, p, blocks, chal, bn::BigInt(1));
    EXPECT_EQ(parallel.p, serial.p) << "threads=" << t;
  }
}

TEST_F(ParallelDiffTest, RepackTagsBitExactAtEveryThreadCount) {
  const auto blocks = ice::testing::make_blocks(13, 128, 40);
  const auto tags = tagger_.tag_all(blocks);
  const bn::BigInt s_tilde = draw_blinding(keys_.pk, rng_);
  const auto serial = repack_tags(keys_.pk, tags, s_tilde, /*parallelism=*/1);
  for (std::size_t t : tested_thread_counts()) {
    const auto parallel = repack_tags(keys_.pk, tags, s_tilde, t);
    EXPECT_EQ(parallel, serial) << "threads=" << t;
  }
}

TEST_F(ParallelDiffTest, VerifySameVerdictAtEveryThreadCount) {
  auto blocks = ice::testing::make_blocks(10, 256, 50);
  const auto tags = tagger_.tag_all(blocks);
  ChallengeSecret secret;
  const Challenge chal = make_challenge(keys_.pk, params_, rng_, secret);
  const bn::BigInt s_tilde = draw_blinding(keys_.pk, rng_);
  const Proof good = make_proof(keys_.pk, params_, blocks, chal, s_tilde);
  blocks[4][7] ^= 0x20;  // single bit flip
  const Proof bad = make_proof(keys_.pk, params_, blocks, chal, s_tilde);
  const auto repacked = repack_tags(keys_.pk, tags, s_tilde);
  for (std::size_t t : tested_thread_counts()) {
    ProtocolParams p = params_;
    p.parallelism = t;
    EXPECT_TRUE(verify_proof(keys_.pk, p, repacked, chal, secret, good))
        << "threads=" << t;
    EXPECT_FALSE(verify_proof(keys_.pk, p, repacked, chal, secret, bad))
        << "threads=" << t;
  }
}

// The fused engine and both per-point references agree with each other
// serially and return the serial bits at every thread count.
TEST_F(ParallelDiffTest, PirResponsesBitExactForAllStrategies) {
  constexpr std::size_t kTags = 60;
  const auto blocks = ice::testing::make_blocks(kTags, 64, 60);
  const auto tags = tagger_.tag_all(blocks);
  pir::TagDatabase db(keys_.pk.modulus_bits());
  for (const auto& t : tags) db.add(t);
  const pir::Embedding emb(kTags);
  const pir::PirClient client(emb, keys_.pk.modulus_bits());
  // One fixed encoded query reused against every server configuration.
  SplitMix64 qgen(0x61);
  bn::Rng64Adapter<SplitMix64> qrng(qgen);
  const auto enc = client.encode(std::vector<std::size_t>{3, 17, 42}, qrng);
  const pir::PirQuery& query = enc.queries[0];
  const pir::Bitplanes planes = db.build_planes();
  // Fused answer, then naive and matrix per point, as one entry list.
  const auto all_entries = [&](const pir::PirServer& server) {
    std::vector<pir::PirSingleResponse> out =
        ice::testing::elements(server.respond(query));
    for (const auto& q : query.points) out.push_back(server.respond_naive(q));
    for (const auto& q : query.points) {
      out.push_back(server.respond_matrix(planes, q));
    }
    return out;
  };
  const auto serial = all_entries(pir::PirServer(db, emb, 1));
  const std::size_t m = query.points.size();
  ASSERT_EQ(serial.size(), 3 * m);
  for (std::size_t l = 0; l < m; ++l) {
    for (const std::size_t e : {l, 2 * m + l}) {  // fused, matrix
      EXPECT_EQ(serial[e].values, serial[m + l].values) << "entry=" << e;
      EXPECT_EQ(serial[e].gradients, serial[m + l].gradients)
          << "entry=" << e;
    }
  }
  for (std::size_t t : tested_thread_counts()) {
    const auto parallel = all_entries(pir::PirServer(db, emb, t));
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t e = 0; e < serial.size(); ++e) {
      EXPECT_EQ(parallel[e].values, serial[e].values)
          << "entry=" << e << " threads=" << t;
      EXPECT_EQ(parallel[e].gradients, serial[e].gradients)
          << "entry=" << e << " threads=" << t;
    }
  }
}

TEST_F(ParallelDiffTest, ConcurrentBitslicedRespondsMatchSerial) {
  // Two threads respond with different queries on ONE shared pooled server,
  // so their row sweeps run as concurrent broadcasts in the shared pool;
  // every response must equal the serial (parallelism = 1) respond of the
  // same query bit for bit.
  constexpr std::size_t kRows = 3000;
  constexpr std::size_t kTagBits = 256;
  constexpr std::size_t kIterations = 100;
  pir::TagDatabase db(kTagBits);
  for (std::size_t i = 0; i < kRows; ++i) {
    db.add(bn::random_bits(rng_, kTagBits));
  }
  const pir::Embedding emb(kRows);
  const pir::PirClient client(emb, kTagBits);
  const pir::PirServer serial(db, emb, 1);
  const pir::PirServer shared(db, emb, 0);

  struct Lane {
    std::vector<pir::PirQuery> queries;
    std::vector<pir::PirResponse> expected;
    std::size_t mismatches = 0;
  };
  Lane lanes[2];
  for (Lane& lane : lanes) {
    for (std::size_t it = 0; it < kIterations; ++it) {
      std::vector<std::size_t> wanted;
      for (std::size_t l = 0; l < 1 + it % 5; ++l) {
        wanted.push_back(gen_.below(kRows));
      }
      lane.queries.push_back(client.encode(wanted, rng_).queries[it % 2]);
      lane.expected.push_back(serial.respond(lane.queries.back()));
    }
  }
  const auto run = [&shared](Lane& lane) {
    pir::PirResponse got;
    for (std::size_t it = 0; it < lane.queries.size(); ++it) {
      shared.respond_into(lane.queries[it], got);
      const pir::PirResponse& want = lane.expected[it];
      if (got.shape != want.shape || got.planes != want.planes) {
        ++lane.mismatches;
      }
    }
  };
  std::thread other([&] { run(lanes[1]); });
  run(lanes[0]);
  other.join();
  EXPECT_EQ(lanes[0].mismatches, 0u);
  EXPECT_EQ(lanes[1].mismatches, 0u);
}

TEST_F(ParallelDiffTest, BatchRepackAndVerifyBitExactAtEveryThreadCount) {
  const auto blocks = ice::testing::make_blocks(12, 128, 70);
  const auto tags = tagger_.tag_all(blocks);
  const std::vector<std::vector<std::size_t>> edge_sets{
      {0, 1, 2, 3, 4, 5}, {4, 5, 6, 7, 8}, {0, 2, 8, 9, 10, 11}};
  ChallengeSecret secret;
  const Challenge base = make_challenge(keys_.pk, params_, rng_, secret);
  const auto keys = draw_challenge_keys(params_, edge_sets.size(), rng_);
  const auto u = union_of_sets(edge_sets);
  std::vector<bn::BigInt> union_tags;
  for (std::size_t i : u) union_tags.push_back(tags[i]);
  const auto serial = batch_repack(keys_.pk, params_, u, union_tags,
                                   edge_sets, keys);
  for (std::size_t t : tested_thread_counts()) {
    ProtocolParams p = params_;
    p.parallelism = t;
    const auto parallel =
        batch_repack(keys_.pk, p, u, union_tags, edge_sets, keys);
    EXPECT_EQ(parallel, serial) << "threads=" << t;
  }
}

}  // namespace
}  // namespace ice::proto
