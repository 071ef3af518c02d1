// Tests for the comparison baselines.
#include "baseline/trivial_retrieval.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "ice/tag.h"
#include "mec/corruption.h"
#include "pir/messages.h"
#include "sim/deployment.h"
#include "support/ice_fixtures.h"

namespace ice::baseline {
namespace {

class BaselineTest : public ::testing::Test {
 protected:
  BaselineTest()
      : params_(ice::testing::test_params(64)),
        keys_(ice::testing::test_keypair_256()),
        tagger_(keys_.pk) {}

  proto::ProtocolParams params_;
  proto::KeyPair keys_;
  proto::TagGenerator tagger_;
  SplitMix64 gen_{0xbab5};
  bn::Rng64Adapter<SplitMix64> rng_{gen_};
};

TEST_F(BaselineTest, TrivialRetrieveMatchesPir) {
  const auto blocks = ice::testing::make_blocks(40, 64, 1);
  const auto tags = tagger_.tag_all(blocks);
  proto::TagStore tpa0(params_, tags);
  proto::TagStore tpa1(params_, tags);
  const std::vector<std::size_t> wanted = {3, 17, 39, 3};
  const auto trivial = trivial_retrieve(tpa0, wanted);
  const auto pir = proto::retrieve_tags_direct(tpa0, tpa1, wanted, rng_);
  EXPECT_EQ(trivial, pir);
}

TEST_F(BaselineTest, TrivialRetrieveRejectsBadIndex) {
  const auto blocks = ice::testing::make_blocks(4, 64, 2);
  proto::TagStore store(params_, tagger_.tag_all(blocks));
  EXPECT_THROW(trivial_retrieve(store, {4}), ParamError);
}

TEST_F(BaselineTest, PirBeatsTrivialCommunicationForLargeFiles) {
  // Tab. I: PIR response is O(n_j K n^{1/3}) bits vs n K for the trivial
  // download. Verify the crossover exists and grows with n.
  const std::size_t k = params_.tag_bits();
  for (std::size_t n : {500u, 2000u, 10000u}) {
    const pir::Embedding emb(n);
    // One retrieved tag: response = 2 servers * (1 + gamma) * K GF4 elems
    // (2 bits each), query = 2 servers * gamma * 2 bits.
    const std::size_t pir_bits =
        2 * ((1 + emb.gamma()) * k * 2 + emb.gamma() * 2);
    EXPECT_LT(pir_bits, trivial_retrieval_bits(n, k)) << "n=" << n;
  }
}

TEST_F(BaselineTest, SequentialAuditsMatchPerEdgeVerdicts) {
  // Two edges behind one TPA; sequential_audits is true iff every edge is
  // intact, and flags the batch as failed when any one edge is corrupted.
  sim::Deployment d(params_, keys_, 20, 2, 4, 4);
  for (std::uint32_t j = 0; j < 2; ++j) {
    d.edge(j).pre_download({j, j + 2, j + 4});
  }
  d.setup();
  const std::vector<net::RpcChannel*> ptrs = d.user_edges();
  EXPECT_TRUE(sequential_audits(d.user(), ptrs));
  mec::corrupt_random_blocks(d.edge(1).cache_for_corruption(), 1,
                             mec::CorruptionKind::kBitFlip, gen_);
  EXPECT_FALSE(sequential_audits(d.user(), ptrs));
}

TEST_F(BaselineTest, TrivialWinsForTinyFiles) {
  // For very small n the trivial download is cheaper — the paper's scheme
  // targets large files. This pins the crossover direction.
  const std::size_t k = params_.tag_bits();
  const std::size_t n = 4;
  const pir::Embedding emb(n);
  const std::size_t pir_bits =
      2 * ((1 + emb.gamma()) * k * 2 + emb.gamma() * 2);
  EXPECT_GT(pir_bits, trivial_retrieval_bits(n, k));
}

}  // namespace
}  // namespace ice::baseline
