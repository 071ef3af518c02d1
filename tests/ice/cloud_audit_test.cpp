// Tests for the cloud-side sampled PDP audit.
#include "ice/cloud_audit.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ice/wire.h"
#include "mec/corruption.h"
#include "sim/deployment.h"
#include "support/ice_fixtures.h"
#include "support/recording_channel.h"

namespace ice::proto {
namespace {

/// CSP + 2 TPAs + user (no edges) over an n-block file of seed 66, set up.
class CloudAuditWorld : public sim::Deployment {
 public:
  explicit CloudAuditWorld(
      std::size_t n,
      const ProtocolParams& params = ice::testing::test_params(64))
      : sim::Deployment(params, ice::testing::test_keypair_256(), n, 0, 0,
                        66) {
    setup();
  }

  void corrupt_cloud_block(std::size_t index) {
    SplitMix64 rng(index);
    Bytes block = csp().store().block(index);
    mec::corrupt_block(block, mec::CorruptionKind::kBitFlip, rng);
    csp().store_for_corruption().update_block(index, std::move(block));
  }

  SplitMix64 gen_{0xc10d};
  bn::Rng64Adapter<SplitMix64> rng_{gen_};
};

TEST(CloudAuditTest, HonestCloudPasses) {
  CloudAuditWorld w(30);
  for (std::size_t sample : {1u, 5u, 30u}) {
    const auto result = audit_cloud(w.user(), w.user_csp(), sample, w.rng_);
    EXPECT_TRUE(result.pass) << "sample=" << sample;
    EXPECT_EQ(result.sampled.size(), sample);
  }
}

TEST(CloudAuditTest, SampleIsDistinctAndInRange) {
  CloudAuditWorld w(20);
  const auto result = audit_cloud(w.user(), w.user_csp(), 10, w.rng_);
  for (std::size_t i = 0; i < result.sampled.size(); ++i) {
    EXPECT_LT(result.sampled[i], 20u);
    if (i > 0) EXPECT_LT(result.sampled[i - 1], result.sampled[i]);
  }
}

TEST(CloudAuditTest, FullSampleAlwaysDetects) {
  CloudAuditWorld w(20);
  w.corrupt_cloud_block(13);
  const auto result = audit_cloud(w.user(), w.user_csp(), 20, w.rng_);
  EXPECT_FALSE(result.pass);
}

TEST(CloudAuditTest, DetectionIffCorruptedBlockSampled) {
  CloudAuditWorld w(20);
  w.corrupt_cloud_block(7);
  for (int trial = 0; trial < 10; ++trial) {
    const auto result = audit_cloud(w.user(), w.user_csp(), 5, w.rng_);
    const bool sampled_bad =
        std::find(result.sampled.begin(), result.sampled.end(), 7u) !=
        result.sampled.end();
    EXPECT_EQ(result.pass, !sampled_bad);
  }
}

// The cloud's sampled audit is the one audit equation: after the sample
// draws, each 104 carries the challenge make_challenge draws from the
// owner's RNG, and the CSP answers with make_proof at blinding 1 over the
// sampled blocks.
TEST(CloudAuditTest, SampledAuditIsMakeChallengeAndMakeProof) {
  CloudAuditWorld w(20);
  w.corrupt_cloud_block(7);
  const PublicKey& pk = w.keys().pk;
  const ProtocolParams& params = w.params();  // the file's parameters
  ice::testing::RecordingChannel recorder(w.user_csp());
  constexpr std::size_t kSample = 5;
  for (std::uint64_t seed = 0x104; seed < 0x104 + 6; ++seed) {
    SplitMix64 gen(seed), twin(seed);
    bn::Rng64Adapter rng(gen), twin_rng(twin);
    const auto result = audit_cloud(w.user(), recorder, kSample, rng);
    const auto calls = recorder.challenges(kCspChallenge);
    ASSERT_EQ(calls.size(), seed - 0x104 + 1);  // one 104 per audit
    const auto& call = calls.back();
    EXPECT_EQ(call.indices, result.sampled);
    for (std::size_t i = 0; i < kSample; ++i) {
      (void)bn::random_below(twin_rng, bn::BigInt(20 - i));  // the sample
    }
    ChallengeSecret secret;
    const Challenge drawn = make_challenge(pk, params, twin_rng, secret);
    EXPECT_EQ(call.e, drawn.e);
    EXPECT_EQ(call.g_s, drawn.g_s);
    std::vector<Bytes> blocks;
    for (std::size_t index : call.indices) {
      blocks.push_back(w.csp().store().block(index));
    }
    EXPECT_EQ(call.proof,
              make_proof(pk, params, blocks, drawn, bn::BigInt(1)).p);
  }
}

// The sampled audit follows the file's d and kappa, not the protocol
// defaults: the 103 it sends carries them, its challenge key fits kappa,
// and it passes an honest CSP and fails a corrupted sampled block.
TEST(CloudAuditTest, ChallengeUsesTheFilesParameters) {
  ProtocolParams params = ice::testing::test_params(64);
  params.coeff_bits = 32;
  params.challenge_key_bits = 64;
  CloudAuditWorld w(20, params);
  ice::testing::RecordingChannel recorder(w.user_csp());
  EXPECT_TRUE(audit_cloud(w.user(), recorder, 20, w.rng_).pass);
  const std::vector<Bytes> set_keys = recorder.requests(kCspSetKey);
  ASSERT_EQ(set_keys.size(), 1u);
  net::Reader r(set_keys[0]);
  (void)r.bigint();  // N
  (void)r.bigint();  // g
  EXPECT_EQ(r.varint(), 32u);
  EXPECT_EQ(r.varint(), 64u);
  const auto calls = recorder.challenges(kCspChallenge);
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_LE(calls[0].e.bit_length(), 64u);

  w.corrupt_cloud_block(7);
  EXPECT_FALSE(audit_cloud(w.user(), recorder, 20, w.rng_).pass);
}

// A 104 that names one block twice is refused with kInvalidArgument before
// any block is copied, and the next honest audit still passes.
TEST(CloudAuditTest, RepeatedSampleIndexIsRefused) {
  CloudAuditWorld w(20);
  ASSERT_TRUE(audit_cloud(w.user(), w.user_csp(), 5, w.rng_).pass);  // key
  try {
    (void)CspClient(w.user_csp())
        .challenge(bn::BigInt(5), w.keys().pk.g, {3, 9, 3});
    FAIL() << "expected RemoteError";
  } catch (const net::RemoteError& e) {
    EXPECT_EQ(e.status(), net::Status::kInvalidArgument);
  }
  EXPECT_TRUE(audit_cloud(w.user(), w.user_csp(), 5, w.rng_).pass);
}

TEST(CloudAuditTest, ParamValidation) {
  CloudAuditWorld w(10);
  EXPECT_THROW(audit_cloud(w.user(), w.user_csp(), 0, w.rng_), ParamError);
  EXPECT_THROW(audit_cloud(w.user(), w.user_csp(), 11, w.rng_), ParamError);
}

TEST(SamplingProbabilityTest, KnownValues) {
  EXPECT_DOUBLE_EQ(sampling_detection_probability(100, 0, 10), 0.0);
  EXPECT_DOUBLE_EQ(sampling_detection_probability(100, 5, 0), 0.0);
  EXPECT_DOUBLE_EQ(sampling_detection_probability(100, 100, 1), 1.0);
  // c + corrupted > n forces a hit.
  EXPECT_DOUBLE_EQ(sampling_detection_probability(10, 6, 5), 1.0);
  // One bad block, sample 1 of n: probability 1/n.
  EXPECT_NEAR(sampling_detection_probability(100, 1, 1), 0.01, 1e-12);
  // Classic PDP quote: 1% corruption, 460 samples => ~99% detection.
  EXPECT_NEAR(sampling_detection_probability(10000, 100, 460), 0.99, 0.005);
}

TEST(SamplingProbabilityTest, MonotoneInSampleSize) {
  double prev = 0.0;
  for (std::size_t c : {1u, 5u, 10u, 20u, 40u}) {
    const double p = sampling_detection_probability(100, 3, c);
    EXPECT_GE(p, prev);
    prev = p;
  }
  EXPECT_GT(prev, 0.7);
}

}  // namespace
}  // namespace ice::proto
