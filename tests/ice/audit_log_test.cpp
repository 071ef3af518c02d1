// Tests for the hash-chained audit log.
#include "ice/audit_log.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "mec/corruption.h"
#include "sim/deployment.h"
#include "support/ice_fixtures.h"

namespace ice::proto {
namespace {

TEST(AuditLogTest, EmptyChainIsValid) {
  AuditLog log;
  EXPECT_TRUE(log.verify_chain());
  EXPECT_EQ(log.size(), 0u);
}

TEST(AuditLogTest, AppendAssignsSequenceAndLinks) {
  AuditLog log;
  const AuditRecord& first = log.append(100, 1, false, true);
  EXPECT_EQ(first.sequence, 0u);
  EXPECT_TRUE(first.prev_digest.empty());
  const AuditRecord& second = log.append(101, 2, true, false);
  EXPECT_EQ(second.sequence, 1u);
  EXPECT_EQ(second.prev_digest, log.records()[0].digest());
  EXPECT_TRUE(log.verify_chain());
}

TEST(AuditLogTest, VerdictFlipDetected) {
  AuditLog log;
  for (int i = 0; i < 5; ++i) {
    log.append(static_cast<std::uint64_t>(i), 0, false, i % 2 == 0);
  }
  ASSERT_TRUE(log.verify_chain());
  log.records_for_tamper()[2].pass = !log.records()[2].pass;
  ASSERT_FALSE(log.verify_chain());
  EXPECT_EQ(*log.first_broken_link(), 3u);  // link from 2 to 3 breaks
}

TEST(AuditLogTest, DroppedRecordDetected) {
  AuditLog log;
  for (int i = 0; i < 5; ++i) {
    log.append(static_cast<std::uint64_t>(i), 0, false, true);
  }
  auto& records = log.records_for_tamper();
  records.erase(records.begin() + 2);
  EXPECT_FALSE(log.verify_chain());
}

TEST(AuditLogTest, TamperedLastRecordDetectedBySequence) {
  AuditLog log;
  log.append(1, 0, false, true);
  log.records_for_tamper()[0].sequence = 5;
  EXPECT_FALSE(log.verify_chain());
  EXPECT_EQ(*log.first_broken_link(), 0u);
}

TEST(AuditLogTest, ForgedGenesisDetected) {
  AuditLog log;
  log.append(1, 0, false, true);
  log.records_for_tamper()[0].prev_digest = Bytes{1, 2, 3};
  EXPECT_FALSE(log.verify_chain());
}

TEST(AuditLogTest, TpaRecordsVerdictsInOrder) {
  sim::Deployment d(ice::testing::test_params(64),
                    ice::testing::test_keypair_256(), 16, 1, 8, 5);
  d.setup();
  d.edge(0).pre_download({1, 2, 3});

  EXPECT_TRUE(d.user().audit_edge(d.user_edge(0), 0));
  SplitMix64 rng(1);
  mec::corrupt_random_blocks(d.edge(0).cache_for_corruption(), 1,
                             mec::CorruptionKind::kBitFlip, rng);
  EXPECT_FALSE(d.user().audit_edge(d.user_edge(0), 0));

  const AuditLog& log = d.tpa(0).audit_log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_TRUE(log.records()[0].pass);
  EXPECT_FALSE(log.records()[1].pass);
  EXPECT_FALSE(log.records()[0].batch);
  EXPECT_TRUE(log.verify_chain());
}

}  // namespace
}  // namespace ice::proto
