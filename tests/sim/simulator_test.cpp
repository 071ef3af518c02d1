// Tests for the scenario simulator.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "support/ice_fixtures.h"

namespace ice::sim {
namespace {

SimConfig small_config() {
  SimConfig c;
  c.n_blocks = 40;
  c.block_bytes = 128;
  c.cache_capacity = 8;
  c.ticks = 120;
  c.requests_per_tick = 2;
  c.audit_every = 20;
  c.flush_every = 60;
  c.corruption_prob_per_tick = 0.05;
  return c;
}

TEST(SimulatorTest, DeterministicForFixedSeed) {
  const auto keys = ice::testing::test_keypair_256();
  const SimReport a = run_simulation(small_config(), keys, 7);
  const SimReport b = run_simulation(small_config(), keys, 7);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.corruptions_injected, b.corruptions_injected);
  EXPECT_EQ(a.failed_audits, b.failed_audits);
  EXPECT_EQ(a.blocks_repaired, b.blocks_repaired);
  EXPECT_EQ(a.updates_lost, b.updates_lost);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
}

TEST(SimulatorTest, ReportInternallyConsistent) {
  const auto keys = ice::testing::test_keypair_256();
  const SimReport r = run_simulation(small_config(), keys, 8);
  EXPECT_EQ(r.requests, r.reads + r.writes);
  EXPECT_EQ(r.requests, 120u * 2);
  EXPECT_GE(r.audits, 120u / 20);
  EXPECT_GE(r.failed_audits, 1u);  // 5%/tick for 120 ticks: corruption certain
  EXPECT_LE(r.failed_audits, r.audits);
  EXPECT_GE(r.blocks_repaired, r.failed_audits);
  EXPECT_GT(r.hit_rate(), 0.1);
  EXPECT_LT(r.hit_rate(), 1.0);
}

TEST(SimulatorTest, NoCorruptionMeansNoFailures) {
  SimConfig c = small_config();
  c.corruption_prob_per_tick = 0.0;
  const auto keys = ice::testing::test_keypair_256();
  const SimReport r = run_simulation(c, keys, 9);
  EXPECT_EQ(r.corruptions_injected, 0u);
  EXPECT_EQ(r.failed_audits, 0u);
  EXPECT_EQ(r.blocks_repaired, 0u);
  EXPECT_EQ(r.updates_lost, 0u);
}

TEST(SimulatorTest, WritesFlowBackToCloud) {
  SimConfig c = small_config();
  c.write_fraction = 0.3;
  c.corruption_prob_per_tick = 0.0;
  const auto keys = ice::testing::test_keypair_256();
  const SimReport r = run_simulation(c, keys, 10);
  EXPECT_GT(r.writes, 0u);
  EXPECT_GT(r.flushes, 0u);
  EXPECT_GT(r.blocks_written_back, 0u);
}

TEST(SimulatorTest, HeavyWritesUnderCorruptionLoseSomeUpdates) {
  // The paper's motivating disaster: dirty blocks corrupted before
  // write-back are unrecoverable. Under aggressive writes + corruption the
  // simulator must observe (and survive) at least one such loss.
  SimConfig c = small_config();
  c.ticks = 300;
  c.write_fraction = 0.5;
  c.corruption_prob_per_tick = 0.25;
  c.audit_every = 10;
  c.flush_every = 100;
  const auto keys = ice::testing::test_keypair_256();
  const SimReport r = run_simulation(c, keys, 11);
  EXPECT_GT(r.corruptions_injected, 10u);
  EXPECT_GT(r.updates_lost, 0u);
  EXPECT_GE(r.blocks_repaired, r.updates_lost);
}

TEST(SimulatorTest, ZeroWriteFractionNeverLosesUpdates) {
  SimConfig c = small_config();
  c.write_fraction = 0.0;
  c.corruption_prob_per_tick = 0.2;
  const auto keys = ice::testing::test_keypair_256();
  const SimReport r = run_simulation(c, keys, 12);
  EXPECT_EQ(r.writes, 0u);
  EXPECT_EQ(r.updates_lost, 0u);
  EXPECT_GT(r.blocks_repaired, 0u);  // clean blocks still get repaired
}

TEST(SimulatorTest, AuditTimeAccumulates) {
  const auto keys = ice::testing::test_keypair_256();
  const SimReport r = run_simulation(small_config(), keys, 13);
  EXPECT_GT(r.audit_seconds_total, 0.0);
}

UpdateStormConfig small_storm() {
  UpdateStormConfig c;
  c.n_blocks = 32;
  c.block_bytes = 128;
  c.cache_capacity = 8;
  c.rounds = 4;
  c.ops_per_round = 20;
  c.close_every = 2;
  return c;
}

TEST(UpdateStormTest, AuditsStayGreenThroughTheStorm) {
  const auto keys = ice::testing::test_keypair_256();
  const UpdateStormReport r = run_update_storm_simulation(small_storm(),
                                                          keys, 15);
  EXPECT_EQ(r.rounds, 4u);
  EXPECT_EQ(r.ops, 4u * 20);
  EXPECT_EQ(r.ops, r.reads + r.updates_staged);
  EXPECT_GT(r.updates_staged, 0u);
  EXPECT_EQ(r.audits, 4u);
  // The tentpole acceptance: one audit per round runs MID-STORM against
  // the epoch snapshot (with session notes covering dirty blocks) and
  // every verdict passes.
  EXPECT_EQ(r.failed_audits, 0u);
  EXPECT_GT(r.epoch_closes, 0u);
  EXPECT_GT(r.blocks_written_back, 0u);
  // Epoch-engine counters flow through from the verifier TPA.
  EXPECT_EQ(r.epochs_closed, r.epoch_closes);
  EXPECT_GE(r.rows_merged, r.epochs_closed);
  EXPECT_GT(r.updates_per_second(), 0.0);
}

TEST(UpdateStormTest, CountersDeterministicForFixedSeed) {
  const auto keys = ice::testing::test_keypair_256();
  const UpdateStormReport a = run_update_storm_simulation(small_storm(),
                                                          keys, 16);
  const UpdateStormReport b = run_update_storm_simulation(small_storm(),
                                                          keys, 16);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.updates_staged, b.updates_staged);
  EXPECT_EQ(a.failed_audits, b.failed_audits);
  EXPECT_EQ(a.epoch_closes, b.epoch_closes);
  EXPECT_EQ(a.rows_merged, b.rows_merged);
  EXPECT_EQ(a.blocks_written_back, b.blocks_written_back);
}

TEST(UpdateStormTest, ConfigValidation) {
  const auto keys = ice::testing::test_keypair_256();
  UpdateStormConfig c = small_storm();
  c.rounds = 0;
  EXPECT_THROW(run_update_storm_simulation(c, keys, 18), ParamError);
  c = small_storm();
  c.close_every = 0;
  EXPECT_THROW(run_update_storm_simulation(c, keys, 18), ParamError);
  c = small_storm();
  c.ops_per_round = 0;
  EXPECT_THROW(run_update_storm_simulation(c, keys, 18), ParamError);
}

}  // namespace
}  // namespace ice::sim
