// Fleet simulation (sim/simulator.h run_fleet_simulation): every
// CorruptionKind is caught within the scheduler's bounded number of
// rounds, clean edges are never starved, detection counters do not depend
// on how the refill worker races the audit loop, and the pool accounting
// is sane.
#include <gtest/gtest.h>

#include "common/error.h"
#include "sim/simulator.h"
#include "support/ice_fixtures.h"

namespace ice::sim {
namespace {

FleetConfig small_fleet() {
  FleetConfig config;
  config.edges = 5;
  config.n_blocks = 16;
  config.block_bytes = 48;
  config.blocks_per_edge = 3;
  config.rounds = 10;
  config.round_budget = 5;  // budget covers the fleet: detect next audit
  config.corrupt_every = 2;
  config.parallelism = 1;
  return config;
}

TEST(FleetSimTest, EveryCorruptionKindDetectedWithinBound) {
  FleetConfig config = small_fleet();
  config.corrupt_every = 1;  // 10 injections: each kind struck twice
  const FleetReport report =
      run_fleet_simulation(config, ice::testing::test_keypair_256(), 21);
  EXPECT_EQ(report.rounds, config.rounds);
  EXPECT_EQ(report.corruptions_injected, 10u);
  // Budget covers the whole fleet, so every injection is audited promptly;
  // at most the final round's strike can still be pending at shutdown.
  EXPECT_GE(report.corruptions_detected, report.corruptions_injected - 1);
  EXPECT_EQ(report.failed_audits, report.corruptions_detected);
  EXPECT_LE(report.max_detection_lag_rounds, report.staleness_bound + 1);
}

TEST(FleetSimTest, NoEdgeStarvesAndCountersAreSane) {
  const FleetConfig config = small_fleet();
  const FleetReport report =
      run_fleet_simulation(config, ice::testing::test_keypair_256(), 22);
  EXPECT_EQ(report.edges, config.edges);
  EXPECT_GT(report.audits, 0u);
  EXPECT_LE(report.max_staleness_seen, report.staleness_bound);
  EXPECT_GE(report.audits, config.rounds);  // at least budget-limited rounds
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(report.audits_per_second(), 0.0);
  // Every start_audit either hit or missed the pool — exactly once per
  // audit.
  EXPECT_EQ(report.pool_hits + report.pool_misses,
            static_cast<std::uint64_t>(report.audits));
  EXPECT_GE(report.pool_hit_rate(), 0.0);
  EXPECT_LE(report.pool_hit_rate(), 1.0);
}

// Which challenges pop and which mint inline depends on how the refill
// worker races the audit loop; the verdicts and detection counters do not.
TEST(FleetSimTest, OfflineSplitNeverChangesVerdictCounters) {
  FleetConfig config = small_fleet();
  config.rounds = 6;
  const auto keys = ice::testing::test_keypair_256();
  const FleetReport first = run_fleet_simulation(config, keys, 23);
  const FleetReport second = run_fleet_simulation(config, keys, 23);
  EXPECT_GE(first.pool_misses, 1u);  // the first challenge mints inline
  EXPECT_EQ(first.audits, second.audits);
  EXPECT_EQ(first.failed_audits, second.failed_audits);
  EXPECT_EQ(first.corruptions_injected, second.corruptions_injected);
  EXPECT_EQ(first.corruptions_detected, second.corruptions_detected);
  EXPECT_EQ(first.max_detection_lag_rounds, second.max_detection_lag_rounds);
  EXPECT_EQ(first.max_staleness_seen, second.max_staleness_seen);
}

TEST(FleetSimTest, RejectsDegenerateConfigs) {
  const auto keys = ice::testing::test_keypair_256();
  FleetConfig config = small_fleet();
  config.edges = 0;
  EXPECT_THROW(run_fleet_simulation(config, keys, 1), ParamError);
  config = small_fleet();
  config.blocks_per_edge = config.n_blocks + 1;
  EXPECT_THROW(run_fleet_simulation(config, keys, 1), ParamError);
}

}  // namespace
}  // namespace ice::sim
