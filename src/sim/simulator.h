// Scenario simulator: drives the full ICE stack through days of virtual
// edge-cloud operation.
//
// Ties every piece together the way a deployment would: Zipf request
// traffic populates edge caches, users update blocks at the edge (delayed
// write-back), silent corruption strikes at a configurable rate, periodic
// privacy-preserving audits catch it, localization pinpoints the damage,
// and repair re-fetches from the CSP. The report separates recoverable
// damage (clean cached copies) from REAL data loss: a corrupted DIRTY block
// whose only up-to-date copy lived on the edge — exactly the failure mode
// the paper's introduction warns about.
#pragma once

#include <cstdint>

#include "ice/keys.h"
#include "ice/params.h"

namespace ice::sim {

struct SimConfig {
  std::size_t n_blocks = 120;
  std::size_t block_bytes = 512;
  std::size_t cache_capacity = 16;
  double zipf_exponent = 1.0;
  std::size_t ticks = 600;
  std::size_t requests_per_tick = 2;
  double write_fraction = 0.05;        // share of requests that are updates
  std::size_t audit_every = 50;        // ticks between audits
  std::size_t flush_every = 200;       // ticks between write-backs
  double corruption_prob_per_tick = 0.01;
  /// Worker-task budget for the audit hot paths (ProtocolParams convention:
  /// 0 = hardware concurrency, 1 = single-threaded legacy path). Audit
  /// verdicts and every report counter are identical at every setting.
  std::size_t parallelism = 0;
};

struct SimReport {
  std::size_t requests = 0;
  std::size_t reads = 0;
  std::size_t writes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::size_t corruptions_injected = 0;
  std::size_t audits = 0;
  std::size_t failed_audits = 0;
  std::size_t blocks_repaired = 0;
  std::size_t updates_lost = 0;   // corrupted dirty blocks: unrecoverable
  std::size_t flushes = 0;
  std::size_t blocks_written_back = 0;
  double audit_seconds_total = 0.0;

  [[nodiscard]] double hit_rate() const {
    const auto total = cache_hits + cache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(cache_hits) /
                            static_cast<double>(total);
  }
};

/// Runs one simulation. Deterministic for a fixed (config, keys, seed).
/// Every audit uses the real protocol (PIR retrieval, blinding, proofs);
/// nothing is stubbed.
SimReport run_simulation(const SimConfig& config, const proto::KeyPair& keys,
                         std::uint64_t seed);

/// Fleet-scale audit scheduling scenario (PR 8): one verifier TPA watches
/// `edges` edge caches, running continuous audit rounds planned by
/// ice/fleet_scheduler.h with the online/offline challenge split enabled.
/// Each round the scheduler picks `round_budget` edges by staleness and
/// corruption risk; silent corruption strikes a random edge every
/// `corrupt_every` rounds and the report tracks how many rounds it survived
/// before an audit caught it.
struct FleetConfig {
  std::size_t edges = 100;
  std::size_t n_blocks = 96;         // file size (tags at the TPAs)
  std::size_t block_bytes = 256;
  std::size_t blocks_per_edge = 8;   // pre-download set size per edge
  std::size_t rounds = 12;
  std::size_t round_budget = 16;     // audits per round (scheduler budget)
  std::size_t corrupt_every = 3;     // rounds between injections (0 = never)
  std::size_t parallelism = 0;       // ProtocolParams convention
  /// Online/offline split at the verifier TPA (ice/offline.h). On by
  /// default here — the whole point of the fleet scenario; audit verdicts
  /// and detection counters are identical with it off, just slower.
  bool offline = true;
  std::size_t pool_capacity = 32;
  std::size_t pool_shards = 4;
  std::size_t coeff_count = 64;      // >= blocks_per_edge for full precompute
};

struct FleetReport {
  std::size_t edges = 0;
  std::size_t rounds = 0;
  std::size_t audits = 0;
  std::size_t failed_audits = 0;
  std::size_t corruptions_injected = 0;
  std::size_t corruptions_detected = 0;
  /// Rounds between an injection and the failing audit that exposed it,
  /// worst case over all detections. The scheduler guarantees this stays
  /// <= staleness_bound (+1 for an injection landing mid-round).
  std::size_t max_detection_lag_rounds = 0;
  std::size_t staleness_bound = 0;     // scheduler's forced-audit threshold
  std::size_t max_staleness_seen = 0;  // worst staleness any edge reached
  std::uint64_t pool_hits = 0;         // start_audit served from the pool
  std::uint64_t pool_misses = 0;       // cold-path fallbacks
  double audit_seconds_total = 0.0;
  double audit_seconds_mean = 0.0;
  double audit_seconds_p95 = 0.0;
  double wall_seconds = 0.0;

  [[nodiscard]] double pool_hit_rate() const {
    const auto total = pool_hits + pool_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(pool_hits) /
                            static_cast<double>(total);
  }
  [[nodiscard]] double audits_per_second() const {
    return wall_seconds > 0.0
               ? static_cast<double>(audits) / wall_seconds
               : 0.0;
  }
};

/// Runs the fleet scenario. Audit verdicts and every detection counter are
/// deterministic for a fixed (config, keys, seed) — pool hit/miss counts
/// are not (the refill worker races the audit loop by design).
FleetReport run_fleet_simulation(const FleetConfig& config,
                                 const proto::KeyPair& keys,
                                 std::uint64_t seed);

/// Update-storm scenario (PR 9): measures update throughput and audit
/// latency AGAINST each other on the epoch engine. A read/write mixed
/// stream (mec::MixedWorkload: Zipf reads, hotspot writes) drives delayed
/// write-back at the edge while every write re-tags its block and STAGES
/// the fresh tag at both TPAs (UserClient::update_block); one full audit
/// runs per round mid-storm; every `close_every` rounds the edge flushes
/// to the CSP and the client closes the epoch at both TPAs, merging the
/// accumulated delta. Audits must pass throughout — session notes cover
/// dirty blocks before the close, merged tags after.
struct UpdateStormConfig {
  std::size_t n_blocks = 96;
  std::size_t block_bytes = 256;
  std::size_t cache_capacity = 24;
  double zipf_exponent = 1.0;        // read popularity skew
  std::size_t hot_blocks = 8;        // write working set
  double hot_fraction = 0.8;         // share of writes landing in it
  double write_fraction = 0.3;       // share of mixed ops that are writes
  std::size_t rounds = 6;
  std::size_t ops_per_round = 40;
  std::size_t close_every = 2;       // rounds between flush + epoch close
  std::size_t parallelism = 0;       // ProtocolParams convention
};

struct UpdateStormReport {
  std::size_t rounds = 0;
  std::size_t ops = 0;
  std::size_t reads = 0;
  std::size_t updates_staged = 0;
  std::size_t audits = 0;
  std::size_t failed_audits = 0;     // always 0: snapshot isolation + notes
  std::size_t epoch_closes = 0;      // close_epochs() calls that merged rows
  std::size_t blocks_written_back = 0;
  // Epoch-engine counters from the verifier TPA (TpaService::epoch_stats).
  std::uint64_t epochs_closed = 0;
  std::uint64_t rows_merged = 0;
  std::uint64_t pins_taken = 0;
  // The two axes measured against each other (wall-clock; not
  // deterministic, unlike every counter above).
  double update_seconds_total = 0.0;  // staging time across all writes
  double close_seconds_total = 0.0;   // flush + close_epochs time
  double audit_seconds_mean = 0.0;
  double audit_seconds_p95 = 0.0;

  [[nodiscard]] double updates_per_second() const {
    return update_seconds_total > 0.0
               ? static_cast<double>(updates_staged) / update_seconds_total
               : 0.0;
  }
};

/// Runs the update-storm scenario. Verdicts and all counters except the
/// wall-clock fields are deterministic for a fixed (config, keys, seed).
UpdateStormReport run_update_storm_simulation(const UpdateStormConfig& config,
                                              const proto::KeyPair& keys,
                                              std::uint64_t seed);

}  // namespace ice::sim
