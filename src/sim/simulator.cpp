#include "sim/simulator.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>

#include "common/rng.h"
#include "common/stats.h"
#include "common/stopwatch.h"
#include "ice/fleet_scheduler.h"
#include "ice/localize.h"
#include "mec/corruption.h"
#include "mec/workload.h"
#include "sim/deployment.h"

namespace ice::sim {

namespace {

using namespace proto;

ProtocolParams make_params(const KeyPair& keys, std::size_t block_bytes,
                           std::size_t parallelism) {
  ProtocolParams p;
  p.modulus_bits = keys.pk.modulus_bits();
  p.block_bytes = block_bytes;
  p.parallelism = parallelism;
  return p;
}

}  // namespace

SimReport run_simulation(const SimConfig& config, const KeyPair& keys,
                         std::uint64_t seed) {
  Deployment world(make_params(keys, config.block_bytes, config.parallelism),
                   keys, config.n_blocks, 1, config.cache_capacity, seed);
  world.setup();
  UserClient& user = world.user();
  mec::EdgeCache& cache = world.edge(0).cache_for_corruption();
  SplitMix64 rng(seed ^ 0x51b0);
  mec::ZipfWorkload workload(config.n_blocks, config.zipf_exponent);
  const EdgeClient edge(world.user_edge(0));
  const CspClient cloud(world.user_csp());
  SimReport report;

  auto audit_and_repair = [&] {
    ++report.audits;
    Stopwatch sw;
    const bool pass = user.audit_edge(world.user_edge(0), 0);
    report.audit_seconds_total += sw.seconds();
    if (pass) return;
    ++report.failed_audits;
    const LocalizationResult located =
        user.localize_corruption(world.user_edge(0));
    for (std::size_t index : located.corrupted) {
      if (cache.dirty(index)) {
        // The only current copy was on the edge: the update is gone. The
        // best we can do is roll back to the CSP's stale version.
        ++report.updates_lost;
        cache.raw_block(index) = cloud.fetch(index);
        cache.mark_clean(index);
        user.forget_updated_block(index);
      } else {
        cache.raw_block(index) = cloud.fetch(index);
      }
      ++report.blocks_repaired;
    }
  };

  // Write-back: audit first (never flush unverified data), push dirty
  // blocks to the CSP, then refresh just the affected tags at the TPAs
  // (incremental data dynamics, kTpaUpdateTag).
  auto do_flush = [&] {
    audit_and_repair();
    ++report.flushes;
    const auto pending = user.updated_blocks();  // copy: commit erases
    report.blocks_written_back += edge.flush();
    for (const auto& [index, content] : pending) {
      user.commit_updated_block(index, content);
    }
  };

  for (std::size_t tick = 1; tick <= config.ticks; ++tick) {
    // Traffic.
    for (std::size_t r = 0; r < config.requests_per_tick; ++r) {
      const std::size_t block = workload.next(rng);
      ++report.requests;
      if (rng.uniform01() < config.write_fraction) {
        ++report.writes;
        Bytes content(config.block_bytes);
        for (auto& b : content) b = static_cast<std::uint8_t>(rng());
        try {
          edge.write(block, content);
        } catch (const ProtocolError&) {
          // Cache full of dirty blocks: write pressure forces an early
          // write-back, as a real edge would.
          do_flush();
          edge.write(block, content);
        }
        user.note_updated_block(block, std::move(content));
      } else {
        ++report.reads;
        try {
          (void)edge.read(block);
        } catch (const ProtocolError&) {
          do_flush();
          (void)edge.read(block);
        }
      }
    }
    // Silent corruption.
    if (rng.uniform01() < config.corruption_prob_per_tick && cache.size() > 0) {
      mec::corrupt_random_blocks(cache, 1, mec::CorruptionKind::kBitFlip, rng);
      ++report.corruptions_injected;
    }
    if (tick % config.flush_every == 0) {
      do_flush();
    } else if (tick % config.audit_every == 0) {
      audit_and_repair();
    }
  }

  report.cache_hits = cache.hits();
  report.cache_misses = cache.misses();
  return report;
}

FleetReport run_fleet_simulation(const FleetConfig& config,
                                 const KeyPair& keys, std::uint64_t seed) {
  if (config.edges == 0) throw ParamError("fleet: edges must be >= 1");
  if (config.rounds == 0) throw ParamError("fleet: rounds must be >= 1");
  if (config.blocks_per_edge == 0 ||
      config.blocks_per_edge > config.n_blocks) {
    throw ParamError("fleet: blocks_per_edge must be in [1, n_blocks]");
  }

  Deployment world(make_params(keys, config.block_bytes, config.parallelism),
                   keys, config.n_blocks, config.edges,
                   config.blocks_per_edge, seed);
  world.setup();
  // Overlapping pre-download slices around the file, as query-driven
  // caching would produce.
  for (std::size_t i = 0; i < config.edges; ++i) {
    std::vector<std::size_t> slice(config.blocks_per_edge);
    for (std::size_t k = 0; k < slice.size(); ++k) {
      slice[k] = (i * (config.blocks_per_edge / 2 + 1) + k) % config.n_blocks;
    }
    std::sort(slice.begin(), slice.end());
    slice.erase(std::unique(slice.begin(), slice.end()), slice.end());
    world.edge(i).pre_download(slice);
  }

  FleetSchedulerConfig sched_config;
  sched_config.round_budget = config.round_budget;
  FleetScheduler scheduler(sched_config);
  for (std::size_t i = 0; i < config.edges; ++i) {
    scheduler.add_edge(static_cast<std::uint32_t>(i));
  }

  SplitMix64 rng(seed ^ 0xf1ee7);
  const CspClient cloud(world.user_csp());
  constexpr mec::CorruptionKind kKinds[] = {
      mec::CorruptionKind::kBitFlip, mec::CorruptionKind::kByteStuck,
      mec::CorruptionKind::kTruncate, mec::CorruptionKind::kZeroFill,
      mec::CorruptionKind::kGarbage};

  FleetReport report;
  report.edges = config.edges;
  report.staleness_bound = scheduler.staleness_bound();
  // Ground truth per corrupted edge: the round the FIRST still-undetected
  // corruption landed, and every victim block (for repair).
  struct Pending {
    std::size_t round = 0;
    std::vector<std::size_t> victims;
  };
  std::map<std::uint32_t, Pending> pending;
  SampleStats latencies;
  Stopwatch wall;

  for (std::size_t round = 1; round <= config.rounds; ++round) {
    if (config.corrupt_every != 0 && round % config.corrupt_every == 1 % config.corrupt_every) {
      const auto victim_edge =
          static_cast<std::uint32_t>(rng.below(config.edges));
      auto& cache = world.edge(victim_edge).cache_for_corruption();
      const auto kind = kKinds[report.corruptions_injected % std::size(kKinds)];
      std::vector<std::size_t> victims =
          mec::corrupt_random_blocks(cache, 1, kind, rng);
      // Styles like kZeroFill are idempotent; if the block happened to
      // already hold the corrupted image (double strike on one edge), fall
      // back to a bit flip so every injection is a real integrity breach.
      for (std::size_t index : victims) {
        if (cache.raw_block(index) == cloud.fetch(index)) {
          mec::corrupt_block(cache.raw_block(index),
                             mec::CorruptionKind::kBitFlip, rng);
        }
      }
      ++report.corruptions_injected;
      auto [it, fresh] = pending.try_emplace(victim_edge);
      if (fresh) it->second.round = round;
      it->second.victims.insert(it->second.victims.end(), victims.begin(),
                                victims.end());
    }

    for (const std::uint32_t id : scheduler.plan_round()) {
      Stopwatch sw;
      const bool pass = world.user().audit_edge(world.user_edge(id), id);
      latencies.add(sw.seconds());
      ++report.audits;
      scheduler.record(id, pass);
      if (pass) continue;
      ++report.failed_audits;
      const auto it = pending.find(id);
      if (it == pending.end()) continue;  // cannot happen: no false alarms
      ++report.corruptions_detected;
      report.max_detection_lag_rounds = std::max(
          report.max_detection_lag_rounds, round - it->second.round);
      // Repair from the cloud's clean copies (nothing here is dirty).
      auto& cache = world.edge(id).cache_for_corruption();
      for (const std::size_t index : it->second.victims) {
        if (cache.contains(index)) cache.raw_block(index) = cloud.fetch(index);
      }
      pending.erase(it);
    }
    scheduler.finish_round();
    for (std::size_t i = 0; i < config.edges; ++i) {
      report.max_staleness_seen =
          std::max(report.max_staleness_seen,
                   scheduler.staleness(static_cast<std::uint32_t>(i)));
    }
  }

  report.wall_seconds = wall.seconds();
  report.rounds = config.rounds;
  report.audit_seconds_total =
      latencies.empty() ? 0.0 : latencies.mean() * latencies.count();
  report.audit_seconds_mean = latencies.empty() ? 0.0 : latencies.mean();
  report.audit_seconds_p95 = latencies.empty() ? 0.0 : latencies.percentile(95);
  const proto::OfflineStats pool = world.tpa(0).offline_stats();
  report.pool_hits = pool.hits;
  report.pool_misses = pool.misses;
  return report;
}

UpdateStormReport run_update_storm_simulation(const UpdateStormConfig& config,
                                              const KeyPair& keys,
                                              std::uint64_t seed) {
  if (config.rounds == 0 || config.ops_per_round == 0) {
    throw ParamError("storm: rounds and ops_per_round must be >= 1");
  }
  if (config.close_every == 0) {
    throw ParamError("storm: close_every must be >= 1");
  }

  Deployment world(make_params(keys, config.block_bytes, config.parallelism),
                   keys, config.n_blocks, 1, config.cache_capacity, seed);
  world.setup();
  UserClient& user = world.user();

  SplitMix64 rng(seed ^ 0x5702f1);
  mec::MixedWorkload workload(
      std::make_unique<mec::ZipfWorkload>(config.n_blocks,
                                          config.zipf_exponent),
      std::make_unique<mec::HotspotWorkload>(config.n_blocks,
                                             config.hot_blocks,
                                             config.hot_fraction),
      config.write_fraction);
  const EdgeClient edge(world.user_edge(0));
  UpdateStormReport report;
  SampleStats audit_latency;

  // Delayed write-back boundary: push dirty blocks to the CSP, merge the
  // staged tag delta into the readable epoch, then drop the session notes
  // (from here the merged tags cover the new content directly).
  auto flush_and_close = [&] {
    Stopwatch sw;
    report.blocks_written_back += edge.flush();
    if (user.close_epochs()) ++report.epoch_closes;
    for (const auto& [index, content] : user.updated_blocks()) {
      (void)content;
      user.forget_updated_block(index);
    }
    report.close_seconds_total += sw.seconds();
  };

  for (std::size_t round = 1; round <= config.rounds; ++round) {
    for (std::size_t op = 0; op < config.ops_per_round; ++op) {
      const mec::AccessOp access = workload.next_op(rng);
      ++report.ops;
      if (access.write) {
        Bytes content(config.block_bytes);
        for (auto& b : content) b = static_cast<std::uint8_t>(rng());
        try {
          edge.write(access.index, content);
        } catch (const ProtocolError&) {
          // Cache full of dirty blocks: write pressure forces the
          // write-back + close early, as a real edge would.
          flush_and_close();
          edge.write(access.index, content);
        }
        // Stage the re-tag at both TPAs (invisible until the close) and
        // note the update so mid-storm audits repack the fresh tag.
        Stopwatch sw;
        user.update_block(access.index, content);
        report.update_seconds_total += sw.seconds();
        ++report.updates_staged;
        user.note_updated_block(access.index, std::move(content));
      } else {
        ++report.reads;
        try {
          (void)edge.read(access.index);
        } catch (const ProtocolError&) {
          flush_and_close();
          (void)edge.read(access.index);
        }
      }
    }
    // The measured axis: a full audit mid-storm, staged delta outstanding.
    Stopwatch sw;
    const bool pass = user.audit_edge(world.user_edge(0), 0);
    audit_latency.add(sw.seconds());
    ++report.audits;
    if (!pass) ++report.failed_audits;
    if (round % config.close_every == 0) flush_and_close();
  }

  report.rounds = config.rounds;
  report.audit_seconds_mean =
      audit_latency.empty() ? 0.0 : audit_latency.mean();
  report.audit_seconds_p95 =
      audit_latency.empty() ? 0.0 : audit_latency.percentile(95);
  const StoreEpochStats stats = world.tpa(0).epoch_stats();
  report.epochs_closed = stats.db.epochs_closed;
  report.rows_merged = stats.db.rows_merged;
  return report;
}

}  // namespace ice::sim
