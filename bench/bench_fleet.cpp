// The challenge pool + fleet-scale scheduling.
//
// Two measurements land in BENCH_fleet.json:
//
//  1. fleet_online_* — the TPA's challenge on the audit path at the paper's
//     1024-bit modulus and 256 KB blocks, minted inline vs popped from the
//     pool. An inline mint (a pool miss) draws (e, s) and computes g^s and
//     its 31 ladder rungs (the key's rungs built before the clock); a pop is
//     a ChallengePool::try_acquire of a bundle the same code minted ahead of
//     time. The pool holds kChallengePoolCapacity bundles, so the pops are
//     timed in rounds of that many, refilled off the clock.
//
//  2. fleet_sched_* — full-protocol fleet rounds (sim/simulator.h
//     run_fleet_simulation) at 100..1000 edges: audits/s, per-audit
//     latency, pool hit rate, and the corruption detection lag vs the
//     scheduler's staleness bound.
#include "support.h"

#include "ice/offline.h"
#include "sim/simulator.h"

namespace {

using namespace ice;
using namespace ice::bench;

struct OnlineCell {
  double inline_us = 0.0;  // make_challenge with the key's ladder
  double pop_us = 0.0;     // pool pop of a bundle minted ahead of time
  double speedup = 0.0;
  double hit_rate = 0.0;
};

OnlineCell measure_online_split(std::size_t modulus_bits, int rounds,
                                std::uint64_t seed) {
  const proto::KeyPair keys = bench_keypair(modulus_bits, seed);
  proto::ProtocolParams params;
  params.modulus_bits = keys.pk.modulus_bits();
  auto rungs = std::make_shared<const proto::RungBases>(keys.pk, params);
  SplitMix64 gen(seed ^ 0x0ff1);
  bn::Rng64Adapter rng(gen);
  (void)proto::make_bundle(keys.pk, params, rng, rungs.get());  // builds

  constexpr std::size_t kBurst = proto::kChallengePoolCapacity;
  const int reps = rounds * static_cast<int>(kBurst);
  OnlineCell cell;
  {
    Stopwatch sw;
    for (int i = 0; i < reps; ++i) {
      (void)proto::make_bundle(keys.pk, params, rng, rungs.get());
    }
    cell.inline_us = sw.seconds() * 1e6 / reps;
  }
  {
    proto::ChallengePool pool;
    const std::uint64_t generation = pool.rekey(keys.pk, params, rungs);
    double popped_s = 0.0;
    proto::ChallengeBundle out;
    for (int round = 0; round < rounds; ++round) {
      for (std::size_t i = 0; i < kBurst; ++i) {
        proto::ChallengeBundle bundle =
            proto::make_bundle(keys.pk, params, rng, rungs.get());
        bundle.generation = generation;
        if (!pool.offer(std::move(bundle))) {
          std::fprintf(stderr, "FATAL: prefill offer rejected\n");
          std::exit(1);
        }
      }
      Stopwatch sw;
      for (std::size_t i = 0; i < kBurst; ++i) {
        if (!pool.try_acquire(generation, out)) {
          std::fprintf(stderr, "FATAL: prefilled pool missed\n");
          std::exit(1);
        }
      }
      popped_s += sw.seconds();
    }
    cell.pop_us = popped_s * 1e6 / reps;
    cell.hit_rate = pool.stats().hit_rate();
  }
  cell.speedup = cell.pop_us > 0.0 ? cell.inline_us / cell.pop_us : 0.0;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = smoke_mode(argc, argv);

  // --- 1. Inline mint vs pool pop -------------------------------------
  const std::size_t online_bits = smoke ? 256 : 1024;
  const int online_rounds = smoke ? 1 : 8;
  print_header("Challenge pool: the TPA challenge on the audit path");
  std::printf("%-10s %-8s %12s %12s %10s %9s\n", "modulus", "reps",
              "inline(us)", "pop(us)", "speedup", "hit rate");
  const OnlineCell online =
      measure_online_split(online_bits, online_rounds, 7);
  const int online_reps =
      online_rounds * static_cast<int>(proto::kChallengePoolCapacity);
  std::printf("%-10zu %-8d %12.2f %12.3f %9.0fx %9.2f\n", online_bits,
              online_reps, online.inline_us, online.pop_us, online.speedup,
              online.hit_rate);
  if (!smoke) {
    std::ostringstream body;
    body << "{\"modulus_bits\": " << online_bits << ", \"reps\": "
         << online_reps << ", \"inline_us\": " << online.inline_us
         << ", \"pop_us\": " << online.pop_us
         << ", \"online_speedup\": " << online.speedup
         << ", \"pool_hit_rate\": " << online.hit_rate << "}";
    emit_parallel_json("fleet_online_phase", body.str(), "BENCH_fleet.json");
  }

  // --- 2. Fleet rounds through the scheduler ---------------------------
  const std::vector<std::size_t> fleet_sizes =
      smoke ? std::vector<std::size_t>{6}
            : std::vector<std::size_t>{100, 1000};
  print_header("Fleet scheduler: continuous audit rounds");
  std::printf("%-7s %-7s %-7s %10s %12s %12s %10s %7s %7s\n", "edges",
              "rounds", "budget", "audits/s", "mean(ms)", "p95(ms)",
              "hit rate", "inj", "det");
  const proto::KeyPair fleet_keys = bench_keypair(256, 11);
  for (std::size_t edges : fleet_sizes) {
    sim::FleetConfig config;
    config.edges = edges;
    config.n_blocks = smoke ? 24 : 96;
    config.block_bytes = smoke ? 64 : 256;
    config.blocks_per_edge = smoke ? 3 : 8;
    config.rounds = smoke ? 3 : (edges >= 1000 ? 8 : 16);
    config.round_budget = smoke ? 2 : (edges >= 1000 ? 64 : 16);
    config.corrupt_every = 2;
    const sim::FleetReport report =
        sim::run_fleet_simulation(config, fleet_keys, 29 + edges);
    std::printf("%-7zu %-7zu %-7zu %10.1f %12.3f %12.3f %10.2f %7zu %7zu\n",
                edges, report.rounds, config.round_budget,
                report.audits_per_second(), report.audit_seconds_mean * 1e3,
                report.audit_seconds_p95 * 1e3, report.pool_hit_rate(),
                report.corruptions_injected, report.corruptions_detected);
    if (!smoke) {
      std::ostringstream body;
      body << "{\"edges\": " << edges << ", \"rounds\": " << report.rounds
           << ", \"round_budget\": " << config.round_budget
           << ", \"audits\": " << report.audits
           << ", \"audits_per_s\": " << report.audits_per_second()
           << ", \"audit_mean_ms\": " << report.audit_seconds_mean * 1e3
           << ", \"audit_p95_ms\": " << report.audit_seconds_p95 * 1e3
           << ", \"pool_hit_rate\": " << report.pool_hit_rate()
           << ", \"corruptions_injected\": " << report.corruptions_injected
           << ", \"corruptions_detected\": " << report.corruptions_detected
           << ", \"max_detection_lag_rounds\": "
           << report.max_detection_lag_rounds
           << ", \"staleness_bound\": " << report.staleness_bound << "}";
      std::ostringstream section;
      section << "fleet_sched_e" << edges;
      emit_parallel_json(section.str(), body.str(), "BENCH_fleet.json");
    }
  }
  std::printf(
      "\nTakeaway: with challenges minted ahead of time, the TPA's challenge "
      "on the audit path\ncollapses to a pool pop, and the scheduler keeps "
      "detection lag within the\nstaleness bound across the whole fleet.\n");
  return 0;
}
