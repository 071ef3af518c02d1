// Sharded tag database vs the monolithic layout: aggregate audit
// throughput of the cross-shard PIR fan-out.
//
// For each (n, shard count) cell this builds ONE ShardedTagServer (both
// auditors hold identical replicas, so one server answering both sharded
// queries measures the same work as two servers answering one each),
// plans an m-point challenge with the ShardPlanner, and times the full
// audit round: plan -> respond_sharded x2 -> merge_decode. Each point
// sweeps only the rows of ITS shard, so at s shards the row-sweep volume
// drops ~s-fold versus the monolithic database accumulating all m points
// across every row; the per-shard gamma = ceil((6 n_s)^(1/3)) + 2 shrinks
// queries and responses on top. Decoded tags are checked against the
// plain-read values every cell before timing, so the speedup column can
// never come from a broken decode. Results land in BENCH_shards.json.
#include "support.h"

#include "ice/shard_audit.h"
#include "pir/shard_map.h"
#include "pir/sharded_server.h"

namespace {

using namespace ice;
using namespace ice::bench;

struct Cell {
  double build_s;     // server construction + plane preprocessing
  double round_ms;    // one full audit round (plan + 2 evals + merge)
  double points_per_s;
  std::size_t gamma0; // shard 0's embedding gamma (query width proxy)
};

Cell measure(std::span<const bn::BigInt> tags, std::size_t tag_bits,
             std::size_t shards, std::size_t m, int reps,
             std::uint64_t seed) {
  const std::size_t n = tags.size();
  const std::size_t budget = (n + shards - 1) / shards;
  Cell cell{};
  Stopwatch build;
  const pir::ShardedTagServer server(tag_bits, tags, budget,
                                     /*parallelism=*/1);
  server.preprocess();
  cell.build_s = build.seconds();
  if (server.num_shards() != shards) {
    std::fprintf(stderr, "FATAL: budget %zu gave %zu shards, wanted %zu\n",
                 budget, server.num_shards(), shards);
    std::exit(1);
  }
  cell.gamma0 = server.shard_gamma(0);

  const proto::ShardPlanner planner(server.map_snapshot(), tag_bits);
  SplitMix64 gen(seed);
  bn::Rng64Adapter rng(gen);
  std::vector<std::size_t> wanted(m);
  for (auto& idx : wanted) idx = gen.below(n);

  // Correctness gate: the sharded round must decode the exact tags.
  {
    const auto got =
        proto::retrieve_tags_sharded(server, server, wanted, rng);
    for (std::size_t i = 0; i < m; ++i) {
      if (got[i] != server.tag(wanted[i])) {
        std::fprintf(stderr, "FATAL: sharded decode wrong at point %zu\n", i);
        std::exit(1);
      }
    }
  }

  cell.round_ms = 1e3 * time_median(reps, [&] {
    const proto::ShardPlan plan = planner.plan(wanted, rng);
    pir::ShardedPirResponse r0, r1;
    server.respond_sharded(plan.queries[0], r0);
    server.respond_sharded(plan.queries[1], r1);
    (void)planner.merge_decode(plan, r0, r1);
  });
  cell.points_per_s = static_cast<double>(m) / (cell.round_ms / 1e3);
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = smoke_mode(argc, argv);
  const std::size_t tag_bits = smoke ? 64 : 1024;
  const std::size_t m = smoke ? 6 : 64;
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{240}
            : std::vector<std::size_t>{100000, 1000000};
  const std::vector<std::size_t> shard_counts =
      smoke ? std::vector<std::size_t>{1, 2, 7}
            : std::vector<std::size_t>{1, 2, 4, 8, 16, 32};

  print_header("Sharded tag database: cross-shard audit fan-out");
  std::printf("%-9s %-7s %7s %10s %12s %14s %9s\n", "n", "shards", "gamma",
              "build(s)", "round(ms)", "points/s", "speedup");

  for (std::size_t n : sizes) {
    const std::vector<bn::BigInt> tags = synthetic_tags(n, tag_bits, 17 + n);
    double base_points_per_s = 0.0;
    for (std::size_t shards : shard_counts) {
      const int reps = smoke ? 1 : (n >= 1000000 ? 3 : 5);
      const Cell cell =
          measure(tags, tag_bits, shards, m, reps, 23 * n + shards);
      if (shards == 1) base_points_per_s = cell.points_per_s;
      const double speedup = cell.points_per_s / base_points_per_s;
      std::printf("%-9zu %-7zu %7zu %10.2f %12.2f %14.1f %8.2fx\n", n,
                  shards, cell.gamma0, cell.build_s, cell.round_ms,
                  cell.points_per_s, speedup);
      if (!smoke) {
        std::ostringstream body;
        body << "{\"tag_bits\": " << tag_bits << ", \"n\": " << n
             << ", \"shards\": " << shards << ", \"m\": " << m
             << ", \"gamma_shard0\": " << cell.gamma0
             << ", \"build_s\": " << cell.build_s
             << ", \"round_ms\": " << cell.round_ms
             << ", \"aggregate_per_s\": " << cell.points_per_s
             << ", \"speedup_vs_1shard\": " << speedup << "}";
        std::ostringstream section;
        section << "shards_n" << n << "_s" << shards;
        emit_parallel_json(section.str(), body.str(), "BENCH_shards.json");
      }
    }
  }
  std::printf("\nTakeaway: routing each challenge point to its shard cuts "
              "the row-sweep volume\n~s-fold and shrinks gamma per shard; "
              "decode stays bit-exact at every layout.\n");
  return 0;
}
