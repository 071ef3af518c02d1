// Fused multi-query bitsliced PIR engine vs a per-point loop.
//
// For each (n, m) cell this measures
//   loop      — m separate per-point sweeps in the pre-fusion bitsliced
//               evaluation structure (see below),
//   fused     — one respond() pass at the best SIMD tier this CPU has,
//   fused/u64 — the same fused pass with the portable kernel forced,
// and reports speedup plus the tag bytes each variant streams through the
// accumulators (the loop sweeps the database m times, the fused engine
// once). Results land in BENCH_pir.json for EXPERIMENTS.md.
//
// The loop baseline is a transcription of the per-point bitsliced inner
// loop the fused engine replaced — scalar XOR lambda, branchy
// per-component skips, fresh plane allocations per call, per-bit unpack —
// checked against the fused engine's one-point answer before timing.
//
// A second arm measures two threads responding at once on one shared
// pooled server (n = 10^5, m = 10), the way both TPA replicas of one
// process answer a retrieval together. Each repetition starts both
// responds together; the medians of the faster and the slower respond of
// each pair land next to a lone pooled respond's and a serial one's, so an
// uneven split of the shared thread pool between concurrent broadcasts
// shows as a slow/fast ratio far above 1 (the slower respond then runs at
// about serial speed).
#include <barrier>
#include <thread>

#include "support.h"

#include "common/parallel.h"
#include "common/simd.h"
#include "pir/client.h"
#include "pir/server.h"

namespace {

using namespace ice;
using namespace ice::bench;

struct Cell {
  double loop_ms;
  double fused_ms;
  double fused_portable_ms;
};

// Per-point bitsliced evaluation as it was before the fused engine
// (plane-major gradients: out.gradients[pi][j] = dF_pi/dx_j, the old wire
// layout).
struct BaselineResult {
  gf::GF4Vector values;
  std::vector<gf::GF4Vector> gradients;
};

BaselineResult baseline_bitsliced(const pir::TagDatabase& db,
                                  const pir::Embedding& emb,
                                  const gf::GF4Vector& q) {
  const std::size_t n = db.size();
  const std::size_t k = db.tag_bits();
  const std::size_t gamma = emb.gamma();
  const std::size_t w = db.words_per_tag();
  auto xor_row = [w](std::uint64_t* dst, const std::uint64_t* src) {
    for (std::size_t j = 0; j < w; ++j) dst[j] ^= src[j];
  };
  std::vector<std::uint64_t> v_lo(w, 0), v_hi(w, 0);
  std::vector<std::uint64_t> g_lo(gamma * w, 0), g_hi(gamma * w, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const pir::Embedding::Triple t = emb.triple(i);
    const gf::GF4 qa = q[t[0]], qb = q[t[1]], qc = q[t[2]];
    const gf::GF4 deriv[3] = {qb * qc, qa * qc, qa * qb};
    const gf::GF4 mono = qa * deriv[0];
    const std::uint64_t* row = db.row(i);
    if (mono.value() & 1) xor_row(v_lo.data(), row);
    if (mono.value() & 2) xor_row(v_hi.data(), row);
    for (int d = 0; d < 3; ++d) {
      const gf::GF4 dv = deriv[d];
      if (dv.is_zero()) continue;
      const std::size_t pos = t[static_cast<std::size_t>(d)];
      if (dv.value() & 1) xor_row(g_lo.data() + pos * w, row);
      if (dv.value() & 2) xor_row(g_hi.data() + pos * w, row);
    }
  }
  BaselineResult out;
  out.values.assign(k, gf::GF4::zero());
  out.gradients.assign(k, gf::GF4Vector(gamma));
  for (std::size_t pi = 0; pi < k; ++pi) {
    const std::size_t word = pi / 64;
    const std::size_t bit = pi % 64;
    const auto lo = static_cast<std::uint8_t>((v_lo[word] >> bit) & 1u);
    const auto hi = static_cast<std::uint8_t>((v_hi[word] >> bit) & 1u);
    out.values[pi] = gf::GF4(static_cast<std::uint8_t>(lo | (hi << 1)));
    gf::GF4Vector& grad = out.gradients[pi];
    for (std::size_t j = 0; j < gamma; ++j) {
      const auto glo =
          static_cast<std::uint8_t>((g_lo[j * w + word] >> bit) & 1u);
      const auto ghi =
          static_cast<std::uint8_t>((g_hi[j * w + word] >> bit) & 1u);
      grad[j] = gf::GF4(static_cast<std::uint8_t>(glo | (ghi << 1)));
    }
  }
  return out;
}

// The transcription must compute the same response as today's engine
// (modulo the gradient transpose) or the comparison is meaningless.
void check_baseline(const pir::PirServer& server, const pir::TagDatabase& db,
                    const pir::Embedding& emb, const gf::GF4Vector& q) {
  const BaselineResult base = baseline_bitsliced(db, emb, q);
  pir::PirQuery one;
  one.points.push_back(q);
  const pir::PirSingleResponse ref = server.respond(one).entries.at(0);
  bool ok = base.values == ref.values;
  for (std::size_t pi = 0; ok && pi < base.values.size(); ++pi) {
    for (std::size_t j = 0; j < emb.gamma(); ++j) {
      if (base.gradients[pi][j] != ref.gradients[j][pi]) ok = false;
    }
  }
  if (!ok) {
    std::fprintf(stderr, "FATAL: per-point baseline disagrees with engine\n");
    std::exit(1);
  }
}

pir::PirQuery make_query(const pir::Embedding& emb, std::size_t n,
                         std::size_t tag_bits, std::size_t m,
                         std::uint64_t seed) {
  SplitMix64 gen(seed);
  bn::Rng64Adapter rng(gen);
  const pir::PirClient client(emb, tag_bits);
  std::vector<std::size_t> wanted(m);
  for (auto& idx : wanted) idx = gen.below(n);
  return client.encode(wanted, rng).queries[0];
}

Cell measure(const pir::PirServer& server, const pir::TagDatabase& db,
             const pir::Embedding& emb, const pir::PirQuery& query,
             int reps) {
  Cell cell{};
  const simd::XorTier best = simd::best_supported_tier();
  simd::set_active_tier(simd::XorTier::kPortable);
  check_baseline(server, db, emb, query.points.front());
  cell.loop_ms = 1e3 * time_median(reps, [&] {
    for (const auto& q : query.points) (void)baseline_bitsliced(db, emb, q);
  });
  cell.fused_portable_ms =
      1e3 * time_median(reps, [&] { (void)server.respond(query); });
  simd::set_active_tier(best);
  cell.fused_ms =
      1e3 * time_median(reps, [&] { (void)server.respond(query); });
  return cell;
}

struct ConcurrentCell {
  double serial_ms;  // parallelism 1: one thread, no pool
  double lone_ms;    // the pooled server answering alone
  double fast_ms;  // median of the faster respond of each concurrent pair
  double slow_ms;  // median of the slower one
};

double median_ms(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Serial and lone pooled responds vs two threads responding at once with
// different queries on ONE pooled server (parallelism 0: one chunk per
// hardware thread).
ConcurrentCell measure_concurrent(const pir::PirServer& serial,
                                  const pir::PirServer& server,
                                  const pir::PirQuery (&queries)[2],
                                  int reps) {
  ConcurrentCell cell{};
  cell.serial_ms =
      1e3 * time_median(reps, [&] { (void)serial.respond(queries[0]); });
  cell.lone_ms =
      1e3 * time_median(reps, [&] { (void)server.respond(queries[0]); });
  std::vector<double> ms[2];
  std::barrier start(2);
  const auto lane = [&](std::size_t t) {
    for (int r = 0; r < reps; ++r) {
      start.arrive_and_wait();
      Stopwatch sw;
      (void)server.respond(queries[t]);
      ms[t].push_back(sw.millis());
    }
  };
  std::thread other(lane, 1);
  lane(0);
  other.join();
  std::vector<double> fast, slow;
  for (int r = 0; r < reps; ++r) {
    fast.push_back(std::min(ms[0][r], ms[1][r]));
    slow.push_back(std::max(ms[0][r], ms[1][r]));
  }
  cell.fast_ms = median_ms(fast);
  cell.slow_ms = median_ms(slow);
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = smoke_mode(argc, argv);
  const std::size_t tag_bits = smoke ? 64 : 1024;
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{60}
            : std::vector<std::size_t>{1000, 10000};
  const std::vector<std::size_t> batch =
      smoke ? std::vector<std::size_t>{1, 4}
            : std::vector<std::size_t>{1, 4, 16, 64};

  print_header("Fused multi-query bitsliced PIR evaluation (K = tag bits)");
  std::printf("XOR kernel: %s (best supported tier)\n",
              simd::tier_name(simd::best_supported_tier()));
  std::printf("%-7s %-4s %12s %12s %14s %9s %9s %12s\n", "n", "m",
              "loop(ms)", "fused(ms)", "fused/u64(ms)", "speedup", "simd x",
              "swept(MB)");

  for (std::size_t n : sizes) {
    pir::TagDatabase db(tag_bits);
    for (const auto& t : synthetic_tags(n, tag_bits, 7 + n)) db.add(t);
    const pir::Embedding emb(n);
    const double row_mb =
        static_cast<double>(n * db.words_per_tag() * 8) / (1024.0 * 1024.0);
    const pir::PirServer server(db, emb, /*parallelism=*/1);

    for (std::size_t m : batch) {
      const pir::PirQuery query = make_query(emb, n, tag_bits, m, 11 * n + m);
      const Cell cell = measure(server, db, emb, query, smoke ? 1 : 5);
      const double speedup = cell.loop_ms / cell.fused_ms;
      const double simd_gain = cell.fused_portable_ms / cell.fused_ms;
      std::printf("%-7zu %-4zu %12.3f %12.3f %14.3f %8.2fx %8.2fx "
                  "%6.1f->%4.1f\n",
                  n, m, cell.loop_ms, cell.fused_ms, cell.fused_portable_ms,
                  speedup, simd_gain, static_cast<double>(m) * row_mb,
                  row_mb);
      if (!smoke) {
        std::ostringstream body;
        body << "{\"tag_bits\": " << tag_bits << ", \"n\": " << n
             << ", \"m\": " << m << ", \"loop_ms\": " << cell.loop_ms
             << ", \"fused_ms\": " << cell.fused_ms
             << ", \"fused_portable_ms\": " << cell.fused_portable_ms
             << ", \"speedup\": " << speedup
             << ", \"portable_over_simd\": " << simd_gain
             << ", \"swept_mb_loop\": " << static_cast<double>(m) * row_mb
             << ", \"swept_mb_fused\": " << row_mb << ", \"kernel\": \""
             << simd::tier_name(simd::best_supported_tier()) << "\"}";
        std::ostringstream section;
        section << "pir_bitsliced_n" << n << "_m" << m;
        emit_parallel_json(section.str(), body.str(), "BENCH_pir.json");
      }
    }
  }
  std::printf("\nTakeaway: one database sweep with m-way accumulation "
              "replaces m sweeps;\nthe SIMD XOR kernels stack on top.\n");

  const std::size_t cn = smoke ? 200 : 100000;
  const std::size_t cm = 10;
  const int creps = smoke ? 3 : 25;
  print_header("Two concurrent bitsliced responds on one shared server");
  std::printf("%-7s %-4s %-8s %10s %10s %10s %10s %10s\n", "n", "m",
              "threads", "serial(ms)", "lone(ms)", "fast(ms)", "slow(ms)",
              "slow/fast");
  {
    pir::TagDatabase db(tag_bits);
    for (const auto& t : synthetic_tags(cn, tag_bits, 7 + cn)) db.add(t);
    const pir::Embedding emb(cn);
    const pir::PirServer serial(db, emb, /*parallelism=*/1);
    const pir::PirServer server(db, emb, /*parallelism=*/0);
    const pir::PirQuery queries[2] = {
        make_query(emb, cn, tag_bits, cm, 13 * cn),
        make_query(emb, cn, tag_bits, cm, 13 * cn + 1)};
    const ConcurrentCell cell =
        measure_concurrent(serial, server, queries, creps);
    const std::size_t threads = resolve_parallelism(0);
    std::printf("%-7zu %-4zu %-8zu %10.3f %10.3f %10.3f %10.3f %9.2fx\n",
                cn, cm, threads, cell.serial_ms, cell.lone_ms, cell.fast_ms,
                cell.slow_ms, cell.slow_ms / cell.fast_ms);
    if (!smoke) {
      std::ostringstream body;
      body << "{\"tag_bits\": " << tag_bits << ", \"n\": " << cn
           << ", \"m\": " << cm << ", \"threads\": " << threads
           << ", \"reps\": " << creps << ", \"serial_ms\": " << cell.serial_ms
           << ", \"lone_ms\": " << cell.lone_ms
           << ", \"concurrent_fast_ms\": " << cell.fast_ms
           << ", \"concurrent_slow_ms\": " << cell.slow_ms
           << ", \"slow_over_fast\": " << cell.slow_ms / cell.fast_ms << "}";
      std::ostringstream section;
      section << "pir_concurrent_bitsliced_n" << cn << "_m" << cm;
      emit_parallel_json(section.str(), body.str(), "BENCH_pir.json");
    }
  }
  return 0;
}
