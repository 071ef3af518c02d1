// The fused PIR engine's respond cost per (n, m) and SIMD tier.
//
// For each (n, m) cell and each XOR kernel tier this CPU supports, this
// times one single-threaded respond() and reports it as nanoseconds per
// row·point (respond time / (n · m)): the run-factored sweep does a
// constant amount of work per row and point, so the figure is comparable
// across sizes and tiers. Before timing, every tier must return the
// portable tier's exact answer, and the portable answer to the first point
// must equal the term-by-term respond_naive reference at the smallest n.
// Results land in BENCH_pir.json; the portable/AVX2/AVX-512 ratios are
// what decides whether a middle tier earns its code.
//
// A second table times one m-point answer through the 310 reply codec at
// each (n, m): the TPA's write_pir_response, which interleaves the
// answer's bit planes into the frame, and the user's read_pir_response,
// which de-interleaves the frame into planes again (medians of 9 each).
//
// A third arm measures two threads responding at once on one shared
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
#include "ice/wire.h"
#include "pir/client.h"
#include "pir/server.h"

namespace {

using namespace ice;
using namespace ice::bench;

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

bool same_response(const pir::PirResponse& x, const pir::PirResponse& y) {
  return x.shape == y.shape && x.planes == y.planes;
}

std::vector<simd::XorTier> supported_tiers() {
  std::vector<simd::XorTier> tiers;
  for (simd::XorTier t : {simd::XorTier::kPortable, simd::XorTier::kAvx2,
                          simd::XorTier::kAvx512}) {
    if (simd::tier_supported(t)) tiers.push_back(t);
  }
  return tiers;
}

// Exits non-zero unless every tier answers `query` exactly as the portable
// tier does and, when `check_naive`, the portable answer to the first
// point equals respond_naive's.
void require_tiers_agree(const pir::PirServer& server,
                         const pir::PirQuery& query, bool check_naive) {
  simd::set_active_tier(simd::XorTier::kPortable);
  const pir::PirResponse reference = server.respond(query);
  bool ok = true;
  if (check_naive) {
    const pir::PirSingleResponse naive =
        server.respond_naive(query.points.front());
    const pir::PirSingleResponse got =
        ice::testing::point_elements(reference, 0);
    ok = naive.values == got.values && naive.gradients == got.gradients;
  }
  for (simd::XorTier tier : supported_tiers()) {
    simd::set_active_tier(tier);
    ok = ok && same_response(server.respond(query), reference);
  }
  if (!ok) {
    std::fprintf(stderr,
                 "FATAL: PIR respond disagrees with the portable tier or "
                 "respond_naive\n");
    std::exit(1);
  }
}

struct CodecCell {
  std::size_t n, m;
  double frame_kb;
  MedianIqr write, read;  // seconds
};

// The TPA's write and the user's read of one 310 reply carrying `resp`.
CodecCell measure_codec(const pir::PirResponse& resp, std::size_t n,
                        int reps) {
  net::Writer fw;
  proto::write_pir_response(fw, resp);
  const Bytes frame = fw.take();
  CodecCell cell{n, resp.shape.points,
                 static_cast<double>(frame.size()) / 1024.0, {}, {}};
  cell.write = time_quartiles(reps, [&] {
    net::Writer w;
    proto::write_pir_response(w, resp);
  });
  cell.read = time_quartiles(reps, [&] {
    net::Reader r(frame);
    (void)proto::read_pir_response(r, resp.shape);
  });
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
            : std::vector<std::size_t>{100000, 1000000};
  const std::vector<std::size_t> batch =
      smoke ? std::vector<std::size_t>{1, 4}
            : std::vector<std::size_t>{10, 40};
  const int reps = smoke ? 1 : 5;

  print_header("Fused PIR respond per tier, one thread (K = tag bits)");
  std::printf("best supported tier: %s\n",
              simd::tier_name(simd::best_supported_tier()));
  std::printf("%-8s %-4s %-9s %12s %16s %12s\n", "n", "m", "tier",
              "respond(ms)", "ns/row·point", "vs portable");

  const simd::XorTier best = simd::best_supported_tier();
  std::vector<CodecCell> codec;
  for (std::size_t n : sizes) {
    pir::TagDatabase db(tag_bits);
    for (const auto& t : synthetic_tags(n, tag_bits, 7 + n)) db.add(t);
    const pir::Embedding emb(n);
    const pir::PirServer server(db, emb, /*parallelism=*/1);

    for (std::size_t m : batch) {
      const pir::PirQuery query = make_query(emb, n, tag_bits, m, 11 * n + m);
      require_tiers_agree(server, query, n == sizes.front());
      double portable_ms = 0;
      for (simd::XorTier tier : supported_tiers()) {
        simd::set_active_tier(tier);
        const double ms =
            1e3 * time_median(reps, [&] { (void)server.respond(query); });
        if (tier == simd::XorTier::kPortable) portable_ms = ms;
        const double ns_per =
            ms * 1e6 / static_cast<double>(n * m);
        std::printf("%-8zu %-4zu %-9s %12.3f %16.3f %11.2fx\n", n, m,
                    simd::tier_name(tier), ms, ns_per, portable_ms / ms);
        if (!smoke) {
          std::ostringstream body;
          body << "{\"tag_bits\": " << tag_bits << ", \"n\": " << n
               << ", \"m\": " << m << ", \"tier\": \""
               << simd::tier_name(tier) << "\", \"reps\": " << reps
               << ", \"respond_ms\": " << ms
               << ", \"ns_per_row_point\": " << ns_per
               << ", \"portable_over_tier\": " << portable_ms / ms << "}";
          std::ostringstream section;
          section << "pir_respond_n" << n << "_m" << m << "_"
                  << simd::tier_name(tier);
          emit_parallel_json(section.str(), body.str(), "BENCH_pir.json");
        }
      }
      simd::set_active_tier(best);
      codec.push_back(measure_codec(server.respond(query), n, smoke ? 3 : 9));
    }
  }
  simd::set_active_tier(best);

  print_header("310 reply codec: one m-point answer (K = tag bits)");
  std::printf("%-8s %-4s %10s %11s %11s %11s %11s\n", "n", "m", "frame(KB)",
              "write(ms)", "write IQR", "read(ms)", "read IQR");
  for (const CodecCell& c : codec) {
    std::printf("%-8zu %-4zu %10.1f %11.3f %11.3f %11.3f %11.3f\n", c.n, c.m,
                c.frame_kb, 1e3 * c.write.median, 1e3 * c.write.iqr,
                1e3 * c.read.median, 1e3 * c.read.iqr);
    if (!smoke) {
      std::ostringstream body;
      body << "{\"tag_bits\": " << tag_bits << ", \"n\": " << c.n
           << ", \"m\": " << c.m << ", \"frame_kb\": " << c.frame_kb
           << ", \"write_ms\": " << 1e3 * c.write.median
           << ", \"write_iqr_ms\": " << 1e3 * c.write.iqr
           << ", \"read_ms\": " << 1e3 * c.read.median
           << ", \"read_iqr_ms\": " << 1e3 * c.read.iqr << "}";
      std::ostringstream section;
      section << "pir_reply_codec_n" << c.n << "_m" << c.m;
      emit_parallel_json(section.str(), body.str(), "BENCH_pir.json");
    }
  }

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
