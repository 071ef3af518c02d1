// Fig. 2 — Computation cost on the TPA: Tag Response.
//
// Paper setup: the TPA answers a private tag query for |S_j| indexes, with
// and without the matrix representation of the polynomials. Fig. 2a sweeps
// |S_j| = 1..10 at fixed n; Fig. 2b sweeps n at fixed |S_j|.
// Expected shape: matrix representation is far cheaper than the naive
// micro benchmark; time grows with both |S_j| and n.
//
// The naive and matrix columns loop the per-point evaluators over the
// |S_j| query points, as the paper's Alg. 1 does; the bitsliced column is
// the fused engine the TPA serves every query with. All three answer the
// same encoded query, and they must agree bit for bit before any timing.
#include "support.h"

#include <thread>

#include "pir/client.h"
#include "pir/server.h"

namespace {

using namespace ice;
using namespace ice::bench;

constexpr std::size_t kTagBits = 1024;  // |N| in the paper

/// Samples behind each matrix cell: enough for its median to resolve a
/// ~25% change on a shared host (three could not).
constexpr int kMatrixReps = 11;

struct Times {
  double naive_s;
  double matrix_s;
  double matrix_iqr_s;
  double bits_s;
};

/// Times one |S_j|-point tag response per evaluator over `tags`, after
/// the TPASetup plane build and the correctness gate. The matrix cell is
/// the median of kMatrixReps runs; the others of `reps`.
Times tag_response(const std::vector<bn::BigInt>& tags, std::size_t s_j,
                   std::size_t parallelism, std::uint64_t seed, int reps) {
  pir::TagDatabase db(kTagBits);
  for (const auto& t : tags) db.add(t);
  const pir::Embedding emb(tags.size());
  const pir::PirServer server(db, emb, parallelism);
  const pir::Bitplanes planes = db.build_planes();

  SplitMix64 gen(seed);
  bn::Rng64Adapter rng(gen);
  const pir::PirClient client(emb, kTagBits);
  std::vector<std::size_t> wanted;
  for (std::size_t l = 0; l < s_j; ++l) wanted.push_back(gen.below(emb.n()));
  const pir::PirQuery query = client.encode(wanted, rng).queries[0];
  require_evaluators_agree(server, planes, query);

  Times t{};
  t.naive_s = time_median(reps, [&] {
    for (const auto& q : query.points) (void)server.respond_naive(q);
  });
  const MedianIqr matrix = time_quartiles(kMatrixReps, [&] {
    for (const auto& q : query.points) {
      (void)server.respond_matrix(planes, q);
    }
  });
  t.matrix_s = matrix.median;
  t.matrix_iqr_s = matrix.iqr;
  t.bits_s = time_median(reps, [&] { (void)server.respond(query); });
  return t;
}

void run_sweep(const char* label, std::size_t n,
               const std::vector<std::size_t>& sizes, bool sweep_n) {
  std::printf("\n%s\n", label);
  std::printf("%-8s %-8s %14s %14s %10s %14s %9s\n", sweep_n ? "n" : "|S_j|",
              "", "naive (ms)", "matrix (ms)", "iqr (ms)", "bitsliced(ms)",
              "speedup");
  for (std::size_t v : sizes) {
    const std::size_t cur_n = sweep_n ? v : n;
    const std::size_t s_j = sweep_n ? 5 : v;
    const auto tags = synthetic_tags(cur_n, kTagBits, 7 + v);
    const Times t = tag_response(tags, s_j, /*parallelism=*/0, 11 + v, 3);
    std::printf("%-8zu %-8s %14.2f %14.2f %10.2f %14.3f %8.1fx\n", v, "",
                t.naive_s * 1e3, t.matrix_s * 1e3, t.matrix_iqr_s * 1e3,
                t.bits_s * 1e3, t.naive_s / t.matrix_s);
  }
}

// Thread sweep: one tag response (n = 150, |S_j| = 5) per evaluator at
// parallelism 1/2/4/hw. The references shard the K bitplanes across the
// pool and the fused engine shards tag rows, so every evaluator scales
// with cores — and returns bit-identical responses
// (tests/ice/parallel_diff_test.cpp).
void run_thread_sweep() {
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::vector<std::size_t> threads{1, 2, 4};
  if (hw != 1 && hw != 2 && hw != 4) threads.push_back(hw);

  constexpr std::size_t kN = 150;
  constexpr std::size_t kSj = 5;
  const auto tags = synthetic_tags(kN, kTagBits, 77);

  std::printf("\nThread sweep (n = %zu, |S_j| = %zu, hardware threads: "
              "%zu)\n", kN, kSj, hw);
  std::printf("%-8s %14s %14s %14s\n", "threads", "naive (ms)",
              "matrix (ms)", "bitsliced(ms)");
  std::vector<double> naive_s, matrix_s, bits_s;
  for (std::size_t t : threads) {
    const Times times = tag_response(tags, kSj, t, 31, 3);
    naive_s.push_back(times.naive_s);
    matrix_s.push_back(times.matrix_s);
    bits_s.push_back(times.bits_s);
    std::printf("%-8zu %14.2f %14.2f %14.3f\n", t, naive_s.back() * 1e3,
                matrix_s.back() * 1e3, bits_s.back() * 1e3);
  }

  std::string body;
  body += "{\"hardware_concurrency\": " + std::to_string(hw);
  body += ", \"n\": " + std::to_string(kN);
  body += ", \"s_j\": " + std::to_string(kSj);
  body += ", \"threads\": " + json_array(threads);
  body += ", \"naive_seconds\": " + json_array(naive_s);
  body += ", \"matrix_seconds\": " + json_array(matrix_s);
  body += ", \"bitsliced_seconds\": " + json_array(bits_s);
  body += "}";
  emit_parallel_json("fig2_tag_response", body);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = smoke_mode(argc, argv);
  print_header(
      "Fig. 2 — TPA tag response time, with vs without matrix repr.");
  std::printf("(K = %zu tag bits; 'naive' recomputes every monomial per "
              "bitplane,\n 'matrix' is the paper's representation, "
              "'bitsliced' is the fused engine the TPA serves with)\n",
              std::size_t{kTagBits});

  if (smoke) {
    // Tiny sweep through the same measurement code; no JSON (the thread
    // sweep would overwrite real BENCH_parallel.json numbers).
    run_sweep("Smoke: n = 30, |S_j| = 2", 30, {2}, /*sweep_n=*/false);
    return 0;
  }

  // Fig. 2a: vary |S_j| at n = 100.
  run_sweep("Fig. 2a: n = 100, |S_j| = 1..10", 100,
            {1, 2, 4, 6, 8, 10}, /*sweep_n=*/false);

  // Fig. 2b: vary n at |S_j| = 5.
  run_sweep("Fig. 2b: |S_j| = 5, n = 40..200", 0,
            {40, 80, 120, 160, 200}, /*sweep_n=*/true);

  std::printf("\nShape check vs paper: matrix << naive; both grow with "
              "|S_j| and n.\n");

  run_thread_sweep();
  return 0;
}
