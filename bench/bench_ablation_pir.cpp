// Ablation — PIR server evaluators at scale.
//
// Extends Fig. 2 beyond the paper's n <= 200 to show where each evaluator
// pays off on a single query point: naive O(n K) recomputation, the
// paper's matrix representation (zero-coefficient skipping + per-query
// monomial reuse), and the bitsliced fused engine the TPA serves with
// (word-parallel accumulation over the K bitplanes), here answering a
// one-point query. All three must agree on the point before it is timed.
#include "support.h"

#include "pir/server.h"

namespace {

using namespace ice;
using namespace ice::bench;

constexpr std::size_t kTagBits = 1024;

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = smoke_mode(argc, argv);
  print_header("Ablation — PIR evaluator scaling (K = 1024)");
  std::printf("%-8s %12s %12s %14s %14s %12s\n", "n", "naive(ms)",
              "matrix(ms)", "bitsliced(ms)", "mtx speedup", "bits speedup");
  const std::vector<std::size_t> sweep =
      smoke ? std::vector<std::size_t>{50}
            : std::vector<std::size_t>{50, 100, 200, 500, 1000, 2000};
  for (std::size_t n : sweep) {
    pir::TagDatabase db(kTagBits);
    SplitMix64 gen(5 + n);
    bn::Rng64Adapter rng(gen);
    for (std::size_t i = 0; i < n; ++i) {
      db.add(bn::random_bits(rng, kTagBits));
    }
    const pir::Embedding emb(n);
    const pir::Bitplanes planes = db.build_planes();
    const pir::PirServer server(db, emb);
    SplitMix64 qgen(n);
    pir::PirQuery query;
    query.points.emplace_back(emb.gamma());
    for (auto& v : query.points[0]) {
      v = gf::GF4(static_cast<std::uint8_t>(qgen.below(4)));
    }
    require_evaluators_agree(server, planes, query);
    const gf::GF4Vector& q = query.points[0];
    const double t_naive =
        1e3 * time_median(1, [&] { (void)server.respond_naive(q); });
    const double t_matrix =
        1e3 *
        time_median(3, [&] { (void)server.respond_matrix(planes, q); });
    const double t_bits =
        1e3 * time_median(3, [&] { (void)server.respond(query); });
    std::printf("%-8zu %12.1f %12.2f %14.3f %13.0fx %11.0fx\n", n, t_naive,
                t_matrix, t_bits, t_naive / t_matrix, t_naive / t_bits);
  }
  std::printf("\nTakeaway: the paper's matrix representation gives the "
              "first ~order of magnitude;\nbitslicing the bitplane loop "
              "gives another one on top.\n");
  return 0;
}
