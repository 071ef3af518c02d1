// Fig. 7 — Computation cost of the extended protocol (ICE-batch).
//
// Paper setup (Sec. VI-E): n = 100, each edge pre-downloads 3 blocks from a
// 10-block hot set; the number of edges grows. The metric is end-to-end
// audit time and the ratio time(ICE-batch) / (time(ICE-basic) * J).
// Expected shape: batch time grows moderately with J; the ratio falls
// below 1 and keeps dropping as edges overlap more.
#include "support.h"

#include <algorithm>

#include "baseline/trivial_retrieval.h"
#include "sim/deployment.h"

namespace {

using namespace ice;
using namespace ice::bench;

proto::ProtocolParams make_params() {
  proto::ProtocolParams p;
  p.modulus_bits = 512;
  p.block_bytes = 1024;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = smoke_mode(argc, argv);
  print_header("Fig. 7 — ICE-batch computation vs #edges (n=100, 3-of-10)");
  std::printf("%-8s %14s %16s %18s\n", "#edges", "batch (ms)",
              "basic x J (ms)", "ratio batch/(JxB)");

  const std::size_t n_blocks = smoke ? 20 : 100;
  const int reps = smoke ? 1 : 3;
  const std::vector<std::size_t> sweep =
      smoke ? std::vector<std::size_t>{2}
            : std::vector<std::size_t>{2, 4, 6, 8, 10};
  for (std::size_t j_edges : sweep) {
    proto::ProtocolParams params = make_params();
    if (smoke) params.modulus_bits = 256;
    sim::Deployment d(params,
                      bench_keypair(params.modulus_bits, 9000 + j_edges),
                      n_blocks, j_edges, 3, 9000 + j_edges);
    d.setup();
    SplitMix64 gen(17 + j_edges);
    for (std::size_t j = 0; j < j_edges; ++j) {
      std::vector<std::size_t> mine;
      while (mine.size() < 3) {
        const std::size_t c = gen.below(10);
        if (std::find(mine.begin(), mine.end(), c) == mine.end()) {
          mine.push_back(c);
        }
      }
      d.edge(j).pre_download(mine);
    }
    const auto channels = d.user_edges();

    const double batch_s = time_median(reps, [&] {
      if (!d.user().audit_edges_batch(channels)) {
        std::fprintf(stderr, "BUG: batch audit failed\n");
        std::exit(1);
      }
    });
    const double basic_s = time_median(reps, [&] {
      if (!baseline::sequential_audits(d.user(), channels)) {
        std::fprintf(stderr, "BUG: sequential audit failed\n");
        std::exit(1);
      }
    });
    std::printf("%-8zu %14.1f %16.1f %18.2f\n", j_edges, batch_s * 1e3,
                basic_s * 1e3, batch_s / basic_s);
  }

  std::printf("\nShape check vs paper: batch grows moderately with #edges; "
              "the ratio is < 1 and decreases as overlap grows.\n");
  return 0;
}
