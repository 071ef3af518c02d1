// Fig. 8 — Communication cost of the extended protocol (ICE-batch).
//
// Same workload as Fig. 7 (n = 100, each edge holds 3 of a 10-block hot
// set), but the metric is bytes on the wire between the user and the TPAs.
// Expected shape: batch communication grows sublinearly with #edges
// because the union retrieval deduplicates overlapping blocks; the ratio
// batch/(J x basic) decreases with J.
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
  print_header(
      "Fig. 8 — ICE-batch user<->TPA communication vs #edges (n=100)");
  std::printf("%-8s %14s %16s %14s %18s\n", "#edges", "batch (B)",
              "basic x J (B)", "union |U|", "ratio batch/(JxB)");

  const std::size_t n_blocks = smoke ? 20 : 100;
  const std::vector<std::size_t> sweep =
      smoke ? std::vector<std::size_t>{2}
            : std::vector<std::size_t>{2, 4, 6, 8, 10};
  for (std::size_t j_edges : sweep) {
    proto::ProtocolParams params = make_params();
    if (smoke) params.modulus_bits = 256;
    sim::Deployment d(params,
                      bench_keypair(params.modulus_bits, 9100 + j_edges),
                      n_blocks, j_edges, 3, 9100 + j_edges);
    d.setup();
    SplitMix64 gen(23 + j_edges);
    std::vector<std::vector<std::size_t>> sets;
    for (std::size_t j = 0; j < j_edges; ++j) {
      std::vector<std::size_t> mine;
      while (mine.size() < 3) {
        const std::size_t c = gen.below(10);
        if (std::find(mine.begin(), mine.end(), c) == mine.end()) {
          mine.push_back(c);
        }
      }
      d.edge(j).pre_download(mine);
      std::sort(mine.begin(), mine.end());
      sets.push_back(std::move(mine));
    }
    const auto channels = d.user_edges();
    const std::size_t union_size = proto::union_of_sets(sets).size();
    const auto user_tpa_bytes = [&d] {
      std::uint64_t bytes = 0;
      for (std::size_t i = 0; i < 2; ++i) {
        bytes += d.user_tpa(i).stats().bytes_sent +
                 d.user_tpa(i).stats().bytes_received;
      }
      return bytes;
    };

    d.reset_traffic();
    if (!d.user().audit_edges_batch(channels)) {
      std::fprintf(stderr, "BUG: batch audit failed\n");
      return 1;
    }
    const std::uint64_t batch_bytes = user_tpa_bytes();

    d.reset_traffic();
    if (!baseline::sequential_audits(d.user(), channels)) {
      std::fprintf(stderr, "BUG: sequential audit failed\n");
      return 1;
    }
    const std::uint64_t basic_bytes = user_tpa_bytes();

    std::printf("%-8zu %14llu %16llu %14zu %18.2f\n", j_edges,
                static_cast<unsigned long long>(batch_bytes),
                static_cast<unsigned long long>(basic_bytes), union_size,
                static_cast<double>(batch_bytes) /
                    static_cast<double>(basic_bytes));
  }

  std::printf("\nShape check vs paper: the ratio is < 1 and decreases with "
              "#edges (overlap deduplication via the union retrieval).\n");
  return 0;
}
