// Tab. I — Communication cost of ICE-basic, measured vs predicted.
//
// The paper's closed forms (bits):
//   User -> Edge : O(1)
//   User -> TPA  : n_j |N| + O(n^{1/3})
//   Edge -> TPA  : O(1)
//   TPA -> User  : O(n_j K n^{1/3})
//   TPA -> Edge  : O(1)
// We wire every direction through its own instrumented channel, run one
// audit, and print measured bytes next to the leading-term prediction.
// The TPA -> Edge term includes the challenge's power ladder (DESIGN.md
// §8): 15 rungs of |N| bits beside g_s, and the rung width. It stays O(1)
// in n and n_j.
#include "support.h"

#include "pir/embedding.h"
#include "sim/deployment.h"

namespace {

using namespace ice;
using namespace ice::bench;

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = smoke_mode(argc, argv);
  print_header("Tab. I — communication cost (bits), measured vs predicted");
  proto::ProtocolParams params;
  params.modulus_bits = smoke ? 256 : 512;  // byte accounting is the metric;
                                            // smoke only shrinks the modexps
  params.block_bytes = 1024;
  const std::size_t kN = 100;  // file blocks
  const std::size_t kSj = 5;   // blocks on the edge

  sim::Deployment d(params, bench_keypair(params.modulus_bits), kN, 1, kSj,
                    3);
  d.setup();
  d.edge(0).pre_download({2, 11, 42, 77, 99});
  d.reset_traffic();
  if (!d.user().audit_edge(d.user_edge(0), 0)) {
    std::fprintf(stderr, "BUG: audit failed\n");
    return 1;
  }
  const net::ChannelStats& user_edge = d.user_edge(0).stats();
  const net::ChannelStats& user_tpa0 = d.user_tpa(0).stats();
  const net::ChannelStats& user_tpa1 = d.user_tpa(1).stats();
  const net::ChannelStats& tpa_edge = d.tpa_edge(0).stats();

  const std::size_t modulus_bits = d.keys().pk.modulus_bits();
  const pir::Embedding emb(kN);
  const std::size_t gamma = emb.gamma();
  // Leading terms of Tab. I in bits.
  const std::size_t pred_user_tpa =
      kSj * modulus_bits        // repacked tags
      + 2 * kSj * gamma * 2;    // PIR queries to both TPAs (gamma F4 elems)
  const std::size_t pred_tpa_user =
      2 * kSj * (1 + gamma) * modulus_bits * 2;  // PIR responses, both TPAs
  // chal = (e, g_s, ladder): the key, g_s and 15 rungs, the rung width L.
  std::size_t width_varint_bytes = 1;
  for (std::size_t v = proto::rung_width(d.keys().pk, params); v >= 0x80;
       v >>= 7) {
    ++width_varint_bytes;
  }
  const std::size_t pred_tpa_edge = params.challenge_key_bits +
                                    proto::kLadderRungs * modulus_bits +
                                    8 * width_varint_bytes;
  const std::size_t pred_edge_tpa = modulus_bits;  // the proof

  const auto bits = [](std::uint64_t bytes) { return bytes * 8; };
  std::printf("%-14s %16s %16s   %s\n", "direction", "measured (bits)",
              "predicted", "paper closed form");
  std::printf("%-14s %16llu %16s   %s\n", "User->Edge",
              static_cast<unsigned long long>(bits(user_edge.bytes_sent)),
              "O(1)", "O(1)  [session id + s~]");
  std::printf("%-14s %16llu %16zu   %s\n", "User->TPAs",
              static_cast<unsigned long long>(
                  bits(user_tpa0.bytes_sent + user_tpa1.bytes_sent)),
              pred_user_tpa, "n_j|N| + O(n^{1/3})");
  std::printf("%-14s %16llu %16zu   %s\n", "TPAs->User",
              static_cast<unsigned long long>(
                  bits(user_tpa0.bytes_received +
                       user_tpa1.bytes_received)),
              pred_tpa_user, "O(n_j K n^{1/3})");
  std::printf("%-14s %16llu %16zu   %s\n", "TPA->Edge",
              static_cast<unsigned long long>(bits(tpa_edge.bytes_sent)),
              pred_tpa_edge, "O(1)  [chal=(e, g_s, 15 rungs, L)]");
  std::printf("%-14s %16llu %16zu   %s\n", "Edge->TPA",
              static_cast<unsigned long long>(bits(tpa_edge.bytes_received)),
              pred_edge_tpa, "O(1)  [proof]");

  std::printf("\nn=%zu, n_j=%zu, |N|=%zu, gamma=%zu. Measured includes "
              "framing/serde overhead,\nso measured >= predicted with a "
              "small constant factor; shapes must match.\n",
              kN, kSj, modulus_bits, gamma);
  return 0;
}
