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
// §8): kLadderRungs - 1 rungs of |N| bits beside g_s, and the rung width.
// It stays O(1) in n and n_j, and is predicted to the byte: the request's
// wire form, each bigint at its full byte length (a value with a leading
// zero byte arrives one byte shorter).
#include "support.h"

#include "pir/embedding.h"
#include "sim/deployment.h"

namespace {

using namespace ice;
using namespace ice::bench;

std::size_t varint_bytes(std::size_t v) {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

// A non-negative bits-long bigint on the wire: sign byte, length varint,
// magnitude.
std::size_t bigint_bytes(std::size_t bits) {
  const std::size_t magnitude = (bits + 7) / 8;
  return 1 + varint_bytes(magnitude) + magnitude;
}

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
  // The 204 request: session id, chal = (e, g_s, ladder) with the width
  // and count varints and kLadderRungs - 1 rungs, plus the RPC header.
  const std::size_t rungs = proto::kLadderRungs - 1;
  const std::size_t pred_tpa_edge =
      8 * (net::kRpcHeaderBytes + 8 +
           bigint_bytes(params.challenge_key_bits) +
           bigint_bytes(modulus_bits) +
           varint_bytes(proto::rung_width(d.keys().pk, params)) +
           varint_bytes(rungs) + rungs * bigint_bytes(modulus_bits));
  const std::string chal_form =
      "O(1)  [chal=(e, g_s, " + std::to_string(rungs) + " rungs, L)]";
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
              pred_tpa_edge, chal_form.c_str());
  std::printf("%-14s %16llu %16zu   %s\n", "Edge->TPA",
              static_cast<unsigned long long>(bits(tpa_edge.bytes_received)),
              pred_edge_tpa, "O(1)  [proof]");

  std::printf("\nn=%zu, n_j=%zu, |N|=%zu, gamma=%zu. Measured includes "
              "framing/serde overhead,\nso measured >= predicted with a "
              "small constant factor; shapes must match.\nTPA->Edge is "
              "predicted to the byte (8 bits less per value with a leading "
              "zero byte).\n",
              kN, kSj, modulus_bits, gamma);
  return 0;
}
