// Fig. 5 — Computation cost on the end-user devices.
//
// Two user-side phases are timed, each as the median of 7 repetitions: the
// tag query (the paper's "tag query" cost: PIR encode, then reading both
// TPAs' 310 reply frames and decoding them, bytes in and tags out) and the
// verification work (drawing s~ and repacking the |S_j| tags). Fig. 5a
// sweeps |S_j|; Fig. 5b sweeps n.
// Expected shape: grows with |S_j|, nearly flat in n. The Raspberry Pi
// column is modeled from the laptop measurement with the paper's own
// laptop/Pi ratio (Tab. III), since we have no Pi hardware.
#include "support.h"

#include "ice/protocol.h"
#include "ice/tag_store.h"
#include "ice/wire.h"
#include "pir/client.h"
#include "pir/embedding.h"

namespace {

using namespace ice;
using namespace ice::bench;

constexpr std::size_t kTagBits = 1024;

constexpr int kReps = 7;

struct UserCost {
  double query_ms;   // PIR encode + reply reads + decode
  double verify_ms;  // blinding + tag repacking
};

// The 310 reply frame a TPA sends for `resp`.
Bytes reply_frame(const pir::PirResponse& resp) {
  net::Writer w;
  proto::write_pir_response(w, resp);
  return w.take();
}

UserCost measure(std::size_t n, std::size_t s_j, std::uint64_t seed) {
  SplitMix64 gen(seed);
  bn::Rng64Adapter rng(gen);
  proto::ProtocolParams params;
  params.modulus_bits = kTagBits;
  const auto tags = synthetic_tags(n, kTagBits, seed);
  const proto::TagStore tpa0(params, tags);
  const proto::TagStore tpa1(params, tags);
  const pir::Embedding embedding(n);
  const pir::PirClient client(embedding, kTagBits);
  std::vector<std::size_t> wanted;
  for (std::size_t l = 0; l < s_j; ++l) wanted.push_back(gen.below(n));

  UserCost cost{};
  // Tag query: encode, then read and decode pre-computed reply frames.
  const pir::PirClient::EncodedQuery enc = client.encode(wanted, rng);
  pir::PirResponse r0, r1;
  tpa0.respond(tpa0.epoch(), enc.queries[0], r0);
  tpa1.respond(tpa1.epoch(), enc.queries[1], r1);
  const Bytes frames[2] = {reply_frame(r0), reply_frame(r1)};
  const pir::PirShape shape = r0.shape;
  cost.query_ms = 1e3 * time_median(kReps, [&] {
    (void)client.encode(wanted, rng);
    net::Reader in0(frames[0]);
    net::Reader in1(frames[1]);
    const pir::PirResponse got0 = proto::read_pir_response(in0, shape);
    const pir::PirResponse got1 = proto::read_pir_response(in1, shape);
    (void)client.decode(enc.secrets, got0, got1);
  });

  // Verification work on the user: s~ and T~_k = T_k^{s~}.
  const proto::KeyPair keys = bench_keypair(kTagBits);
  std::vector<bn::BigInt> subset;
  for (std::size_t idx : wanted) subset.push_back(tags[idx].mod(keys.pk.n));
  cost.verify_ms = 1e3 * time_median(kReps, [&] {
    const bn::BigInt s_tilde = proto::draw_blinding(keys.pk, rng);
    (void)proto::repack_tags(keys.pk, subset, s_tilde);
  });
  return cost;
}

void print_row(std::size_t v, const UserCost& c) {
  std::printf("%-8zu %14.3f %14.2f %16.3f %16.2f\n", v, c.query_ms,
              c.verify_ms, c.query_ms * kRasPiSlowdown,
              c.verify_ms * kRasPiSlowdown);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = smoke_mode(argc, argv);
  print_header("Fig. 5 — user-side cost (laptop measured, RasPi modeled)");
  std::printf("%-8s %14s %14s %16s %16s\n", "", "laptop", "laptop",
              "raspi (model)", "raspi (model)");
  std::printf("%-8s %14s %14s %16s %16s\n", "sweep", "query (ms)",
              "verify (ms)", "query (ms)", "verify (ms)");

  std::printf("\nFig. 5a: n = 100, |S_j| sweep\n");
  const std::vector<std::size_t> sj_sweep =
      smoke ? std::vector<std::size_t>{2}
            : std::vector<std::size_t>{1, 2, 4, 6, 8, 10};
  for (std::size_t s_j : sj_sweep) {
    print_row(s_j, measure(smoke ? 40 : 100, s_j, 300 + s_j));
  }

  std::printf("\nFig. 5b: |S_j| = 5, n sweep\n");
  const std::vector<std::size_t> n_sweep =
      smoke ? std::vector<std::size_t>{40}
            : std::vector<std::size_t>{40, 80, 120, 160, 200};
  for (std::size_t n : n_sweep) {
    print_row(n, measure(n, 5, 400 + n));
  }

  std::printf("\nShape check vs paper: both costs grow with |S_j| and vary "
              "little with n; laptop totals well under a second.\n");
  return 0;
}
