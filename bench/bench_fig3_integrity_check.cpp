// Fig. 3 — Computation cost on the TPA: Integrity Checking.
//
// Two TPA-side steps are timed: generating the challenge for the edge (g^s
// and its 15-rung power ladder, DESIGN.md §8) and verifying the proof
// against the repacked tags.
// Expected shape (paper): challenge time is flat in |S_j| and n; verify
// time grows with |S_j|; everything stays in the tens-of-milliseconds
// range (<= 50 ms in the paper at |N| = 1024).
#include "support.h"

#include "ice/protocol.h"
#include "ice/tag.h"

namespace {

using namespace ice;
using namespace ice::bench;

struct Timing {
  double challenge_ms;
  double verify_ms;
};

Timing measure(const proto::KeyPair& keys, const proto::ProtocolParams& params,
               const proto::RungBases& rungs, std::size_t s_j,
               std::uint64_t seed) {
  SplitMix64 gen(seed);
  bn::Rng64Adapter rng(gen);
  const proto::TagGenerator tagger(keys.pk);
  const auto blocks = bench_blocks(s_j, params.block_bytes, seed);
  const auto tags = tagger.tag_all(blocks);

  Timing t{};
  proto::ChallengeSecret secret;
  proto::Challenge chal;
  t.challenge_ms = 1e3 * time_median(5, [&] {
    chal = proto::make_challenge(keys.pk, params, rng, secret, &rungs);
  });
  const bn::BigInt s_tilde = proto::draw_blinding(keys.pk, rng);
  const proto::Proof proof =
      proto::make_proof(keys.pk, params, blocks, chal, s_tilde);
  const auto repacked = proto::repack_tags(keys.pk, tags, s_tilde);
  t.verify_ms = 1e3 * time_median(5, [&] {
    if (!proto::verify_proof(keys.pk, params, repacked, chal, secret,
                             proof)) {
      std::fprintf(stderr, "BUG: honest proof rejected\n");
      std::exit(1);
    }
  });
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = smoke_mode(argc, argv);
  print_header("Fig. 3 — TPA integrity checking time");
  proto::ProtocolParams params;
  params.modulus_bits = smoke ? 256 : 1024;  // paper's |N| is 1024
  params.block_bytes = smoke ? 512 : 4096;  // scaled block (timing here is
                                            // block-size independent on the
                                            // TPA side)
  const proto::KeyPair keys = bench_keypair(params.modulus_bits);
  // The TPA's per-key ladder, built before any clock starts (the TPA
  // builds it once per key, on the first challenge).
  const proto::RungBases rungs(keys.pk, params);
  (void)rungs.raise(bn::BigInt(1));

  std::printf("\nFig. 3a: |N| = %zu, |S_j| sweep\n", params.modulus_bits);
  std::printf("%-8s %16s %16s\n", "|S_j|", "challenge (ms)", "verify (ms)");
  const std::vector<std::size_t> sj_sweep =
      smoke ? std::vector<std::size_t>{2}
            : std::vector<std::size_t>{1, 2, 4, 6, 8, 10};
  for (std::size_t s_j : sj_sweep) {
    const Timing t = measure(keys, params, rungs, s_j, 100 + s_j);
    std::printf("%-8zu %16.2f %16.2f\n", s_j, t.challenge_ms, t.verify_ms);
  }

  std::printf("\nFig. 3b: |S_j| = 5, growing file (challenge/verify do not "
              "depend on n; shown for shape)\n");
  std::printf("%-8s %16s %16s\n", "n", "challenge (ms)", "verify (ms)");
  const std::vector<std::size_t> n_sweep =
      smoke ? std::vector<std::size_t>{40}
            : std::vector<std::size_t>{40, 80, 120, 160, 200};
  for (std::size_t n : n_sweep) {
    const Timing t = measure(keys, params, rungs, 5, 200 + n);
    std::printf("%-8zu %16.2f %16.2f\n", n, t.challenge_ms, t.verify_ms);
  }

  std::printf("\nShape check vs paper: challenge ~flat, verify grows with "
              "|S_j|, both well under a second.\n");
  return 0;
}
