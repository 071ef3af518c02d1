// Exponentiation-engine microbench: the Montgomery square and multiply
// kernels per op (naming the kernel that serves each width, with the
// 16-limb MULX/ADX kernel timed beside the IFMA one at 1024 bits through
// direct detail:: calls) and a generic pow's cost per exponent bit at the edge
// proof's exponent length, naive per-tag pow+mul vs simultaneous
// multi-exp, the Straus window the edge's ladder chunks get, generic pow
// vs the Lim-Lee fixed-base comb, and the end-to-end
// protocol shapes those kernels drive (Fig. 3 TPA verification at
// |S_j| = 10, Tab. III TagGen at n = 200). Emits BENCH_modexp.json with the
// PR 1 baseline constants embedded so speedups are auditable offline.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bignum/fixed_base.h"
#include "bignum/mont_kernels.h"
#include "bignum/montgomery.h"
#include "bignum/multiexp.h"
#include "bignum/random.h"
#include "common/stopwatch.h"
#include "crypto/prf.h"
#include "ice/protocol.h"
#include "ice/tag.h"
#include "support.h"

namespace ice::bench {
namespace {

// PR 1 (Release, this machine, 1 core) medians, for before/after context:
// bench_fig3_integrity_check verify @|S_j|=10 and bench_tab3_preprocess
// TagGen @n=200 (10 KiB blocks), both at the default 1024-bit modulus.
constexpr double kPr1VerifyAt10Seconds = 1.44e-3;
constexpr double kPr1TagGen200Seconds = 5.195;

// Exponent length of one edge proof at 64 KB blocks (the perfbench
// edge-64k workload), where the proof's generic pow is the whole round.
constexpr std::size_t kEdgeProofExpBits = 525380;

// Best-of-`trials` seconds of one call of f.
template <typename F>
double time_min(int trials, F&& f) {
  double best = 1e300;
  for (int t = 0; t < trials; ++t) {
    Stopwatch sw;
    f();
    best = std::min(best, sw.seconds());
  }
  return best;
}

struct KernelSweep {
  std::vector<std::size_t> bits;
  std::vector<std::string> kernels;  // the kernel Montgomery picks per width
  std::vector<double> sqr_ns;
  std::vector<double> mul_ns;
  // The 16-limb MULX/ADX kernel called directly (0 when the host has none
  // or 1024 bits is not swept), to set beside an IFMA-served 1024 bits.
  double adx1024_sqr_ns = 0;
  double adx1024_mul_ns = 0;
};

// Best-of-`trials` nanoseconds per call of a dependent chain of `ops` calls.
template <typename F>
double chain_ns(int trials, int ops, F&& op) {
  return time_min(trials, [&] {
           for (int i = 0; i < ops; ++i) op();
         }) *
         1e9 / ops;
}

// Per-op Montgomery square and multiply at each modulus width: a trial
// times a dependent chain of `ops` calls, and each figure is the minimum
// over `trials` trials in each of `rounds` rounds that cycle through the
// widths (on a shared host, noise only ever adds time). At 1024 bits each
// round also times the MULX/ADX kernel through detail:: when the host has
// it, so an IFMA context and the ADX kernel are measured side by side.
KernelSweep sweep_kernels(const std::vector<std::size_t>& widths, int rounds,
                          int trials, int ops) {
  KernelSweep sweep;
  sweep.bits = widths;
  sweep.sqr_ns.assign(widths.size(), 0);
  sweep.mul_ns.assign(widths.size(), 0);
  const auto keep_min = [](double& best, double ns) {
    best = best == 0 ? ns : std::min(best, ns);
  };
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t w = 0; w < widths.size(); ++w) {
      const proto::KeyPair keys = bench_keypair(widths[w]);
      const auto mont = bn::Montgomery::shared(keys.pk.n);
      if (round == 0) sweep.kernels.emplace_back(mont->kernel_name());
      SplitMix64 gen(11);
      bn::Rng64Adapter rng(gen);
      const bn::BigInt x = bn::random_below(rng, keys.pk.n);
      const bn::BigInt y = bn::random_below(rng, keys.pk.n);
      bn::Montgomery::LimbVec a = mont->to_mont(x);
      const bn::Montgomery::LimbVec b = mont->to_mont(y);
      std::vector<bn::Montgomery::Limb> scratch(mont->scratch_limbs());
      keep_min(sweep.sqr_ns[w], chain_ns(trials, ops, [&] {
        mont->sqr_into(a.data(), a.data(), scratch.data());
      }));
      keep_min(sweep.mul_ns[w], chain_ns(trials, ops, [&] {
        mont->mul_into(a.data(), a.data(), b.data(), scratch.data());
      }));
      const bn::LimbBuf& n = keys.pk.n.limbs();
      if (widths[w] != 1024 || !bn::detail::mont_fixed_width(n.size())) {
        continue;
      }
      // The ADX kernel's own 64-bit residues: any value below N will do.
      bn::LimbBuf ra = x.limbs(), rb = y.limbs();
      ra.resize(n.size(), 0);
      rb.resize(n.size(), 0);
      bn::detail::Limb inv = 1;  // -N^{-1} mod 2^64 by Newton iteration
      for (int i = 0; i < 6; ++i) inv *= 2 - n[0] * inv;
      const bn::detail::Limb n0inv = ~inv + 1;
      keep_min(sweep.adx1024_sqr_ns, chain_ns(trials, ops, [&] {
        bn::detail::mont_sqr_fixed(ra.data(), ra.data(), n.data(), n0inv,
                                   n.size());
      }));
      keep_min(sweep.adx1024_mul_ns, chain_ns(trials, ops, [&] {
        bn::detail::mont_mul_fixed(ra.data(), ra.data(), rb.data(), n.data(),
                                   n0inv, n.size());
      }));
    }
  }
  for (std::size_t w = 0; w < widths.size(); ++w) {
    std::printf("  |N|=%4zu  %-8s  sqr %7.1f ns  mul %7.1f ns  (sqr/mul %.2f)\n",
                widths[w], sweep.kernels[w].c_str(), sweep.sqr_ns[w],
                sweep.mul_ns[w], sweep.sqr_ns[w] / sweep.mul_ns[w]);
  }
  if (sweep.adx1024_mul_ns > 0) {
    std::printf("  |N|=1024  %-8s  sqr %7.1f ns  mul %7.1f ns  (direct "
                "detail:: calls)\n",
                "adx", sweep.adx1024_sqr_ns, sweep.adx1024_mul_ns);
  }
  return sweep;
}

// Nanoseconds per exponent bit of one generic pow (best of `trials`).
double bench_pow_ns_per_bit(std::size_t modulus_bits, std::size_t exp_bits,
                            int trials) {
  const proto::KeyPair keys = bench_keypair(modulus_bits);
  const auto mont = bn::Montgomery::shared(keys.pk.n);
  SplitMix64 gen(12);
  bn::Rng64Adapter rng(gen);
  const bn::BigInt base = bn::random_below(rng, keys.pk.n);
  const bn::BigInt e = bn::random_bits(rng, exp_bits);
  bn::BigInt out;
  const double seconds =
      time_min(trials, [&] { mont->pow_into(out, base, e); });
  const double ns_per_bit = seconds * 1e9 / static_cast<double>(exp_bits);
  std::printf("  |N|=%4zu |e|=%6zu  pow %9.3f ms  %.1f ns/bit\n",
              modulus_bits, exp_bits, seconds * 1e3, ns_per_bit);
  return ns_per_bit;
}

// prod tags[i]^{coeffs[i]} one pow+mul at a time — the pre-engine shape.
bn::BigInt naive_fold(const bn::Montgomery& mont,
                      const std::vector<bn::BigInt>& bases,
                      const std::vector<bn::BigInt>& exps) {
  bn::BigInt acc(1);
  for (std::size_t i = 0; i < bases.size(); ++i) {
    acc = mont.mul(acc, mont.pow(bases[i], exps[i]));
  }
  return acc;
}

struct Sweep {
  std::vector<double> ks;
  std::vector<double> naive_ms;
  std::vector<double> multi_ms;
};

Sweep sweep_multi_exp(std::size_t modulus_bits, const std::vector<std::size_t>& ks) {
  const proto::KeyPair keys = bench_keypair(modulus_bits);
  const auto mont = bn::Montgomery::shared(keys.pk.n);
  SplitMix64 gen(7);
  bn::Rng64Adapter rng(gen);
  Sweep sweep;
  for (std::size_t k : ks) {
    std::vector<bn::BigInt> bases(k), exps(k);
    for (std::size_t i = 0; i < k; ++i) {
      bases[i] = bn::random_below(rng, keys.pk.n);
      exps[i] = bn::random_bits(rng, 80);  // coefficient-sized exponents
    }
    const int reps = k >= 64 ? 5 : 20;
    const double naive =
        time_median(reps, [&] { (void)naive_fold(*mont, bases, exps); });
    const double multi = time_median(
        reps, [&] { (void)bn::multi_exp(*mont, bases, exps, 1); });
    sweep.ks.push_back(static_cast<double>(k));
    sweep.naive_ms.push_back(naive * 1e3);
    sweep.multi_ms.push_back(multi * 1e3);
    std::printf("  |N|=%4zu k=%3zu  naive %8.3f ms  multi-exp %8.3f ms  (%.2fx)\n",
                modulus_bits, k, naive * 1e3, multi * 1e3, naive / multi);
  }
  return sweep;
}

// The window multi_exp picks for the edge's ladder chunks (L bits each, at
// the shipped rung count) at the paper's 1024-bit N.
void print_ladder_windows() {
  const proto::KeyPair keys = bench_keypair(1024);
  for (const std::size_t kb : {4u, 64u, 256u, 1024u}) {
    proto::ProtocolParams params;
    params.block_bytes = kb * 1024;
    const std::size_t width = proto::rung_width(keys.pk, params);
    std::printf("  %4zu KB blocks: %zu rungs of L = %6zu bits  Straus w = %u\n",
                kb, proto::kLadderRungs, width,
                bn::detail::pow_window_bits(width));
  }
}

struct CombPoint {
  double generic_ms;
  double comb_ms;
};

CombPoint bench_comb(std::size_t modulus_bits, std::size_t exp_bits) {
  const proto::KeyPair keys = bench_keypair(modulus_bits);
  const auto mont = bn::Montgomery::shared(keys.pk.n);
  SplitMix64 gen(8);
  bn::Rng64Adapter rng(gen);
  const bn::BigInt e = bn::random_bits(rng, exp_bits);
  const auto comb = mont->fixed_base(keys.pk.g, exp_bits);  // pre-warm
  const int reps = exp_bits > 10000 ? 5 : 15;
  CombPoint point;
  point.generic_ms =
      time_median(reps, [&] { (void)mont->pow(keys.pk.g, e); }) * 1e3;
  point.comb_ms = time_median(reps, [&] { (void)comb->pow(e); }) * 1e3;
  std::printf("  |N|=%4zu |e|=%6zu  generic %9.3f ms  comb %9.3f ms  (%.2fx)\n",
              modulus_bits, exp_bits, point.generic_ms, point.comb_ms,
              point.generic_ms / point.comb_ms);
  return point;
}

// Fig. 3-shaped TPA verification at |S_j| = 10: expand coefficients,
// multi-exp the repacked tags, raise to s, compare.
double bench_verify_shape(const proto::KeyPair& keys,
                          const proto::ProtocolParams& params, std::size_t k,
                          bn::Rng64& rng) {
  std::vector<bn::BigInt> tags(k);
  for (auto& t : tags) t = bn::random_below(rng, keys.pk.n);
  proto::ChallengeSecret secret;
  const proto::Challenge chal =
      proto::make_challenge(keys.pk, params, rng, secret);
  proto::Proof proof;
  proof.p = bn::BigInt(1);
  return time_median(15, [&] {
    (void)proto::verify_proof(keys.pk, params, tags, chal, secret, proof);
  });
}

}  // namespace
}  // namespace ice::bench

int main(int argc, char** argv) {
  using namespace ice::bench;
  const bool smoke = smoke_mode(argc, argv);

  print_header("Montgomery kernels per op (min over trials and rounds)");
  const KernelSweep kernels =
      smoke ? sweep_kernels({256}, 1, 2, 100)
            : sweep_kernels({256, 512, 1024}, 5, 60, 2000);
  const double pow_ns_per_bit =
      smoke ? bench_pow_ns_per_bit(256, 4096, 1)
            : bench_pow_ns_per_bit(1024, kEdgeProofExpBits, 5);

  print_header("multi-exp vs naive pow+mul fold (80-bit coefficients)");
  const std::vector<std::size_t> ks =
      smoke ? std::vector<std::size_t>{1, 4}
            : std::vector<std::size_t>{1, 2, 4, 10, 32, 64, 128};
  const Sweep s512 = sweep_multi_exp(smoke ? 256 : 512, ks);
  if (smoke) {
    // Tiny pass over every kernel shape; no JSON (keeps the real
    // measurement files intact).
    (void)bench_comb(256, 255);
    return 0;
  }
  const Sweep s1024 = sweep_multi_exp(1024, ks);

  print_header("Straus window at the ladder's chunk lengths (|N| = 1024)");
  print_ladder_windows();

  print_header("fixed-base comb vs generic pow (base g)");
  const CombPoint c_chal = bench_comb(1024, 1023);    // challenge g^s
  const CombPoint c_tag = bench_comb(1024, 81920);    // TagGen, 10 KiB block

  print_header("protocol shapes (1024-bit modulus)");
  const ice::proto::KeyPair keys = bench_keypair(1024);
  ice::proto::ProtocolParams params;
  params.parallelism = 1;
  ice::SplitMix64 gen(9);
  ice::bn::Rng64Adapter rng(gen);
  const double verify10 = bench_verify_shape(keys, params, 10, rng);
  std::printf("  verify_proof @|S_j|=10: %.3f ms  (PR1 baseline %.3f ms, %.2fx)\n",
              verify10 * 1e3, kPr1VerifyAt10Seconds * 1e3,
              kPr1VerifyAt10Seconds / verify10);

  const ice::proto::TagGenerator tagger(keys.pk);
  const std::vector<ice::Bytes> blocks = bench_blocks(200, 10240, 10);
  const double taggen = time_median(3, [&] { (void)tagger.tag_all(blocks, 1); });
  std::printf("  tag_all @n=200, 10 KiB:  %.3f s  (PR1 baseline %.3f s, %.2fx)\n",
              taggen, kPr1TagGen200Seconds, kPr1TagGen200Seconds / taggen);

  std::string kernel_names = "[";
  for (std::size_t w = 0; w < kernels.kernels.size(); ++w) {
    kernel_names += (w == 0 ? "\"" : ", \"") + kernels.kernels[w] + "\"";
  }
  kernel_names += "]";
  std::string body = "{\"kernel_bits\": " + json_array(kernels.bits) +
                     ", \"kernels\": " + kernel_names +
                     ", \"sqr_ns\": " + json_array(kernels.sqr_ns) +
                     ", \"mul_ns\": " + json_array(kernels.mul_ns) +
                     ", \"adx1024_sqr_ns\": " +
                     std::to_string(kernels.adx1024_sqr_ns) +
                     ", \"adx1024_mul_ns\": " +
                     std::to_string(kernels.adx1024_mul_ns) +
                     ", \"pow_exp_bits\": " +
                     std::to_string(kEdgeProofExpBits) +
                     ", \"pow_ns_per_bit\": " + std::to_string(pow_ns_per_bit) +
                     ", \"ks\": " + json_array(ks) +
                     ", \"naive_ms_512\": " + json_array(s512.naive_ms) +
                     ", \"multi_ms_512\": " + json_array(s512.multi_ms) +
                     ", \"naive_ms_1024\": " + json_array(s1024.naive_ms) +
                     ", \"multi_ms_1024\": " + json_array(s1024.multi_ms) +
                     ", \"comb_challenge_ms\": [" +
                     std::to_string(c_chal.generic_ms) + ", " +
                     std::to_string(c_chal.comb_ms) + "]" +
                     ", \"comb_taggen_ms\": [" +
                     std::to_string(c_tag.generic_ms) + ", " +
                     std::to_string(c_tag.comb_ms) + "]" +
                     ", \"verify10_ms\": " + std::to_string(verify10 * 1e3) +
                     ", \"verify10_pr1_ms\": " +
                     std::to_string(kPr1VerifyAt10Seconds * 1e3) +
                     ", \"taggen200_s\": " + std::to_string(taggen) +
                     ", \"taggen200_pr1_s\": " +
                     std::to_string(kPr1TagGen200Seconds) + "}";
  emit_parallel_json("modexp", body, "BENCH_modexp.json");
  return 0;
}
