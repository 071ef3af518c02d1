// Allocation-behavior bench for the steady-state audit loop: heap
// allocations per operation and wall time for the four hot paths the
// zero-allocation work targets — TPA verification (Fig. 3 shape), tag
// repacking, TagGen (Tab. III shape), and the fused PIR respond. Overrides
// global operator new to count, which is why this is its own binary.
//
// Emits BENCH_alloc.json with the PR 4 constants (measured on this machine
// immediately before the SBO/destination-passing/buffer-pool work) embedded
// so the before/after deltas are auditable offline.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bignum/random.h"
#include "common/rng.h"
#include "ice/protocol.h"
#include "ice/tag.h"
#include "pir/client.h"
#include "pir/server.h"
#include "support.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ice::bench {
namespace {

// PR 4 state (this machine, 1 core, parallelism = 1): microseconds and heap
// allocations per operation, measured with this same harness, interleaved
// with the post-change runs (median of 3) to cancel machine drift.
constexpr double kPr4VerifyUs = 780.6;
constexpr double kPr4RepackUs = 103061.0;
constexpr double kPr4TagAllUs = 2648000.0;
constexpr double kPr4RespondUs = 1907.6;
constexpr double kPr4VerifyAllocs = 186;
constexpr double kPr4RepackAllocs = 5002;
constexpr double kPr4TagAllAllocs = 3403;
constexpr double kPr4RespondAllocs = 724;

struct PathResult {
  double us_per_op = 0;
  double allocs_per_op = 0;
};

/// Warm-up twice (thread-local arenas, pools, SBO spill buffers), then
/// report allocations and median time per steady-state iteration.
template <typename F>
PathResult measure(const char* name, int reps, F&& f) {
  f();
  f();
  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < reps; ++i) f();
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - a0;
  PathResult r;
  r.allocs_per_op = static_cast<double>(allocs) / reps;
  r.us_per_op = time_median(reps, f) * 1e6;
  std::printf("  %-22s %12.3f us/op  %10.1f allocs/op\n", name, r.us_per_op,
              r.allocs_per_op);
  return r;
}

}  // namespace
}  // namespace ice::bench

int main(int argc, char** argv) {
  using namespace ice;
  using namespace ice::bench;
  const bool smoke = smoke_mode(argc, argv);
  print_header("steady-state allocations per audit operation");

  const proto::KeyPair keys = bench_keypair(1024);
  proto::ProtocolParams params;
  params.parallelism = 1;
  SplitMix64 gen(9);
  bn::Rng64Adapter rng(gen);

  // TPA verification at the paper's |S_j| = 10 challenge size.
  std::vector<bn::BigInt> tags(10);
  for (auto& t : tags) t = bn::random_below(rng, keys.pk.n);
  proto::ChallengeSecret secret;
  const proto::Challenge chal =
      proto::make_challenge(keys.pk, params, rng, secret);
  proto::Proof proof;
  proof.p = bn::BigInt(1);
  const PathResult verify =
      measure("verify@10", smoke ? 3 : 50, [&] {
        (void)proto::verify_proof(keys.pk, params, tags, chal, secret, proof);
      });

  // Tag repacking (one blinding exponentiation per tag).
  const std::size_t repack_n = smoke ? 8 : 200;
  std::vector<bn::BigInt> ftags(repack_n);
  for (auto& t : ftags) t = bn::random_below(rng, keys.pk.n);
  const bn::BigInt s_tilde = proto::draw_blinding(keys.pk, rng);
  std::vector<bn::BigInt> repacked;
  const PathResult repack =
      measure("repack@200", smoke ? 2 : 3, [&] {
        proto::repack_tags_into(keys.pk, ftags, s_tilde, 1, repacked);
      });

  // TagGen, Tab. III shape: n blocks of 10 KiB.
  const proto::TagGenerator tagger(keys.pk);
  const std::vector<Bytes> blocks =
      bench_blocks(smoke ? 4 : 200, smoke ? 1024 : 10240, 10);
  std::vector<bn::BigInt> tout;
  const PathResult tag_all = measure("tag_all@200x10KiB", smoke ? 2 : 1, [&] {
    tagger.tag_all_into(blocks, 1, tout);
  });

  // Fused multi-query PIR respond (bitsliced), m = 16 points.
  const std::size_t n = smoke ? 1000 : 10000;
  const auto stags = synthetic_tags(n, 1024, 21);
  pir::Embedding emb(n);
  pir::TagDatabase db(1024);
  for (std::size_t i = 0; i < n; ++i) db.add(stags[i]);
  const pir::PirServer server(db, emb, 1);
  SplitMix64 g2(5);
  bn::Rng64Adapter rng2(g2);
  const pir::PirClient client(emb, 1024);
  std::vector<std::size_t> indices;
  for (int i = 0; i < 16; ++i) {
    indices.push_back(static_cast<std::size_t>(i) * 7 % n);
  }
  const auto enc = client.encode(indices, rng2);
  pir::PirResponse resp;
  const PathResult respond = measure("pir_respond@m16", smoke ? 3 : 5, [&] {
    server.respond_into(enc.queries[0], resp);
  });

  if (!smoke) {
    std::printf("\n  speedups vs PR 4: verify %.2fx, repack %.2fx, "
                "tag_all %.2fx, respond %.2fx\n",
                kPr4VerifyUs / verify.us_per_op,
                kPr4RepackUs / repack.us_per_op,
                kPr4TagAllUs / tag_all.us_per_op,
                kPr4RespondUs / respond.us_per_op);
  }

  const auto entry = [](const PathResult& r, double pr4_us, double pr4_allocs) {
    return "{\"us_per_op\": " + std::to_string(r.us_per_op) +
           ", \"allocs_per_op\": " + std::to_string(r.allocs_per_op) +
           ", \"pr4_us_per_op\": " + std::to_string(pr4_us) +
           ", \"pr4_allocs_per_op\": " + std::to_string(pr4_allocs) + "}";
  };
  const std::string body =
      "{\"verify10\": " + entry(verify, kPr4VerifyUs, kPr4VerifyAllocs) +
      ", \"repack200\": " + entry(repack, kPr4RepackUs, kPr4RepackAllocs) +
      ", \"tag_all_200x10KiB\": " +
      entry(tag_all, kPr4TagAllUs, kPr4TagAllAllocs) +
      ", \"pir_respond_m16\": " +
      entry(respond, kPr4RespondUs, kPr4RespondAllocs) + "}";
  emit_parallel_json("alloc", body, "BENCH_alloc.json");
  return 0;
}
