// Steady-state allocation tests for the audit hot paths.
//
// This binary replaces global operator new/delete with a counting hook
// (which is why it is its own test target: the hook is process-wide). Each
// test warms a hot path until every thread-local cache — BigInt SBO spill
// buffers, ScratchArena free lists, wire BufferPools, thread_local event
// queues — has reached its working size, then asserts that further
// iterations perform ZERO heap allocations, in both the serial
// (parallelism = 1) and pooled (parallelism = 2) configurations. A
// regression here means an allocator round trip crept back into the loop.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <latch>
#include <mutex>
#include <new>
#include <vector>

#include "bignum/ladder.h"
#include "bignum/multiexp.h"
#include "bignum/random.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "ice/protocol.h"
#include "ice/tag.h"
#include "ice/wire.h"
#include "pir/client.h"
#include "pir/server.h"
#include "support.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void note_alloc() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

void* operator new(std::size_t n) {
  note_alloc();
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  note_alloc();
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  note_alloc();
  return std::malloc(n ? n : 1);
}
void* operator new(std::size_t n, std::align_val_t al) {
  note_alloc();
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), n ? n : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ice {
namespace {

/// Runs `f` once on every worker of the shared pool, then once on the
/// calling thread with every worker held busy. Each worker task holds its
/// worker at the latch until every worker has a task, so no worker can take
/// two; the runs then take turns (f writes shared outputs), and on a worker
/// f's own fan-out runs inline. The caller, which otherwise runs only the
/// chunks the workers leave it (and under load may meet one it never ran),
/// then claims every chunk of f's fan-out itself. Every thread's
/// thread-local caches thus reach their working size here, not when it
/// first runs some chunk inside the counted window.
template <typename F>
void warm_every_thread(F& f) {
  ThreadPool& pool = shared_pool();
  std::latch all_started(static_cast<std::ptrdiff_t>(pool.size()));
  std::mutex one_at_a_time;
  std::vector<std::future<void>> done;
  done.reserve(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    done.push_back(pool.submit([&] {
      all_started.arrive_and_wait();
      const std::lock_guard lock(one_at_a_time);
      f();
    }));
  }
  for (auto& d : done) d.get();

  std::latch all_held(static_cast<std::ptrdiff_t>(pool.size()));
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::vector<std::future<void>> held;
  held.reserve(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    held.push_back(pool.submit([&all_held, released] {
      all_held.count_down();
      released.wait();
    }));
  }
  all_held.wait();
  try {
    f();
  } catch (...) {
    release.set_value();  // never leave the workers held
    throw;
  }
  release.set_value();
  for (auto& h : held) h.get();
}

/// Warms every thread that runs f's chunks, runs `f` warm-up times, then
/// counts heap allocations across `iters` more runs. The count is read
/// before any gtest machinery can allocate.
template <typename F>
std::uint64_t steady_state_allocs(F&& f, int warm = 8, int iters = 4) {
  warm_every_thread(f);
  for (int i = 0; i < warm; ++i) f();
  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  for (int i = 0; i < iters; ++i) f();
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocs.load(std::memory_order_relaxed);
}

class AllocTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  AllocTest() : gen_(0xa110c), rng_(gen_) {}
  SplitMix64 gen_;
  bn::Rng64Adapter<SplitMix64> rng_;
};

TEST_P(AllocTest, VerifyProofIsAllocationFree) {
  const proto::KeyPair keys = bench::bench_keypair(1024);
  proto::ProtocolParams params;
  params.parallelism = GetParam();

  std::vector<bn::BigInt> tags(10);
  for (auto& t : tags) t = bn::random_below(rng_, keys.pk.n);
  proto::ChallengeSecret secret;
  const proto::Challenge chal =
      proto::make_challenge(keys.pk, params, rng_, secret);
  proto::Proof proof;
  proof.p = bn::BigInt(1);

  const std::uint64_t allocs = steady_state_allocs([&] {
    (void)proto::verify_proof(keys.pk, params, tags, chal, secret, proof);
  });
  EXPECT_EQ(allocs, 0u);
}

TEST_P(AllocTest, TagAllIsAllocationFree) {
  const proto::KeyPair keys = bench::bench_keypair(1024);
  const proto::TagGenerator tagger(keys.pk);
  const std::vector<Bytes> blocks = bench::bench_blocks(8, 1024, 10);

  std::vector<bn::BigInt> out;
  const std::uint64_t allocs = steady_state_allocs(
      [&] { tagger.tag_all_into(blocks, GetParam(), out); }, 4, 2);
  EXPECT_EQ(allocs, 0u);
}

TEST_P(AllocTest, RepackTagsIsAllocationFree) {
  const proto::KeyPair keys = bench::bench_keypair(1024);
  std::vector<bn::BigInt> tags(32);
  for (auto& t : tags) t = bn::random_below(rng_, keys.pk.n);
  const bn::BigInt s_tilde = proto::draw_blinding(keys.pk, rng_);

  std::vector<bn::BigInt> out;
  const std::uint64_t allocs = steady_state_allocs(
      [&] { proto::repack_tags_into(keys.pk, tags, s_tilde, GetParam(), out); },
      4, 2);
  EXPECT_EQ(allocs, 0u);
}

TEST_P(AllocTest, FusedPirRespondIsAllocationFree) {
  const std::size_t n = 1500;
  const std::size_t tag_bits = 512;
  pir::TagDatabase db(tag_bits);
  for (std::size_t i = 0; i < n; ++i) {
    db.add(bn::random_bits(rng_, tag_bits));
  }
  const pir::Embedding emb(n);
  const pir::PirServer server(db, emb, GetParam());
  const pir::PirClient client(emb, tag_bits);

  std::vector<std::size_t> wanted;
  for (int i = 0; i < 4; ++i) wanted.push_back(gen_.below(n));
  const auto enc = client.encode(wanted, rng_);

  pir::PirResponse resp;
  const std::uint64_t allocs = steady_state_allocs(
      [&] { server.respond_into(enc.queries[0], resp); });
  EXPECT_EQ(allocs, 0u);
}

// The user's side of a retrieval: read both 310 replies of an m = 10
// answer and decode them. Each reply's planes and the returned tag vector
// are its only allocations, however many gradient rows (m (1 + gamma) of
// them) the replies carry.
TEST_P(AllocTest, UserReadAndDecodeAllocationsAreBounded) {
  const std::size_t n = 1500;
  const std::size_t tag_bits = 1024;  // tags fit a BigInt's inline limbs
  pir::TagDatabase db(tag_bits);
  for (std::size_t i = 0; i < n; ++i) {
    db.add(bn::random_bits(rng_, tag_bits));
  }
  const pir::Embedding emb(n);
  const pir::PirServer server(db, emb, GetParam());
  const pir::PirClient client(emb, tag_bits);
  std::vector<std::size_t> wanted;
  for (int i = 0; i < 10; ++i) wanted.push_back(gen_.below(n));
  const auto enc = client.encode(wanted, rng_);
  Bytes frames[2];
  for (std::size_t tau = 0; tau < 2; ++tau) {
    net::Writer w;
    proto::write_pir_response(w, server.respond(enc.queries[tau]));
    frames[tau] = w.take();
  }
  const pir::PirShape want{wanted.size(), tag_bits, emb.gamma()};

  constexpr int kIters = 4;
  const std::uint64_t allocs = steady_state_allocs(
      [&] {
        net::Reader r0(frames[0]);
        net::Reader r1(frames[1]);
        const pir::PirResponse a = proto::read_pir_response(r0, want);
        const pir::PirResponse b = proto::read_pir_response(r1, want);
        (void)client.decode(enc.secrets, a, b);
      },
      2, kIters);
  EXPECT_LE(allocs, 3u * kIters);
}

TEST_P(AllocTest, LadderMultiExpIsAllocationFree) {
  // The edge's multi-exp: 32 rungs, each raised to one L-bit chunk of a
  // full-length proof exponent. 64 KB blocks give w = 9 tables, 256 KB
  // blocks w = 10 (2 MB of arena for the serial 32-base tables).
  const proto::KeyPair keys = bench::bench_keypair(1024);
  const auto mont = bn::Montgomery::shared(keys.pk.n);
  std::vector<bn::BigInt> rungs(proto::kLadderRungs);
  for (auto& r : rungs) r = bn::random_below(rng_, keys.pk.n);
  for (const std::size_t block_bytes : {64 * 1024, 256 * 1024}) {
    proto::ProtocolParams params;
    params.block_bytes = block_bytes;
    const bn::BigInt exp =
        bn::random_bits(rng_, 8 * params.block_bytes + params.coeff_bits +
                                  64 + keys.pk.modulus_bits());
    std::vector<bn::BigInt> chunks;
    bn::ladder_chunks(exp, proto::kLadderRungs,
                      proto::rung_width(keys.pk, params), chunks);

    const std::uint64_t allocs = steady_state_allocs(
        [&] { (void)bn::multi_exp(*mont, rungs, chunks, GetParam()); }, 2,
        2);
    EXPECT_EQ(allocs, 0u) << block_bytes << " B blocks";
  }
}

INSTANTIATE_TEST_SUITE_P(SerialAndPooled, AllocTest,
                         ::testing::Values(std::size_t{1}, std::size_t{2}),
                         [](const auto& info) {
                           return info.param == 1 ? "Serial" : "Pooled";
                         });

}  // namespace
}  // namespace ice
