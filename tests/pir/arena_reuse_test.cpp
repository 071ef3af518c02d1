// Pins the ScratchArena steady-state property for the fused PIR hot path:
// after warm-up, respond_into() must serve every scratch request from the
// thread's free list — zero fresh buffer allocations (arena misses) per
// iteration.
#include <gtest/gtest.h>

#include <vector>

#include "bignum/random.h"
#include "common/rng.h"
#include "common/scratch.h"
#include "pir/client.h"
#include "pir/server.h"

namespace ice::pir {
namespace {

TEST(ArenaReuseTest, FusedRespondSteadyStateHasZeroArenaMisses) {
  const std::size_t n = 1500;
  const std::size_t tag_bits = 256;
  SplitMix64 gen(0xa11);
  bn::Rng64Adapter rng(gen);

  TagDatabase db(tag_bits);
  for (std::size_t i = 0; i < n; ++i) db.add(bn::random_bits(rng, tag_bits));
  const Embedding emb(n);
  const PirClient client(emb, tag_bits);

  std::vector<std::size_t> wanted;
  for (int i = 0; i < 8; ++i) wanted.push_back(gen.below(n));
  const auto enc = client.encode(wanted, rng);

  // The first row shard accumulates into the response itself and every
  // other shard into one lease the calling thread takes, so the counters
  // below observe the whole iteration. At parallelism 1 there is no other
  // shard and the arena is not touched; at 2 the lease holds the second
  // shard's accumulator.
  for (const std::size_t parallelism : {1u, 2u}) {
    SCOPED_TRACE(parallelism);
    const PirServer server(db, emb, parallelism);
    PirResponse resp;
    for (int i = 0; i < 3; ++i) server.respond_into(enc.queries[0], resp);

    auto& arena = ScratchArena::local();
    const std::uint64_t misses_before = arena.stats().misses;
    const std::uint64_t hits_before = arena.stats().hits;
    for (int i = 0; i < 5; ++i) server.respond_into(enc.queries[0], resp);
    EXPECT_EQ(arena.stats().misses, misses_before)
        << "steady-state respond_into allocated fresh scratch buffers";
    if (parallelism == 1) {
      EXPECT_EQ(arena.stats().hits, hits_before);
    } else {
      // The path does go through the arena (the counter is live, not
      // bypassed).
      EXPECT_GT(arena.stats().hits, hits_before);
    }
  }
}

}  // namespace
}  // namespace ice::pir
