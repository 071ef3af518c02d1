// Satellite regression suite for tag mutation vs. audit concurrency.
//
// Since PR 9 updates run on the epoch engine (DESIGN.md §15): update()
// STAGES into the next epoch under the TagStore's shared lock and
// close_epoch() merges under its exclusive lock. These tests (a) pin the
// epoch visibility contract — staged rows are invisible until the close,
// then observed by the next fresh audit round — and (b) drive staged
// updates, appends, closes and audits from concurrent threads so the
// locking is asserted under TSan on every scheduled sanitizer run (the
// ice_test binary runs under both presets via tests/run_sanitizers.sh),
// including the differential storm test pinning mid-storm audits bit-exact
// to the quiesced snapshot.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "ice/tag.h"
#include "ice/tag_store.h"
#include "pir/client.h"
#include "pir/embedding.h"
#include "support/ice_fixtures.h"

namespace ice::proto {
namespace {

class UpdateEpochTest : public ::testing::Test {
 protected:
  UpdateEpochTest() : keys_(ice::testing::test_keypair_256()), tagger_(keys_.pk) {
    params_.modulus_bits = keys_.pk.modulus_bits();
    params_.parallelism = 1;
  }

  std::vector<bn::BigInt> make_tags(std::size_t n, std::uint64_t seed) {
    return tagger_.tag_all(ice::testing::make_blocks(n, 64, seed));
  }

  KeyPair keys_;
  ProtocolParams params_ = ice::testing::test_params();
  TagGenerator tagger_;
  SplitMix64 gen_{0x51ed};
  bn::Rng64Adapter<SplitMix64> rng_{gen_};
};

TEST_F(UpdateEpochTest, UpdateVisibleToNextAuditRound) {
  const auto tags = make_tags(24, 1);
  TagStore tpa0(params_, tags);
  TagStore tpa1(params_, tags);

  const bn::BigInt fresh = make_tags(1, 99)[0];
  for (std::size_t index : {std::size_t{0}, std::size_t{11},
                            std::size_t{23}}) {
    const bn::BigInt before = tpa0.tag(index);
    tpa0.update(index, fresh);
    tpa1.update(index, fresh);
    // Snapshot isolation: the staged row is invisible to an audit round
    // running before the epoch close.
    const auto pre =
        retrieve_tags_direct(tpa0, tpa1, std::vector<std::size_t>{index},
                             rng_);
    ASSERT_EQ(pre.size(), 1u);
    EXPECT_EQ(pre[0], before) << "staged row leaked for index " << index;

    ASSERT_TRUE(tpa0.close_epoch().closed);
    ASSERT_TRUE(tpa1.close_epoch().closed);
    const auto got =
        retrieve_tags_direct(tpa0, tpa1, std::vector<std::size_t>{index},
                             rng_);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], fresh) << "stale row served for index " << index;
  }
}

TEST_F(UpdateEpochTest, AppendCrossesEpochBoundaryAndIsAuditable) {
  const auto tags = make_tags(8, 2);
  TagStore tpa0(params_, tags);
  TagStore tpa1(params_, tags);
  const std::uint64_t epoch_before = tpa0.epoch();

  // Plan an audit against the current epoch, then append (one more row, a
  // grown embedding, an epoch bump). The parked query must be rejected
  // with the typed status, not decoded against the grown embedding.
  const pir::Embedding embedding(tpa0.n());
  const pir::PirClient client(embedding, tpa0.tag_bits());
  const auto stale = client.encode(std::vector<std::size_t>{3}, rng_);

  const bn::BigInt appended = make_tags(1, 3)[0];
  EXPECT_EQ(tpa0.append(appended), 8u);
  EXPECT_EQ(tpa1.append(appended), 8u);
  EXPECT_GT(tpa0.epoch(), epoch_before);
  EXPECT_EQ(tpa0.n(), 9u);

  pir::PirResponse resp;
  EXPECT_THROW(tpa0.respond(epoch_before, stale.queries[0], resp),
               StaleEpochError);

  // A fresh round planned against the new epoch retrieves everything,
  // including the appended tag.
  const auto got = retrieve_tags_direct(
      tpa0, tpa1, std::vector<std::size_t>{0, 8, 4}, rng_);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], tags[0]);
  EXPECT_EQ(got[1], appended);
  EXPECT_EQ(got[2], tags[4]);
}

// The TSan satellite: staged updates, appends, epoch closes and audit
// rounds race from dedicated threads. Correctness of decoded values under
// racing closers is not asserted here (the differential storm test below
// covers it with closes excluded); what must hold is (a) no data race —
// staging is internally synchronized and closes and appends take the
// exclusive lock — and (b) every append or close is either invisible to a
// round or surfaces as the typed stale-epoch rejection, never as a
// malformed response.
TEST_F(UpdateEpochTest, ConcurrentUpdatesAppendsAndAuditsAreRaceFree) {
  const auto tags = make_tags(32, 4);
  TagStore tpa(params_, tags);
  constexpr int kRounds = 40;
  std::atomic<bool> stop{false};
  std::atomic<int> stale_rejections{0};

  std::thread updater([&] {
    SplitMix64 gen(0xbeef);
    const bn::BigInt fresh = make_tags(1, 5)[0];
    while (!stop.load(std::memory_order_acquire)) {
      tpa.update(gen.below(32), fresh);
    }
  });
  std::thread closer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)tpa.close_epoch();  // merges whatever the updater staged
      std::this_thread::yield();
    }
  });
  std::thread appender([&] {
    const bn::BigInt extra = make_tags(1, 6)[0];
    for (int i = 0; i < 8; ++i) tpa.append(extra);
  });

  SplitMix64 gen(0x77);
  bn::Rng64Adapter<SplitMix64> rng(gen);
  for (int round = 0; round < kRounds; ++round) {
    // Fresh plan each round = a fresh audit per epoch boundary.
    const TagInfo info = tpa.info();
    const pir::Embedding embedding(info.n);
    const pir::PirClient client(embedding, tpa.tag_bits());
    const std::vector<std::size_t> wanted = {gen.below(32), gen.below(32)};
    const auto enc = client.encode(wanted, rng);
    pir::PirResponse resp;
    try {
      tpa.respond(info.epoch, enc.queries[0], resp);
      // EXPECT, not ASSERT: a fatal failure would return from the test
      // body and destroy the running threads while joinable.
      EXPECT_EQ(resp.entries.size(), wanted.size());
    } catch (const StaleEpochError&) {
      ++stale_rejections;  // an append or close landed mid-round
    }
  }
  stop.store(true, std::memory_order_release);
  updater.join();
  closer.join();
  appender.join();
  EXPECT_GT(tpa.n(), 32u);
}

// The PR 9 differential storm (TSan-gated like the rest of this file):
// audit threads run full retrieval rounds WHILE updater threads
// stage an update storm into both replicas. Snapshot isolation must make
// every mid-storm verdict bit-exact with the quiesced epoch-t state; after
// the storm joins and the epoch closes on both replicas, a quiesced round
// must match the merged state exactly. Updaters partition the index space
// (even/odd) so both replicas deterministically converge to the same rows.
TEST_F(UpdateEpochTest, StormAuditsMatchQuiescedReferenceBitExact) {
  const std::size_t n = 32;
  const auto tags = make_tags(n, 7);
  TagStore tpa0(params_, tags);
  TagStore tpa1(params_, tags);
  const auto fresh = make_tags(64, 8);

  std::atomic<bool> stop{false};
  std::atomic<bool> mismatch{false};
  std::atomic<int> updaters_staged{0};
  const auto updater = [&](std::size_t parity, std::uint64_t seed) {
    SplitMix64 gen(seed);
    std::size_t k = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::size_t index = (2 * gen.below(n / 2) + parity) % n;
      const bn::BigInt& t = fresh[(parity + 2 * k++) % fresh.size()];
      tpa0.update(index, t);
      tpa1.update(index, t);
      if (k == 1) updaters_staged.fetch_add(1, std::memory_order_release);
    }
  };
  std::thread w0(updater, 0, 0xd00d);
  std::thread w1(updater, 1, 0xfeed);
  // The audits start once both updaters have staged a row: otherwise a
  // busy host can finish every audit before an updater first runs, and
  // the close below then has nothing to merge.
  while (updaters_staged.load(std::memory_order_acquire) < 2) {
    std::this_thread::yield();
  }

  const auto auditor = [&](std::uint64_t seed) {
    SplitMix64 gen(seed);
    bn::Rng64Adapter<SplitMix64> rng(gen);
    for (int round = 0; round < 12; ++round) {
      std::vector<std::size_t> wanted = {gen.below(n), gen.below(n)};
      const auto got = retrieve_tags_direct(tpa0, tpa1, wanted, rng);
      for (std::size_t i = 0; i < wanted.size(); ++i) {
        // The quiesced reference IS the original tag set: nothing merges
        // during the storm, so any deviation is a snapshot leak. No
        // gtest assertions off the main thread; flag and re-check below.
        if (got[i] != tags[wanted[i]]) {
          mismatch.store(true, std::memory_order_release);
        }
      }
    }
  };
  std::thread a0(auditor, 0x1111);
  std::thread a1(auditor, 0x2222);
  a0.join();
  a1.join();
  stop.store(true, std::memory_order_release);
  w0.join();
  w1.join();
  EXPECT_FALSE(mismatch.load(std::memory_order_acquire))
      << "mid-storm audit diverged from the quiesced epoch-t reference";

  // Close both replicas; they saw identical last-writes per index (each
  // index belongs to exactly one updater thread), so they must agree.
  const auto r0 = tpa0.close_epoch();
  const auto r1 = tpa1.close_epoch();
  EXPECT_TRUE(r0.closed);
  EXPECT_EQ(r0.rows_merged, r1.rows_merged);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(tpa0.tag(i), tpa1.tag(i)) << "replica divergence at " << i;
  }
  // Quiesced post-close round decodes the merged state bit-exactly.
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  const auto got = retrieve_tags_direct(tpa0, tpa1, all, rng_);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(got[i], tpa0.tag(i)) << "post-merge decode wrong at " << i;
  }
}

}  // namespace
}  // namespace ice::proto
