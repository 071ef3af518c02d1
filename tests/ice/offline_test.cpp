// The challenge pool (ice/offline.h): bundles minted bit-exact with
// make_challenge, the generation contract (a bundle minted under a rotated
// key is never consumed, a session is never verified under a key it was
// not challenged under nor with tags retrieved under another key, even
// when the rotation lands between the retrieval and the challenge), the
// one challenge path at the service (the first
// challenge after set_key mints inline, later ones pop, verdicts agree),
// and the worker's shutdown / rekey races (exercised under TSan via the
// sanitizer presets).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "crypto/csprng.h"
#include "ice/batch.h"
#include "ice/edge_service.h"
#include "ice/offline.h"
#include "ice/tag.h"
#include "ice/wire.h"
#include "mec/corruption.h"
#include "net/channel.h"
#include "sim/deployment.h"
#include "support/ice_fixtures.h"

namespace ice::proto {
namespace {

ProtocolParams small_params() {
  ProtocolParams params = ice::testing::test_params(64);
  params.modulus_bits = ice::testing::test_keypair_256().pk.modulus_bits();
  return params;
}

/// Offers `count` bundles minted under the pool's current spec.
void fill(ChallengePool& pool, bn::Rng64& rng, std::size_t count) {
  const auto spec = pool.mint_spec();
  ASSERT_TRUE(spec.has_value());
  for (std::size_t i = 0; i < count; ++i) {
    ChallengeBundle b = make_bundle(spec->pk, spec->params, rng);
    b.generation = spec->generation;
    ASSERT_TRUE(pool.offer(std::move(b)));
  }
}

// --- make_bundle vs make_challenge ---------------------------------------

TEST(OfflineBundleTest, BundleMatchesColdPathBitExact) {
  const KeyPair keys = ice::testing::test_keypair_256();
  const ProtocolParams params = small_params();
  const RungBases rungs(keys.pk, params);

  SplitMix64 gen_a(42), gen_b(42);
  bn::Rng64Adapter rng_a(gen_a), rng_b(gen_b);

  const ChallengeBundle bundle = make_bundle(keys.pk, params, rng_a, &rungs);
  ChallengeSecret cold_secret;
  const Challenge cold =
      make_challenge(keys.pk, params, rng_b, cold_secret, &rungs);

  // Identical RNG stream -> identical challenge material, bit for bit.
  EXPECT_EQ(bundle.challenge.e, cold.e);
  EXPECT_EQ(bundle.challenge.g_s, cold.g_s);
  EXPECT_EQ(bundle.secret.s, cold_secret.s);
  EXPECT_EQ(bundle.challenge.ladder.width, cold.ladder.width);
  EXPECT_EQ(bundle.challenge.ladder.rungs, cold.ladder.rungs);
}

// --- ChallengePool semantics --------------------------------------------

TEST(ChallengePoolTest, AcquireOfferAndStats) {
  const KeyPair keys = ice::testing::test_keypair_256();
  const ProtocolParams params = small_params();
  ChallengePool pool;

  ChallengeBundle out;
  EXPECT_FALSE(pool.try_acquire(0, out));  // no key yet: miss
  EXPECT_FALSE(pool.mint_spec().has_value());

  const std::uint64_t gen = pool.rekey(keys.pk, params);
  const auto spec = pool.mint_spec();
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->generation, gen);
  EXPECT_EQ(pool.generation(), gen);

  SplitMix64 sm(5);
  bn::Rng64Adapter rng(sm);
  fill(pool, rng, kChallengePoolCapacity);
  EXPECT_TRUE(pool.full());
  EXPECT_EQ(pool.depth(), kChallengePoolCapacity);

  // One more offer at capacity is refused.
  ChallengeBundle extra = make_bundle(spec->pk, spec->params, rng);
  extra.generation = spec->generation;
  EXPECT_FALSE(pool.offer(std::move(extra)));

  EXPECT_TRUE(pool.try_acquire(gen, out));
  EXPECT_EQ(out.generation, gen);

  const OfflineStats stats = pool.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.minted, kChallengePoolCapacity);
  EXPECT_EQ(stats.full_rejects, 1u);
  EXPECT_EQ(stats.depth, kChallengePoolCapacity - 1);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(ChallengePoolTest, RekeyInvalidatesStoredAndInFlightBundles) {
  const KeyPair keys = ice::testing::test_keypair_256();
  const KeyPair keys2 = ice::testing::test_keypair_256(0, 1);
  const ProtocolParams params = small_params();
  ChallengePool pool;

  const std::uint64_t gen1 = pool.rekey(keys.pk, params);
  SplitMix64 sm(6);
  bn::Rng64Adapter rng(sm);
  fill(pool, rng, 1);
  ASSERT_EQ(pool.depth(), 1u);

  // Key rotation: stored bundles drop, and an in-flight mint against the
  // old generation is refused at offer time.
  const std::uint64_t gen2 = pool.rekey(keys2.pk, params);
  EXPECT_GT(gen2, gen1);
  EXPECT_EQ(pool.depth(), 0u);
  ChallengeBundle stale = make_bundle(keys.pk, params, rng);
  stale.generation = gen1;
  EXPECT_FALSE(pool.offer(std::move(stale)));
  EXPECT_EQ(pool.stats().stale_rejects, 1u);
  EXPECT_EQ(pool.depth(), 0u);

  // Only current-generation material is ever popped, and only by a caller
  // that read the current key: one that read the old key misses even with
  // a new-key bundle stored.
  ChallengeBundle out;
  EXPECT_FALSE(pool.try_acquire(gen2, out));
  fill(pool, rng, 1);
  EXPECT_FALSE(pool.try_acquire(gen1, out));
  ASSERT_TRUE(pool.try_acquire(gen2, out));
  EXPECT_EQ(out.generation, gen2);
}

// A rekey moves the generation and the mint spec together: a producer
// reading the spec mid-rekey must never see the new generation with the
// old key, or it would mint an old-key bundle the pool accepts as current.
TEST(ChallengePoolTest, MintSpecNeverPairsNewGenerationWithOldKey) {
  const KeyPair keys_a = ice::testing::test_keypair_256();
  const KeyPair keys_b = ice::testing::test_keypair_256(0, 1);
  ASSERT_NE(keys_a.pk.n, keys_b.pk.n);
  const ProtocolParams params = small_params();
  ChallengePool pool;
  pool.rekey(keys_a.pk, params);  // odd generations key a, even ones key b
  std::atomic<bool> done{false};
  std::thread rekeyer([&] {
    for (int i = 0; !done.load(); ++i) {
      pool.rekey(i % 2 == 0 ? keys_b.pk : keys_a.pk, params);
    }
  });
  // Keep reading until the two threads have overlapped for 100000 rekeys.
  std::size_t mismatched = 0;
  while (pool.generation() < 100000) {
    const auto spec = pool.mint_spec();
    if (spec && (spec->pk.n == keys_a.pk.n) != (spec->generation % 2 == 1)) {
      ++mismatched;
    }
  }
  done.store(true);
  rekeyer.join();
  EXPECT_EQ(mismatched, 0u);
}

// --- OfflineWorker lifecycle and races ----------------------------------

TEST(OfflineWorkerTest, FillsPoolAndStops) {
  const KeyPair keys = ice::testing::test_keypair_256();
  const ProtocolParams params = small_params();
  ChallengePool pool;
  pool.rekey(keys.pk, params);

  crypto::SharedCsprng rng = crypto::SharedCsprng::deterministic(9);
  OfflineWorker worker(pool, rng);
  worker.kick();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!pool.full() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    worker.kick();
  }
  EXPECT_TRUE(pool.full());
  EXPECT_GE(worker.refills(), 1u);
  worker.stop();
  worker.stop();  // idempotent
  // After stop, kicks are inert.
  worker.kick();
  const std::uint64_t gen = pool.generation();
  ChallengeBundle out;
  while (pool.try_acquire(gen, out)) {
  }
  worker.kick();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(pool.depth(), 0u);
}

// Shutdown must drain an in-flight refill instead of racing it (the TSan
// presets run this with real interleavings).
TEST(OfflineWorkerTest, StopDuringRefillDoesNotRace) {
  const KeyPair keys = ice::testing::test_keypair_256();
  const ProtocolParams params = small_params();
  crypto::SharedCsprng rng = crypto::SharedCsprng::deterministic(10);
  for (int i = 0; i < 20; ++i) {
    ChallengePool pool;
    pool.rekey(keys.pk, params);
    OfflineWorker worker(pool, rng);
    worker.kick();
    if (i % 2 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(50 * i));
    }
    worker.stop();  // must not return while a mint is mid-offer
  }
}

TEST(OfflineWorkerTest, ConcurrentRekeyNeverLeavesStaleBundles) {
  const KeyPair keys_a = ice::testing::test_keypair_256();
  const KeyPair keys_b = ice::testing::test_keypair_256(0, 1);
  const ProtocolParams params = small_params();
  ChallengePool pool;
  pool.rekey(keys_a.pk, params);
  crypto::SharedCsprng rng = crypto::SharedCsprng::deterministic(11);
  OfflineWorker worker(pool, rng);

  std::thread rekeyer([&] {
    for (int i = 0; i < 25; ++i) {
      pool.rekey(i % 2 == 0 ? keys_b.pk : keys_a.pk, params);
      worker.kick();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (int i = 0; i < 25; ++i) {
    worker.kick();
    const std::uint64_t gen = pool.generation();
    ChallengeBundle out;
    if (pool.try_acquire(gen, out)) {
      // Whatever we got was minted under the generation we asked for.
      EXPECT_EQ(out.generation, gen);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  rekeyer.join();
  worker.stop();
  // Post-quiescence: every surviving bundle carries the final generation.
  const std::uint64_t gen = pool.generation();
  ChallengeBundle out;
  while (pool.try_acquire(gen, out)) {
    EXPECT_EQ(out.generation, gen);
  }
  EXPECT_EQ(pool.depth(), 0u);
}

// --- Service level: the one challenge path ------------------------------

/// A default deployment: one CSP + verifier TPA (+ replica) + one edge
/// (8-block cache) + user over a 16-block file of seed 99, set up.
class OfflineDeployment : public sim::Deployment {
 public:
  explicit OfflineDeployment(std::size_t parallelism)
      : sim::Deployment(with_parallelism(parallelism),
                        ice::testing::test_keypair_256(), 16, 1, 8, 99) {
    setup();
  }

  static ProtocolParams with_parallelism(std::size_t parallelism) {
    ProtocolParams p = ice::testing::test_params(64);
    p.parallelism = parallelism;
    return p;
  }

  void wait_for_pool_depth(std::size_t depth) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (tpa(0).offline_stats().depth < depth &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GE(tpa(0).offline_stats().depth, depth) << "pool never filled";
  }

  /// Times the key's rungs were built at TPA `i`.
  std::uint64_t rung_builds(std::size_t i) {
    return tpa(i).challenge_pool().mint_spec()->rungs->builds();
  }

  /// The CSP's blocks, in index order.
  std::vector<Bytes> file_blocks() {
    std::vector<Bytes> blocks;
    for (std::size_t i = 0; i < csp().store().size(); ++i) {
      blocks.push_back(csp().store().block(i));
    }
    return blocks;
  }

  /// Re-keys both TPAs to `pk` and uploads `tags`, as an owner does.
  void rotate(const PublicKey& pk, const std::vector<bn::BigInt>& tags) {
    for (std::size_t i = 0; i < 2; ++i) {
      const TpaClient tpa(user_tpa(i));
      tpa.set_key(pk, params());
      tpa.store_tags(tags);
    }
  }
};

/// The first challenge under a key is an inline miss; once the worker has
/// refilled, challenges pop. Both return the same verdicts across thread
/// budgets, for honest and corrupted edges alike.
TEST(OfflineServiceTest, OnlineMatchesColdAcrossConfigurations) {
  const std::size_t parallelisms[] = {1, 0};
  for (const auto parallelism : parallelisms) {
    for (const bool corrupt : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "parallelism " << parallelism
                                      << (corrupt ? ", corrupted" : ""));
      OfflineDeployment d(parallelism);
      d.edge(0).pre_download({1, 3, 4, 8});
      if (corrupt) {
        SplitMix64 rng(13);
        mec::corrupt_random_blocks(d.edge(0).cache_for_corruption(), 1,
                                   mec::CorruptionKind::kBitFlip, rng);
      }
      EXPECT_EQ(d.user().audit_edge(d.user_edge(0), 0), !corrupt);
      OfflineStats stats = d.tpa(0).offline_stats();
      EXPECT_EQ(stats.hits, 0u);
      EXPECT_EQ(stats.misses, 1u);

      d.wait_for_pool_depth(1);
      EXPECT_EQ(d.user().audit_edge(d.user_edge(0), 0), !corrupt);
      stats = d.tpa(0).offline_stats();
      EXPECT_EQ(stats.hits, 1u);
      EXPECT_EQ(stats.misses, 1u);
    }
  }
}

TEST(OfflineServiceTest, PoolExhaustionFallsBackToColdPath) {
  // set_key starts no refill, so the first challenge after it finds the
  // pool empty, mints inline (building the key's rungs) and passes.
  OfflineDeployment d(1);
  d.edge(0).pre_download({2, 5, 9});
  EXPECT_EQ(d.tpa(0).offline_stats().minted, 0u);
  EXPECT_EQ(d.rung_builds(0), 0u);
  EXPECT_TRUE(d.user().audit_edge(d.user_edge(0), 0));
  const OfflineStats stats = d.tpa(0).offline_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(d.rung_builds(0), 1u);
  d.wait_for_pool_depth(1);  // and it kicked the refill
}

// The shipped configuration: after one audit the verifier's pool refills,
// and every later ICE-basic and ICE-batch audit is a pool hit with the
// right verdict; the helper replica mints nothing and builds no rungs.
TEST(OfflineServiceTest, DefaultDeploymentServesAuditsFromThePool) {
  OfflineDeployment d(0);
  d.edge(0).pre_download({1, 4, 6, 11});
  EXPECT_TRUE(d.user().audit_edge(d.user_edge(0), 0));
  const auto audit_basic = [&] {
    d.wait_for_pool_depth(1);
    return d.user().audit_edge(d.user_edge(0), 0);
  };
  const auto audit_batch = [&] {
    d.wait_for_pool_depth(1);
    return d.user().audit_edges_batch(d.user_edges());
  };
  EXPECT_TRUE(audit_basic());
  EXPECT_TRUE(audit_batch());
  SplitMix64 rng(17);
  mec::corrupt_random_blocks(d.edge(0).cache_for_corruption(), 1,
                             mec::CorruptionKind::kBitFlip, rng);
  EXPECT_FALSE(audit_basic());
  EXPECT_FALSE(audit_batch());

  const OfflineStats verifier = d.tpa(0).offline_stats();
  EXPECT_EQ(verifier.hits, 4u);
  EXPECT_EQ(verifier.misses, 1u);
  EXPECT_GE(verifier.minted, 4u);
  EXPECT_EQ(d.rung_builds(0), 1u);
  const OfflineStats helper = d.tpa(1).offline_stats();
  EXPECT_EQ(helper.minted, 0u);
  EXPECT_EQ(helper.hits + helper.misses, 0u);
  EXPECT_EQ(d.rung_builds(1), 0u);
}

TEST(OfflineServiceTest, KeyRotationNeverServesStaleBundles) {
  OfflineDeployment d(1);
  d.edge(0).pre_download({1, 2, 7});
  EXPECT_TRUE(d.user().audit_edge(d.user_edge(0), 0));
  d.wait_for_pool_depth(1);
  const std::uint64_t gen_before = d.tpa(0).challenge_pool().generation();

  // Rotate the key: a fresh generator draw under the same modulus (edges
  // keep their modulus for a file's lifetime). setup_file re-tags every
  // block and re-sends set_key, which must invalidate every bundle minted
  // above — their g_s values are powers of the OLD generator.
  const KeyPair rotated = ice::testing::test_keypair_256(1);
  ASSERT_NE(rotated.pk.g, ice::testing::test_keypair_256().pk.g);
  UserClient user2(d.params(), rotated, d.user_tpa(0), d.user_tpa(1));
  user2.setup_file(d.file_blocks());
  EXPECT_GT(d.tpa(0).challenge_pool().generation(), gen_before);

  // Re-provision the edge for the rotated key: a fresh cache pulls the
  // re-tagged blocks (the old edge's cached tags are stale by design).
  net::InMemoryChannel edge_csp2(d.csp());
  net::InMemoryChannel edge_tpa2(d.tpa(0));
  EdgeService edge2(1, d.params(), rotated.pk,
                    mec::EdgeCache(8, mec::EvictionPolicy::kLru), edge_csp2,
                    &edge_tpa2);
  net::InMemoryChannel edge2_channel(edge2);
  d.tpa(0).register_edge(1, edge2_channel);
  edge2.pre_download({1, 2, 7});

  // Every audit after rotation verifies under the new key: a stale bundle
  // (old-generator g_s) would fail the honest edge.
  EXPECT_TRUE(user2.audit_edge(edge2_channel, 1));
  d.wait_for_pool_depth(1);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(user2.audit_edge(edge2_channel, 1));
  }
}

TEST(OfflineServiceTest, BatchBeginServedFromPool) {
  OfflineDeployment d(1);
  d.edge(0).pre_download({1, 4, 6});
  const std::vector<net::RpcChannel*> edges{&d.user_edge(0)};
  EXPECT_TRUE(d.user().audit_edges_batch(edges));
  d.wait_for_pool_depth(1);
  EXPECT_TRUE(d.user().audit_edges_batch(edges));
  EXPECT_EQ(d.tpa(0).offline_stats().hits, 1u);
}

// Same-modulus key rotations (set_key + store_tags at the verifier) racing
// ICE-basic and ICE-batch audits of an honest edge. Each audit repacks the
// tags of the key current when its challenge came back, as a user
// retrieving after the challenge would. A session challenged under one key
// and finished under another must surface as a typed error, never as FAIL.
TEST(KeyRotationStressTest, SameModulusRotationsNeverFailHonestAudits) {
  OfflineDeployment d(1);
  const KeyPair& key_a = d.keys();
  const KeyPair key_b = ice::testing::test_keypair_256(1);
  ASSERT_EQ(key_a.pk.n, key_b.pk.n);
  ASSERT_NE(key_a.pk.g, key_b.pk.g);
  const std::vector<std::size_t> s_j{1, 2, 7};
  d.edge(0).pre_download(s_j);

  const std::vector<Bytes> blocks = d.file_blocks();
  const std::vector<bn::BigInt> file_a = TagGenerator(key_a.pk).tag_all(blocks);
  const std::vector<bn::BigInt> file_b = TagGenerator(key_b.pk).tag_all(blocks);
  // The owner rotates under key_mu, so the S_j tags read under it are
  // those of the key the verifier holds right now, with its generation.
  std::mutex key_mu;
  bool holds_a = true;
  const auto current_tags = [&] {
    std::lock_guard lock(key_mu);
    std::vector<bn::BigInt> tags;
    for (const std::size_t k : s_j) {
      tags.push_back((holds_a ? file_a : file_b)[k]);
    }
    return std::pair{d.tpa(0).challenge_pool().generation(), tags};
  };

  // One audit of each kind; `gen` seeds the session ids and blindings.
  const auto audit_basic = [&](SplitMix64& gen) {
    bn::Rng64Adapter rng(gen);
    const TpaClient tpa(d.user_tpa(0));
    const std::uint64_t id = rng.next_u64();
    const bn::BigInt s_tilde = draw_blinding(key_a.pk, rng);
    EdgeClient(d.user_edge(0)).share_blinding(id, s_tilde);
    tpa.start_audit(0, id);
    const auto [generation, tags] = current_tags();
    const auto repacked = repack_tags(key_a.pk, tags, s_tilde, 1);
    return tpa.submit_repacked(id, generation, repacked);
  };
  const auto audit_batch = [&](SplitMix64& gen) {
    bn::Rng64Adapter rng(gen);
    const TpaClient tpa(d.user_tpa(0));
    const std::uint64_t id = rng.next_u64();
    const Challenge base = tpa.batch_begin(id, 1);
    const std::vector<bn::BigInt> keys =
        draw_challenge_keys(d.params(), 1, rng);
    EdgeClient(d.user_edge(0))
        .batch_challenge(id, keys[0], base.g_s, base.ladder);
    const auto [generation, tags] = current_tags();
    const auto repacked =
        batch_repack(key_a.pk, d.params(), s_j, tags, {s_j}, keys);
    return tpa.batch_finish(id, generation, repacked);
  };

  std::atomic<bool> stop{false};
  std::atomic<int> passes{0};
  std::atomic<int> fails{0};
  std::atomic<int> refused{0};
  const auto loop = [&](const auto& audit, std::uint64_t seed) {
    SplitMix64 gen(seed);
    while (!stop.load()) {
      try {
        (audit(gen) ? passes : fails)++;
      } catch (const net::RemoteError&) {
        ++refused;  // a typed error: the key moved under this audit
      } catch (const std::exception& e) {
        ADD_FAILURE() << "untyped error: " << e.what();
      }
    }
  };
  std::thread basic([&] { loop(audit_basic, 0xb451c); });
  std::thread batch([&] { loop(audit_batch, 0xba7c4); });
  const TpaClient owner(d.user_tpa(0));
  SplitMix64 pause(0x5eed);
  for (int i = 0; i < 200; ++i) {
    {
      std::lock_guard lock(key_mu);
      holds_a = !holds_a;
      owner.set_key(holds_a ? key_a.pk : key_b.pk, d.params());
      owner.store_tags(holds_a ? file_a : file_b);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(pause.below(300)));
  }
  stop.store(true);
  basic.join();
  batch.join();
  RecordProperty("passed", passes.load());
  RecordProperty("refused", refused.load());
  EXPECT_EQ(fails.load(), 0) << passes.load() << " passed, "
                             << refused.load() << " refused";
  // With the key settled, both audits pass.
  SplitMix64 settled(0x5e77);
  EXPECT_TRUE(audit_basic(settled));
  EXPECT_TRUE(audit_batch(settled));
}

/// Counts the 310s that returned through the channels sharing it; the
/// holding channel waits on it.
struct QueryCount {
  std::mutex mu;
  std::condition_variable cv;
  int returned = 0;
};

/// A user-side TPA channel. With a `before_start` action it holds the
/// first 303 until two 310s have returned, runs the action, then forwards
/// the 303: an owner's action pinned between the user's tag retrieval and
/// the TPA's challenge.
class HoldingChannel final : public net::RpcChannel {
 public:
  HoldingChannel(net::RpcChannel& inner, QueryCount& queries,
                 std::function<void()> before_start = nullptr)
      : inner_(&inner),
        queries_(&queries),
        before_start_(std::move(before_start)) {}

  Bytes call(std::uint16_t method, BytesView request) override {
    if (method == kTpaStartAudit && before_start_ != nullptr) {
      {
        std::unique_lock lock(queries_->mu);
        queries_->cv.wait_for(lock, std::chrono::seconds(30),
                              [&] { return queries_->returned >= 2; });
      }
      std::exchange(before_start_, nullptr)();
    }
    Bytes response = inner_->call(method, request);
    if (method == kTpaShardQuery) {
      std::lock_guard lock(queries_->mu);
      ++queries_->returned;
      queries_->cv.notify_all();
    }
    return response;
  }
  [[nodiscard]] const net::ChannelStats& stats() const override {
    return inner_->stats();
  }
  void reset_stats() override { inner_->reset_stats(); }

 private:
  net::RpcChannel* inner_;
  QueryCount* queries_;
  std::function<void()> before_start_;
};

// A same-modulus rotation at both TPAs lands after the user retrieved the
// tags and before the verifier challenges the edge: the tags are the old
// key's and the challenge the new key's. The audit must end as a typed
// refusal, never as a verdict on the honest edge; the next audit passes.
TEST(KeyRotationTest, RotationBetweenRetrievalAndChallengeIsRefused) {
  OfflineDeployment d(1);
  const KeyPair key_b = ice::testing::test_keypair_256(1);
  ASSERT_EQ(d.keys().pk.n, key_b.pk.n);
  d.edge(0).pre_download({1, 2, 7});
  const std::vector<bn::BigInt> file_b =
      TagGenerator(key_b.pk).tag_all(d.file_blocks());

  QueryCount queries;
  HoldingChannel tpa0(d.user_tpa(0), queries,
                      [&] { d.rotate(key_b.pk, file_b); });
  HoldingChannel tpa1(d.user_tpa(1), queries);
  UserClient user(d.params(), d.keys(), tpa0, tpa1);
  user.attach_file(d.csp().store().size());
  try {
    const bool pass = user.audit_edge(d.user_edge(0), 0);
    ADD_FAILURE() << "the audit ended in a verdict: "
                  << (pass ? "PASS" : "FAIL");
  } catch (const net::RemoteError& e) {
    EXPECT_EQ(e.status(), net::Status::kFailedPrecondition) << e.what();
  }
  EXPECT_TRUE(user.audit_edge(d.user_edge(0), 0));
}

// Same-modulus rotations at both TPAs (set_key + store_tags, as an owner
// re-keying its file) racing the user's own ICE-basic and ICE-batch audits,
// whose tags come from its private retrieval and may belong to any key the
// TPAs held meanwhile. Typed refusals are allowed; a FAIL is not.
TEST(KeyRotationStressTest, UserClientAuditsAcrossRotationsNeverFail) {
  OfflineDeployment d(1);
  const KeyPair key_b = ice::testing::test_keypair_256(1);
  ASSERT_EQ(d.keys().pk.n, key_b.pk.n);
  d.edge(0).pre_download({1, 2, 7});
  const std::vector<Bytes> blocks = d.file_blocks();
  const std::vector<bn::BigInt> file_a =
      TagGenerator(d.keys().pk).tag_all(blocks);
  const std::vector<bn::BigInt> file_b = TagGenerator(key_b.pk).tag_all(blocks);
  UserClient& user = d.user();

  std::atomic<bool> stop{false};
  std::atomic<int> passes{0};
  std::atomic<int> fails{0};
  std::atomic<int> refused{0};
  const auto loop = [&](const auto& audit) {
    while (!stop.load()) {
      try {
        (audit() ? passes : fails)++;
      } catch (const net::RemoteError&) {
        ++refused;  // a typed error: the key moved under this audit
      } catch (const std::exception& e) {
        ADD_FAILURE() << "untyped error: " << e.what();
      }
    }
  };
  std::thread basic(
      [&] { loop([&] { return user.audit_edge(d.user_edge(0), 0); }); });
  std::thread batch(
      [&] { loop([&] { return user.audit_edges_batch(d.user_edges()); }); });
  SplitMix64 pause(0x5eed);
  for (int i = 0; i < 200; ++i) {
    d.rotate(i % 2 == 0 ? key_b.pk : d.keys().pk, i % 2 == 0 ? file_b : file_a);
    std::this_thread::sleep_for(std::chrono::microseconds(pause.below(300)));
  }
  stop.store(true);
  basic.join();
  batch.join();
  RecordProperty("passed", passes.load());
  RecordProperty("refused", refused.load());
  EXPECT_EQ(fails.load(), 0) << passes.load() << " passed, "
                             << refused.load() << " refused";
  // With the key settled, both audits pass.
  EXPECT_TRUE(user.audit_edge(d.user_edge(0), 0));
  EXPECT_TRUE(user.audit_edges_batch(d.user_edges()));
}

}  // namespace
}  // namespace ice::proto
