// Online/offline audit split (ice/offline.h): the differential suite
// pinning pool-served audits bit-exact against the cold path, the
// generation-invalidation contract (a bundle minted under a rotated key is
// never consumed), pool-exhaustion fallback, and the worker's shutdown /
// rekey races (exercised under TSan via the sanitizer presets).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "common/rng.h"
#include "crypto/csprng.h"
#include "crypto/prf.h"
#include "ice/edge_service.h"
#include "ice/offline.h"
#include "ice/tag.h"
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

// --- make_bundle vs the cold path --------------------------------------

TEST(OfflineBundleTest, BundleMatchesColdPathBitExact) {
  const KeyPair keys = ice::testing::test_keypair_256();
  const ProtocolParams params = small_params();

  SplitMix64 gen_a(42), gen_b(42);
  bn::Rng64Adapter rng_a(gen_a), rng_b(gen_b);

  const ChallengeBundle bundle = make_bundle(keys.pk, params, rng_a, 12);
  ChallengeSecret cold_secret;
  const Challenge cold = make_challenge(keys.pk, params, rng_b, cold_secret);

  // Identical RNG stream -> identical challenge material, bit for bit.
  EXPECT_EQ(bundle.challenge.e, cold.e);
  EXPECT_EQ(bundle.challenge.g_s, cold.g_s);
  EXPECT_EQ(bundle.secret.s, cold_secret.s);

  // The bundle's coefficient vector is the exact PRF expansion of e; a
  // shorter cold expansion is its prefix (the stream is sequential).
  const auto cold_coeffs =
      crypto::CoefficientPrf::expand(cold.e, params.coeff_bits, 5);
  ASSERT_EQ(bundle.coeffs.size(), 12u);
  for (std::size_t i = 0; i < cold_coeffs.size(); ++i) {
    EXPECT_EQ(bundle.coeffs[i], cold_coeffs[i]) << "coefficient " << i;
  }
}

TEST(OfflineBundleTest, PrecomputedVerifyMatchesColdVerdicts) {
  const KeyPair keys = ice::testing::test_keypair_256();
  const ProtocolParams params = small_params();
  const auto blocks = ice::testing::make_blocks(6, params.block_bytes, 3);

  SplitMix64 gen(7);
  bn::Rng64Adapter rng(gen);
  const ChallengeBundle bundle = make_bundle(keys.pk, params, rng, 10);
  const bn::BigInt s_tilde = draw_blinding(keys.pk, rng);
  const Proof proof =
      make_proof(keys.pk, params, blocks, bundle.challenge, s_tilde);

  const TagGenerator tagger(keys.pk);
  std::vector<bn::BigInt> tags;
  for (const auto& b : blocks) tags.push_back(tagger.tag(b));
  const auto repacked = repack_tags(keys.pk, tags, s_tilde, 1);

  std::vector<bn::BigInt> coeffs(bundle.coeffs.begin(),
                                 bundle.coeffs.begin() + 6);
  EXPECT_TRUE(verify_proof(keys.pk, params, repacked, bundle.challenge,
                           bundle.secret, proof));
  EXPECT_TRUE(verify_proof_precomputed(keys.pk, params, repacked, coeffs,
                                       bundle.secret, proof));

  // Tamper: both paths must agree on the failure too.
  Proof bad = proof;
  bad.p = bad.p + bn::BigInt(1);
  EXPECT_FALSE(verify_proof(keys.pk, params, repacked, bundle.challenge,
                            bundle.secret, bad));
  EXPECT_FALSE(verify_proof_precomputed(keys.pk, params, repacked, coeffs,
                                        bundle.secret, bad));

  // Coefficient count must match the tag count exactly.
  EXPECT_THROW(verify_proof_precomputed(keys.pk, params, repacked,
                                        bundle.coeffs, bundle.secret, proof),
               ParamError);
}

// --- ChallengePool semantics --------------------------------------------

TEST(ChallengePoolTest, AcquireOfferAndStats) {
  const KeyPair keys = ice::testing::test_keypair_256();
  const ProtocolParams params = small_params();
  OfflineConfig config;
  config.enabled = true;
  config.pool_capacity = 4;
  config.pool_shards = 2;
  config.coeff_count = 4;
  ChallengePool pool(config);

  ChallengeBundle out;
  EXPECT_FALSE(pool.try_acquire(out));  // empty: miss
  EXPECT_FALSE(pool.mint_spec().has_value());

  const std::uint64_t gen = pool.rekey(keys.pk, params);
  const auto spec = pool.mint_spec();
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->generation, gen);
  EXPECT_EQ(spec->coeff_count, 4u);

  SplitMix64 sm(5);
  bn::Rng64Adapter rng(sm);
  for (std::size_t i = 0; i < 4; ++i) {
    ChallengeBundle b = make_bundle(spec->pk, spec->params, rng, 4);
    b.generation = spec->generation;
    EXPECT_TRUE(pool.offer(std::move(b)));
  }
  EXPECT_TRUE(pool.full());
  EXPECT_EQ(pool.depth(), 4u);

  // A fifth offer at capacity is refused.
  ChallengeBundle extra = make_bundle(spec->pk, spec->params, rng, 4);
  extra.generation = spec->generation;
  EXPECT_FALSE(pool.offer(std::move(extra)));

  EXPECT_TRUE(pool.try_acquire(out));
  EXPECT_EQ(out.generation, gen);
  EXPECT_EQ(out.coeffs.size(), 4u);

  const OfflineStats stats = pool.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.minted, 4u);
  EXPECT_EQ(stats.full_rejects, 1u);
  EXPECT_EQ(stats.depth, 3u);
  EXPECT_EQ(stats.capacity, 4u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(ChallengePoolTest, RekeyInvalidatesStoredAndInFlightBundles) {
  const KeyPair keys = ice::testing::test_keypair_256();
  const KeyPair keys2 = ice::testing::test_keypair_256(0, 1);
  const ProtocolParams params = small_params();
  OfflineConfig config;
  config.pool_capacity = 4;
  config.coeff_count = 2;
  ChallengePool pool(config);

  const std::uint64_t gen1 = pool.rekey(keys.pk, params);
  SplitMix64 sm(6);
  bn::Rng64Adapter rng(sm);
  ChallengeBundle b = make_bundle(keys.pk, params, rng, 2);
  b.generation = gen1;
  ASSERT_TRUE(pool.offer(std::move(b)));
  ASSERT_EQ(pool.depth(), 1u);

  // Key rotation: stored bundles drop, and an in-flight mint against the
  // old generation is refused at offer time.
  const std::uint64_t gen2 = pool.rekey(keys2.pk, params);
  EXPECT_GT(gen2, gen1);
  EXPECT_EQ(pool.depth(), 0u);
  ChallengeBundle stale = make_bundle(keys.pk, params, rng, 2);
  stale.generation = gen1;
  EXPECT_FALSE(pool.offer(std::move(stale)));
  EXPECT_EQ(pool.stats().stale_rejects, 1u);
  EXPECT_EQ(pool.depth(), 0u);

  // A stale bundle is NEVER acquirable: only current-generation material.
  ChallengeBundle out;
  EXPECT_FALSE(pool.try_acquire(out));
  ChallengeBundle fresh = make_bundle(keys2.pk, params, rng, 2);
  fresh.generation = gen2;
  ASSERT_TRUE(pool.offer(std::move(fresh)));
  ASSERT_TRUE(pool.try_acquire(out));
  EXPECT_EQ(out.generation, gen2);

  // invalidate(): generation moves, spec goes away, pool drains.
  pool.invalidate();
  EXPECT_FALSE(pool.mint_spec().has_value());
  EXPECT_EQ(pool.depth(), 0u);
}

// --- OfflineWorker lifecycle and races ----------------------------------

// A rekey moves the generation and the mint spec together: a producer
// reading the spec mid-rekey must never see the new generation with the
// old key, or it would mint an old-key bundle the pool accepts as current.
TEST(ChallengePoolTest, MintSpecNeverPairsNewGenerationWithOldKey) {
  const KeyPair keys_a = ice::testing::test_keypair_256();
  const KeyPair keys_b = ice::testing::test_keypair_256(0, 1);
  ASSERT_NE(keys_a.pk.n, keys_b.pk.n);
  const ProtocolParams params = small_params();
  ChallengePool pool(OfflineConfig{});
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

TEST(OfflineWorkerTest, FillsPoolAndStops) {
  const KeyPair keys = ice::testing::test_keypair_256();
  const ProtocolParams params = small_params();
  OfflineConfig config;
  config.pool_capacity = 8;
  config.coeff_count = 4;
  ChallengePool pool(config);
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
  ChallengeBundle out;
  while (pool.try_acquire(out)) {
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
    OfflineConfig config;
    config.pool_capacity = 16;
    config.coeff_count = 8;
    ChallengePool pool(config);
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
  OfflineConfig config;
  config.pool_capacity = 8;
  config.coeff_count = 4;
  ChallengePool pool(config);
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
    ChallengeBundle out;
    if (pool.try_acquire(out)) {
      // Whatever we got was minted under the CURRENT generation at the
      // moment of acquisition — the invariant the per-bundle tag enforces.
      EXPECT_LE(out.generation, pool.generation());
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  rekeyer.join();
  worker.stop();
  // Post-quiescence: every surviving bundle carries the final generation.
  const std::uint64_t gen = pool.generation();
  ChallengeBundle out;
  while (pool.try_acquire(out)) {
    EXPECT_EQ(out.generation, gen);
  }
}

// --- Service-level differential suite -----------------------------------

/// One CSP + verifier TPA (+ replica) + one edge (8-block cache) + user
/// over a 16-block file of seed 99, set up, with the offline split
/// configurable at the verifier.
class OfflineDeployment : public sim::Deployment {
 public:
  OfflineDeployment(const OfflineConfig& offline, std::size_t parallelism)
      : sim::Deployment(with_parallelism(parallelism),
                        ice::testing::test_keypair_256(), 16, 1, 8, 99,
                        sim::Transport::kInProcess, offline) {
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
};

OfflineConfig enabled_config(std::size_t capacity = 8,
                             std::size_t coeffs = 16) {
  OfflineConfig config;
  config.enabled = true;
  config.pool_capacity = capacity;
  config.pool_shards = 2;
  config.coeff_count = coeffs;
  return config;
}

/// The tentpole differential: pool-served audits return the same verdicts
/// as the cold path across thread budgets, for honest and corrupted edges
/// alike.
TEST(OfflineServiceTest, OnlineMatchesColdAcrossConfigurations) {
  const std::size_t parallelisms[] = {1, 0};
  for (const auto parallelism : parallelisms) {
    OfflineDeployment online(enabled_config(), parallelism);
    OfflineDeployment cold(OfflineConfig{}, parallelism);
    online.edge(0).pre_download({1, 3, 4, 8});
    cold.edge(0).pre_download({1, 3, 4, 8});
    online.wait_for_pool_depth(1);

    EXPECT_TRUE(online.user().audit_edge(online.user_edge(0), 0));
    EXPECT_TRUE(cold.user().audit_edge(cold.user_edge(0), 0));

    SplitMix64 rng(13);
    mec::corrupt_random_blocks(online.edge(0).cache_for_corruption(), 1,
                               mec::CorruptionKind::kBitFlip, rng);
    SplitMix64 rng2(13);
    mec::corrupt_random_blocks(cold.edge(0).cache_for_corruption(), 1,
                               mec::CorruptionKind::kBitFlip, rng2);
    online.wait_for_pool_depth(1);
    EXPECT_FALSE(online.user().audit_edge(online.user_edge(0), 0));
    EXPECT_FALSE(cold.user().audit_edge(cold.user_edge(0), 0));

    const OfflineStats stats = online.tpa(0).offline_stats();
    EXPECT_GE(stats.hits, 1u) << "pool-served path never exercised";
    EXPECT_EQ(cold.tpa(0).offline_stats().hits +
                  cold.tpa(0).offline_stats().misses,
              0u)
        << "cold service touched the pool";
  }
}

TEST(OfflineServiceTest, PoolExhaustionFallsBackToColdPath) {
  OfflineDeployment d(enabled_config(), 1);
  d.edge(0).pre_download({2, 5, 9});
  // Drain the pool and cut off the refill source: every subsequent audit
  // is a deterministic pool miss served by the cold fallback.
  d.tpa(0).challenge_pool().invalidate();
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(d.user().audit_edge(d.user_edge(0), 0));
  }
  const OfflineStats stats = d.tpa(0).offline_stats();
  EXPECT_GE(stats.misses, 3u);
  EXPECT_EQ(stats.depth, 0u);
}

TEST(OfflineServiceTest, BundleWithTooFewCoefficientsStillVerifies) {
  // coeff_count below |S_j|: the session's precomputed prefix is too short,
  // so verification re-expands online — and must still pass.
  OfflineDeployment d(enabled_config(8, 2), 1);
  d.edge(0).pre_download({0, 1, 2, 3, 6});
  d.wait_for_pool_depth(1);
  EXPECT_TRUE(d.user().audit_edge(d.user_edge(0), 0));
  EXPECT_GE(d.tpa(0).offline_stats().hits, 1u);
}

TEST(OfflineServiceTest, KeyRotationNeverServesStaleBundles) {
  OfflineDeployment d(enabled_config(), 1);
  d.edge(0).pre_download({1, 2, 7});
  d.wait_for_pool_depth(1);
  const std::uint64_t gen_before = d.tpa(0).challenge_pool().generation();

  // Rotate the key: a fresh generator draw under the same modulus (edges
  // keep their modulus for a file's lifetime). setup_file re-tags every
  // block and re-sends set_key, which must invalidate every bundle minted
  // above — their g_s values are powers of the OLD generator.
  const KeyPair rotated = ice::testing::test_keypair_256(1);
  ASSERT_NE(rotated.pk.g, ice::testing::test_keypair_256().pk.g);
  UserClient user2(d.params(), rotated, d.user_tpa(0), d.user_tpa(1));
  std::vector<Bytes> blocks;
  for (std::size_t i = 0; i < d.csp().store().size(); ++i) {
    blocks.push_back(d.csp().store().block(i));
  }
  user2.setup_file(blocks);
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
  d.wait_for_pool_depth(1);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(user2.audit_edge(edge2_channel, 1));
  }
}

TEST(OfflineServiceTest, BatchBeginServedFromPool) {
  OfflineDeployment d(enabled_config(), 1);
  d.edge(0).pre_download({1, 4, 6});
  d.wait_for_pool_depth(1);
  std::vector<net::RpcChannel*> edges{&d.user_edge(0)};
  EXPECT_TRUE(d.user().audit_edges_batch(edges));
  EXPECT_GE(d.tpa(0).offline_stats().hits, 1u);
}

}  // namespace
}  // namespace ice::proto
