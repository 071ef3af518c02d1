// The challenge's power ladder (DESIGN.md §6, §8): the shipped 32-rung
// ladder changes no proof bit, draws nothing from the RNG, keeps every
// soundness failure a failure, makes a tampered rung fail an honest edge,
// and reaches the edge and the user only through typed-error checks.
// The holder's lazy build races first challenges, the refill worker and
// key swaps (TSan target).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "bignum/ladder.h"
#include "common/error.h"
#include "common/rng.h"
#include "crypto/csprng.h"
#include "ice/batch.h"
#include "ice/offline.h"
#include "ice/protocol.h"
#include "ice/tag.h"
#include "ice/wire.h"
#include "mec/corruption.h"
#include "net/channel.h"
#include "sim/deployment.h"
#include "support/ice_fixtures.h"

namespace ice::proto {
namespace {

/// True when every rung of `ladder` is g_s^{2^{i·width}} mod N.
bool rungs_are_squares(const PublicKey& pk, const bn::BigInt& g_s,
                       const bn::Ladder& ladder) {
  const bn::Montgomery mont(pk.n);
  for (std::size_t i = 1; i < ladder.count(); ++i) {
    if (ladder.rungs[i - 1] !=
        mont.pow(g_s, bn::BigInt(1) << (i * ladder.width))) {
      return false;
    }
  }
  return true;
}

class LadderProtocolTest : public ::testing::Test {
 protected:
  // 8 KB blocks: from about this size up, every proof exponent reaches
  // the top of 32 rungs, basic and batch alike (at smaller blocks the limb
  // rounding of L leaves the top rungs with zero chunks, which no proof
  // reads).
  LadderProtocolTest()
      : params_(ice::testing::test_params(8192)),
        keys_(ice::testing::test_keypair_256()),
        rungs_(keys_.pk, params_),
        tagger_(keys_.pk) {}

  /// One transport-free ICE-basic round with the shipped ladder; `tamper`
  /// edits the challenge the edge sees (the TPA verifies the original).
  template <typename Tamper>
  bool run_round(const std::vector<Bytes>& edge_blocks,
                 const std::vector<bn::BigInt>& tags, Tamper&& tamper) {
    ChallengeSecret secret;
    const Challenge chal =
        make_challenge(keys_.pk, params_, rng_, secret, &rungs_);
    Challenge seen = chal;
    tamper(seen);
    const bn::BigInt s_tilde = draw_blinding(keys_.pk, rng_);
    const Proof proof =
        make_proof(keys_.pk, params_, edge_blocks, seen, s_tilde);
    const auto repacked = repack_tags(keys_.pk, tags, s_tilde);
    return verify_proof(keys_.pk, params_, repacked, chal, secret, proof);
  }
  bool run_round(const std::vector<Bytes>& edge_blocks,
                 const std::vector<bn::BigInt>& tags) {
    return run_round(edge_blocks, tags, [](Challenge&) {});
  }

  ProtocolParams params_;
  KeyPair keys_;
  RungBases rungs_;
  TagGenerator tagger_;
  SplitMix64 gen_{0x1adde};
  bn::Rng64Adapter<SplitMix64> rng_{gen_};
};

TEST_F(LadderProtocolTest, RungWidthCoversTheLongestProof) {
  const std::size_t e_max = 8 * params_.block_bytes + params_.coeff_bits +
                            64 + keys_.pk.modulus_bits();
  const std::size_t width = rung_width(keys_.pk, params_);
  EXPECT_EQ(width % 64, 0u);
  EXPECT_GE(kLadderRungs * width, e_max);
  EXPECT_LT(kLadderRungs * (width - 64), e_max);
  EXPECT_EQ(rungs_.width(), width);
  // The paper's 64 KB blocks at |N| = 1024: 525,440 bits in 32 rungs.
  ProtocolParams paper;
  paper.block_bytes = 64 * 1024;
  EXPECT_EQ(rung_width(ice::testing::test_keypair_1024().pk, paper), 16448u);
}

TEST_F(LadderProtocolTest, ChallengeCarriesSquaresOfGs) {
  EXPECT_EQ(rungs_.builds(), 0u);  // nothing built before a challenge
  ChallengeSecret secret;
  const Challenge chal =
      make_challenge(keys_.pk, params_, rng_, secret, &rungs_);
  EXPECT_EQ(rungs_.builds(), 1u);
  EXPECT_EQ(chal.ladder.count(), kLadderRungs);
  EXPECT_EQ(chal.ladder.width, rungs_.width());
  EXPECT_TRUE(rungs_are_squares(keys_.pk, chal.g_s, chal.ladder));
  EXPECT_NO_THROW(validate_ladder(keys_.pk, params_, chal.ladder));
  (void)make_challenge(keys_.pk, params_, rng_, secret, &rungs_);
  EXPECT_EQ(rungs_.builds(), 1u);
}

TEST_F(LadderProtocolTest, MakeChallengeDrawsInTheSameOrder) {
  SplitMix64 gen_a(77), gen_b(77);
  bn::Rng64Adapter rng_a(gen_a), rng_b(gen_b);
  ChallengeSecret secret_a, secret_b;
  const Challenge plain = make_challenge(keys_.pk, params_, rng_a, secret_a);
  const Challenge laddered =
      make_challenge(keys_.pk, params_, rng_b, secret_b, &rungs_);
  EXPECT_EQ(plain.e, laddered.e);
  EXPECT_EQ(plain.g_s, laddered.g_s);
  EXPECT_EQ(secret_a.s, secret_b.s);
  EXPECT_TRUE(plain.ladder.rungs.empty());
  EXPECT_EQ(gen_a(), gen_b());  // the next draw lines up too
}

// make_proof with the shipped ladder equals its c = 1 result bit for bit,
// blinded (ICE-basic) and at blinding 1 (ICE-batch), at every thread count,
// and with blocks longer than the key declared (the excess rides in the
// last chunk).
TEST_F(LadderProtocolTest, ProofsEqualTheirUnladderedResults) {
  ChallengeSecret secret;
  const Challenge chal =
      make_challenge(keys_.pk, params_, rng_, secret, &rungs_);
  Challenge plain = chal;
  plain.ladder = {};
  const bn::BigInt s_tilde = draw_blinding(keys_.pk, rng_);
  for (const std::size_t bytes :
       {params_.block_bytes, 3 * params_.block_bytes}) {
    const auto blocks = ice::testing::make_blocks(5, bytes, 21);
    ProtocolParams p = params_;
    p.parallelism = 1;
    const Proof reference = make_proof(keys_.pk, p, blocks, plain, s_tilde);
    const Proof batch_reference =
        make_proof(keys_.pk, p, blocks, plain, bn::BigInt(1));
    for (const std::size_t t : {1u, 2u, 7u, 0u}) {
      p.parallelism = t;
      EXPECT_EQ(make_proof(keys_.pk, p, blocks, chal, s_tilde).p,
                reference.p)
          << bytes << " B blocks, threads " << t;
      EXPECT_EQ(make_proof(keys_.pk, p, blocks, chal, bn::BigInt(1)).p,
                batch_reference.p)
          << bytes << " B blocks, threads " << t;
    }
  }
}

TEST_F(LadderProtocolTest, ValidateLadderRejectsHostileLadders) {
  ChallengeSecret secret;
  const Challenge chal =
      make_challenge(keys_.pk, params_, rng_, secret, &rungs_);
  ProtocolParams widest = params_;
  widest.block_bytes = kMaxBlockBytes;
  const std::size_t max_width = rung_width(keys_.pk, widest);
  const auto rejects = [&](bn::Ladder ladder, const char* why) {
    EXPECT_THROW(validate_ladder(keys_.pk, params_, ladder), ParamError)
        << why;
  };
  bn::Ladder l = chal.ladder;
  l.rungs.push_back(bn::BigInt(2));
  rejects(l, "33 rungs");
  for (const std::size_t width :
       {std::size_t{0}, std::size_t{65}, max_width + 64}) {
    l = chal.ladder;
    l.width = width;
    rejects(l, "bad width");
  }
  for (const bn::BigInt& bad :
       {bn::BigInt(0), bn::BigInt(-3), keys_.pk.n, keys_.pk.n + 1}) {
    l = chal.ladder;
    l.rungs[7] = bad;
    rejects(l, "rung out of range");
  }
  rejects(bn::Ladder{64, {}}, "width without rungs");
  EXPECT_NO_THROW(validate_ladder(keys_.pk, params_, bn::Ladder{}));
  l = chal.ladder;
  l.width = max_width;  // the widest width a 1 MiB key can ask for
  EXPECT_NO_THROW(validate_ladder(keys_.pk, params_, l));
}

// Every negative outcome of the paper's protocol stays negative at c = 32.
TEST_F(LadderProtocolTest, SoundnessHoldsAtTheShippedRungCount) {
  const auto blocks = ice::testing::make_blocks(4, params_.block_bytes, 31);
  const auto tags = tagger_.tag_all(blocks);
  EXPECT_TRUE(run_round(blocks, tags));

  auto corrupted = blocks;
  mec::corrupt_block(corrupted[2], mec::CorruptionKind::kBitFlip, gen_);
  EXPECT_FALSE(run_round(corrupted, tags)) << "corrupted";

  auto stale_tags = tags;
  stale_tags[1] =
      tagger_.tag(ice::testing::make_blocks(1, params_.block_bytes, 32)[0]);
  EXPECT_FALSE(run_round(blocks, stale_tags)) << "stale";

  auto swapped = blocks;
  std::swap(swapped[0], swapped[3]);
  EXPECT_FALSE(run_round(swapped, tags)) << "swapped";

  ChallengeSecret secret;
  const Challenge chal =
      make_challenge(keys_.pk, params_, rng_, secret, &rungs_);
  const bn::BigInt s_tilde = draw_blinding(keys_.pk, rng_);
  const auto repacked = repack_tags(keys_.pk, tags, s_tilde);
  for (const bn::BigInt& forged :
       {bn::BigInt(1), chal.g_s, chal.ladder.rungs[3]}) {
    EXPECT_FALSE(verify_proof(keys_.pk, params_, repacked, chal, secret,
                              Proof{forged}))
        << "forged";
  }
}

TEST_F(LadderProtocolTest, AnyReplacedRungFailsAnHonestEdge) {
  const auto blocks = ice::testing::make_blocks(3, params_.block_bytes, 41);
  const auto tags = tagger_.tag_all(blocks);
  ASSERT_GT(8 * params_.block_bytes, (kLadderRungs - 1) * rungs_.width());
  for (std::size_t i = 0; i + 1 < kLadderRungs; ++i) {
    EXPECT_FALSE(run_round(blocks, tags, [&](Challenge& c) {
      c.ladder.rungs[i] = bn::Montgomery(keys_.pk.n).mul(c.ladder.rungs[i],
                                                         keys_.pk.g);
    })) << "ICE-basic, rung " << i + 1;
  }

  // ICE-batch: one edge's proof over a base whose rung i was replaced.
  const std::vector<std::vector<std::size_t>> sets = {{0, 1}, {1, 2}};
  ChallengeSecret secret;
  const Challenge base =
      make_challenge(keys_.pk, params_, rng_, secret, &rungs_);
  const auto keys = draw_challenge_keys(params_, sets.size(), rng_);
  const auto u = union_of_sets(sets);
  std::vector<bn::BigInt> union_tags;
  for (std::size_t k : u) union_tags.push_back(tags[k]);
  const auto repacked =
      batch_repack(keys_.pk, params_, u, union_tags, sets, keys);
  const auto proofs_with = [&](const bn::Ladder& edge1_ladder) {
    std::vector<Proof> proofs;
    for (std::size_t j = 0; j < sets.size(); ++j) {
      std::vector<Bytes> mine;
      for (std::size_t k : sets[j]) mine.push_back(blocks[k]);
      const Challenge edge_chal{keys[j], base.g_s,
                                j == 1 ? edge1_ladder : base.ladder};
      proofs.push_back(
          make_proof(keys_.pk, params_, mine, edge_chal, bn::BigInt(1)));
    }
    return proofs;
  };
  EXPECT_TRUE(verify_batch(keys_.pk, repacked, proofs_with(base.ladder),
                           secret));
  for (std::size_t i = 0; i + 1 < kLadderRungs; ++i) {
    bn::Ladder tampered = base.ladder;
    tampered.rungs[i] = bn::BigInt(4);
    EXPECT_FALSE(
        verify_batch(keys_.pk, repacked, proofs_with(tampered), secret))
        << "ICE-batch, rung " << i + 1;
  }
}

// --- The holder's lazy build under races (TSan) --------------------------

TEST(RungBasesTest, RacingFirstChallengesBuildOnce) {
  const KeyPair keys = ice::testing::test_keypair_256();
  ProtocolParams params = ice::testing::test_params(512);
  params.parallelism = 2;
  const RungBases rungs(keys.pk, params);
  constexpr int kThreads = 6;
  std::vector<Challenge> chals(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SplitMix64 gen(100 + static_cast<std::uint64_t>(t));
      bn::Rng64Adapter rng(gen);
      ChallengeSecret secret;
      chals[t] = make_challenge(keys.pk, params, rng, secret, &rungs);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(rungs.builds(), 1u);
  for (const Challenge& c : chals) {
    EXPECT_TRUE(rungs_are_squares(keys.pk, c.g_s, c.ladder));
  }
}

// The refill worker, inline mints and key swaps share one holder per
// key: each holder builds once, and every pooled or inline challenge pairs
// its g_s with its own key's rungs.
TEST(RungBasesTest, WorkerColdPathAndRekeysBuildOncePerKey) {
  const KeyPair key_a = ice::testing::test_keypair_256();
  const KeyPair key_b = ice::testing::test_keypair_512();
  const ProtocolParams params_a = ice::testing::test_params(256);
  const ProtocolParams params_b = ice::testing::test_params(512);
  ChallengePool pool;
  crypto::SharedCsprng rng = crypto::SharedCsprng::deterministic(5);
  OfflineWorker worker(pool, rng);

  constexpr int kRounds = 12;
  std::vector<std::shared_ptr<const RungBases>> holders;
  for (int i = 0; i < kRounds; ++i) {
    holders.push_back(std::make_shared<const RungBases>(
        i % 2 == 0 ? key_a.pk : key_b.pk, i % 2 == 0 ? params_a : params_b));
  }
  const auto consistent = [&](const Challenge& c) {
    const bool is_a = c.g_s < key_a.pk.n &&
                      c.ladder.width == rung_width(key_a.pk, params_a);
    return rungs_are_squares(is_a ? key_a.pk : key_b.pk, c.g_s, c.ladder);
  };
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::thread consumer([&] {
    while (!stop.load()) {
      ChallengeBundle bundle;
      if (pool.try_acquire(pool.generation(), bundle) &&
          !consistent(bundle.challenge)) {
        ++bad;
      }
      worker.kick();
    }
  });
  for (int i = 0; i < kRounds; ++i) {
    const KeyPair& k = i % 2 == 0 ? key_a : key_b;
    const ProtocolParams& p = i % 2 == 0 ? params_a : params_b;
    pool.rekey(k.pk, p, holders[i]);
    worker.kick();
    std::vector<std::thread> cold;
    for (int t = 0; t < 3; ++t) {
      cold.emplace_back([&, t] {
        ChallengeSecret secret;
        const Challenge c =
            make_challenge(k.pk, p, rng, secret, holders[i].get());
        if (!consistent(c)) ++bad;
      });
    }
    for (auto& th : cold) th.join();
  }
  stop.store(true);
  consumer.join();
  worker.stop();
  EXPECT_EQ(bad.load(), 0);
  for (int i = 0; i < kRounds; ++i) {
    EXPECT_EQ(holders[i]->builds(), 1u) << "key " << i;
  }
}

// --- The wire: 204, 205, the 305 reply and set_key -----------------------

/// One edge (8-block cache, blocks 1-3 cached) over a 16-block file of
/// 64-byte blocks, set up.
class LadderWorld : public sim::Deployment {
 public:
  LadderWorld()
      : sim::Deployment(ice::testing::test_params(64),
                        ice::testing::test_keypair_256(), 16, 1, 8, 8) {
    setup();
    edge(0).pre_download({1, 2, 3});
  }
};

net::Status status_of(const Bytes& response) {
  net::Reader r(response);
  return static_cast<net::Status>(r.u16());
}

/// The ways a received ladder can be hostile, each with the status the
/// edge answers it with.
struct HostileLadder {
  const char* name;
  net::Status status;
  void (*write)(net::Writer&, const bn::Ladder& honest, const PublicKey&);
};

const HostileLadder kHostileLadders[] = {
    {"rung count above the cap", net::Status::kMalformed,
     [](net::Writer& w, const bn::Ladder& h, const PublicKey&) {
       w.varint(h.width);
       w.varint(kLadderRungs);
       for (std::size_t i = 0; i < kLadderRungs; ++i) w.bigint(h.rungs[0]);
     }},
    {"huge rung count", net::Status::kMalformed,
     [](net::Writer& w, const bn::Ladder& h, const PublicKey&) {
       w.varint(h.width);
       w.varint(std::uint64_t{1} << 40);
     }},
    {"zero width", net::Status::kInvalidArgument,
     [](net::Writer& w, const bn::Ladder& h, const PublicKey&) {
       write_ladder(w, bn::Ladder{0, h.rungs});
     }},
    {"width not a multiple of 64", net::Status::kInvalidArgument,
     [](net::Writer& w, const bn::Ladder& h, const PublicKey&) {
       write_ladder(w, bn::Ladder{h.width + 1, h.rungs});
     }},
    {"width past the 1 MiB cap", net::Status::kInvalidArgument,
     [](net::Writer& w, const bn::Ladder& h, const PublicKey&) {
       write_ladder(w, bn::Ladder{std::size_t{1} << 40, h.rungs});
     }},
    {"rung zero", net::Status::kInvalidArgument,
     [](net::Writer& w, const bn::Ladder& h, const PublicKey&) {
       bn::Ladder l = h;
       l.rungs[4] = bn::BigInt(0);
       write_ladder(w, l);
     }},
    {"rung equal to N", net::Status::kInvalidArgument,
     [](net::Writer& w, const bn::Ladder& h, const PublicKey& pk) {
       bn::Ladder l = h;
       l.rungs[9] = pk.n;
       write_ladder(w, l);
     }},
    {"truncated ladder", net::Status::kMalformed,
     [](net::Writer& w, const bn::Ladder& h, const PublicKey&) {
       w.varint(h.width);
       w.varint(h.rungs.size());
       for (std::size_t i = 0; i + 1 < h.rungs.size(); ++i) {
         w.bigint(h.rungs[i]);
       }
     }},
};

TEST(LadderWireTest, EdgeRefusesHostileLaddersWithTypedErrors) {
  LadderWorld w;
  const RungBases rungs(w.keys().pk, w.params());
  SplitMix64 gen(0x204);
  bn::Rng64Adapter rng(gen);
  ChallengeSecret secret;
  const Challenge chal =
      make_challenge(w.keys().pk, w.params(), rng, secret, &rungs);
  ASSERT_EQ(chal.ladder.count(), kLadderRungs);
  EdgeClient(w.user_edge(0)).share_blinding(9, bn::BigInt(7));
  for (const HostileLadder& h : kHostileLadders) {
    SCOPED_TRACE(h.name);
    net::Writer basic;
    basic.u64(9);
    basic.bigint(chal.e);
    basic.bigint(chal.g_s);
    h.write(basic, chal.ladder, w.keys().pk);
    EXPECT_EQ(status_of(w.edge(0).handle(kEdgeChallenge, basic.take())),
              h.status);
    net::Writer batch;
    batch.u64(10);
    batch.bigint(chal.e);
    batch.bigint(chal.g_s);
    h.write(batch, chal.ladder, w.keys().pk);
    EXPECT_EQ(
        status_of(w.edge(0).handle(kEdgeBatchChallenge, batch.take())),
        h.status);
  }
  // No hostile ladder used up the session's one-shot blinding, and the
  // shipped kLadderRungs-rung ladder is taken.
  EXPECT_NO_THROW((void)EdgeClient(w.tpa_edge(0)).challenge(9, chal));
}

/// Forwards every call to the verifier TPA, except that the 305 reply's
/// ladder is rewritten by `rewrite` (a hostile or faulty TPA).
class RewritingTpa final : public net::RpcHandler {
 public:
  using Rewrite = void (*)(net::Writer&, const bn::Ladder&, const PublicKey&);
  RewritingTpa(net::RpcHandler& inner, PublicKey pk, Rewrite rewrite)
      : inner_(&inner), pk_(std::move(pk)), rewrite_(rewrite) {}

  Bytes handle(std::uint16_t method, BytesView request) override {
    Bytes reply = inner_->handle(method, request);
    if (method != kTpaBatchBegin || status_of(reply) != net::Status::kOk) {
      return reply;
    }
    net::Reader r(reply);
    (void)r.u16();
    const bn::BigInt g_s = r.bigint();
    const bn::Ladder ladder = read_ladder(r);
    net::Writer w;
    w.u16(static_cast<std::uint16_t>(net::Status::kOk));
    w.bigint(g_s);
    rewrite_(w, ladder, pk_);
    return w.take();
  }

 private:
  net::RpcHandler* inner_;
  PublicKey pk_;
  Rewrite rewrite_;
};

TEST(LadderWireTest, UserRefusesHostileBatchLaddersWithTypedErrors) {
  LadderWorld w;
  for (const HostileLadder& h : kHostileLadders) {
    SCOPED_TRACE(h.name);
    RewritingTpa hostile(w.tpa(0), w.keys().pk, h.write);
    net::InMemoryChannel to_hostile(hostile);
    UserClient user(w.params(), w.keys(), to_hostile, w.user_tpa(1));
    user.attach_file(16);
    if (h.status == net::Status::kMalformed) {
      EXPECT_THROW((void)user.audit_edges_batch(w.user_edges()), CodecError);
    } else {
      EXPECT_THROW((void)user.audit_edges_batch(w.user_edges()), ParamError);
    }
  }
  // A well-formed but wrong rung passes every check and fails the round.
  RewritingTpa wrong_rung(
      w.tpa(0), w.keys().pk,
      [](net::Writer& out, const bn::Ladder& h, const PublicKey&) {
        bn::Ladder l = h;
        l.rungs[2] = bn::BigInt(4);
        write_ladder(out, l);
      });
  net::InMemoryChannel to_wrong(wrong_rung);
  UserClient user(w.params(), w.keys(), to_wrong, w.user_tpa(1));
  user.attach_file(16);
  EXPECT_FALSE(user.audit_edges_batch(w.user_edges()));
  EXPECT_TRUE(w.user().audit_edges_batch(w.user_edges()));
}

// The block size and the coefficient width set the length of the rung
// chain, and the challenge key width the draw of every e, so set_key
// refuses values no honest file declares.
TEST(LadderWireTest, SetKeyRefusesChainLengthsOutsideTheCaps) {
  LadderWorld w;
  const auto set_key = [&](std::uint64_t coeff_bits,
                           std::uint64_t block_bytes,
                           std::uint64_t key_bits) {
    net::Writer r;
    r.bigint(w.keys().pk.n);
    r.bigint(w.keys().pk.g);
    r.varint(coeff_bits);
    r.varint(key_bits);
    r.varint(block_bytes);
    return status_of(w.tpa(0).handle(kTpaSetKey, r.take()));
  };
  const std::uint64_t key_bits = w.params().challenge_key_bits;
  for (const std::uint64_t block_bytes :
       {std::uint64_t{0}, std::uint64_t{kMaxBlockBytes} + 1,
        std::uint64_t{1} << 62}) {
    SCOPED_TRACE(block_bytes);
    EXPECT_EQ(set_key(w.params().coeff_bits, block_bytes, key_bits),
              net::Status::kInvalidArgument);
    EXPECT_TRUE(w.tpa(0).has_tags());  // the key and its tags stayed
  }
  for (const std::uint64_t coeff_bits :
       {std::uint64_t{0}, std::uint64_t{257}, std::uint64_t{1} << 40}) {
    SCOPED_TRACE(coeff_bits);
    EXPECT_EQ(set_key(coeff_bits, w.params().block_bytes, key_bits),
              net::Status::kInvalidArgument);
    EXPECT_TRUE(w.tpa(0).has_tags());
  }
  // kappa = 0 would spin the next challenge forever (e = 0 is redrawn) and
  // 2^40 would allocate a 2^40-bit bound: stop at the first one served.
  for (const std::uint64_t bad_key_bits :
       {std::uint64_t{0}, std::uint64_t{kMaxChallengeKeyBits} + 1,
        std::uint64_t{1} << 40}) {
    SCOPED_TRACE(bad_key_bits);
    ASSERT_EQ(set_key(w.params().coeff_bits, w.params().block_bytes,
                      bad_key_bits),
              net::Status::kInvalidArgument);
    ASSERT_TRUE(w.tpa(0).has_tags());
  }
  EXPECT_TRUE(w.user().audit_edge(w.user_edge(0), 0));
  EXPECT_TRUE(w.user().audit_edges_batch(w.user_edges()));
}

// set_key racing first challenges and the refill worker at the service:
// every 305 reply pairs its g_s with the rungs of one key.
TEST(LadderWireTest, SetKeyRacingChallengesNeverMixesKeys) {
  LadderWorld w;
  const KeyPair other = ice::testing::test_keypair_512();
  ProtocolParams other_params = ice::testing::test_params(512);
  other_params.modulus_bits = 512;
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::atomic<int> served{0};
  std::vector<std::thread> challengers;
  for (int t = 0; t < 3; ++t) {
    challengers.emplace_back([&, t] {
      const TpaClient tpa(w.user_tpa(0));
      for (std::uint64_t id = 1; !stop.load(); ++id) {
        try {
          const Challenge base =
              tpa.batch_begin((static_cast<std::uint64_t>(t) << 32) | id, 1);
          const bool is_own =
              base.ladder.width == rung_width(w.keys().pk, w.params());
          const PublicKey& pk = is_own ? w.keys().pk : other.pk;
          if (!rungs_are_squares(pk, base.g_s, base.ladder)) ++bad;
          ++served;
        } catch (const net::RemoteError&) {
          // A batch table full of this test's open batches; set_key
          // clears it.
        }
      }
    });
  }
  for (int i = 0; i < 16; ++i) {
    const TpaClient tpa(w.user_tpa(0));
    if (i % 2 == 0) {
      tpa.set_key(other.pk, other_params);
    } else {
      tpa.set_key(w.keys().pk, w.params());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& th : challengers) th.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(served.load(), 0);
}

}  // namespace
}  // namespace ice::proto
