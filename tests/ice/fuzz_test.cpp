// Robustness fuzzing of the RPC surface.
//
// Edges are untrusted and TPAs face the open network, so every service must
// survive arbitrary bytes: the contract is "well-formed error response or
// valid response, never a crash, hang, or uncaught exception". We throw
// random garbage and mutated-but-plausible requests at every method of
// every service.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "ice/wire.h"
#include "pir/client.h"
#include "pir/embedding.h"
#include "sim/deployment.h"
#include "support/ice_fixtures.h"

namespace ice::proto {
namespace {

Bytes random_bytes(SplitMix64& rng, std::size_t max_len) {
  Bytes out(rng.below(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

net::Status status_of(const Bytes& response) {
  net::Reader r(response);
  return static_cast<net::Status>(r.u16());
}

/// Response must parse as ok or error envelope; content errors are fine.
void expect_wellformed(const Bytes& response) {
  ASSERT_GE(response.size(), net::kStatusEnvelopeBytes);
  net::Reader r(response);
  const std::uint16_t code = r.u16();
  ASSERT_LE(code, static_cast<std::uint16_t>(net::Status::kInternal))
      << "unknown status code";
  if (code != 0) {
    EXPECT_NO_THROW((void)r.str());  // reason must decode
    EXPECT_TRUE(r.done());
  }
}

// 100 and 312 are retired ids, kept beside the never-used 9999.
constexpr std::uint16_t kAllMethods[] = {
    100,             kCspFetch,          kCspWriteBack,   kCspSetKey,
    kCspChallenge,   kEdgeRead,          kEdgeWrite,      kEdgeIndexQuery,
    kEdgeShareBlind, kEdgeChallenge,     kEdgeBatchChallenge,
    kEdgeFlush,      kEdgeSubsetProof,   kTpaSetKey,      kTpaStoreTags,
    kTpaStartAudit,  kTpaSubmitRepacked, kTpaBatchBegin,  kTpaSubmitProof,
    kTpaBatchFinish, kTpaUpdateTag,      kTpaTagInfo,     kTpaShardQuery,
    312,             kTpaCloseEpoch,     9999};

/// TPA methods whose accepted request changes what an honest round reads:
/// the key (300), the tag table (301 after a 300, or 308 merged by a 313).
bool changes_tpa_state(std::uint16_t method) {
  return method == kTpaSetKey || method == kTpaStoreTags ||
         method == kTpaUpdateTag;
}

/// One edge (8-block cache, blocks 1-3 cached) over a 16-block file of
/// seed 8, set up; `blocks_` keeps the file as it was uploaded.
class FuzzWorld : public sim::Deployment {
 public:
  FuzzWorld()
      : sim::Deployment(ice::testing::test_params(64),
                        ice::testing::test_keypair_256(), 16, 1, 8, 8) {
    setup();
    for (std::size_t i = 0; i < 16; ++i) {
      blocks_.push_back(csp().store().block(i));
    }
    edge(0).pre_download({1, 2, 3});
  }

  std::vector<Bytes> blocks_;
};

TEST(FuzzTest, RandomGarbageNeverCrashesAnyService) {
  FuzzWorld w;
  SplitMix64 rng(0xf022);
  net::RpcHandler* services[] = {&w.csp(), &w.edge(0), &w.tpa(0)};
  for (auto* service : services) {
    for (std::uint16_t method : kAllMethods) {
      for (int trial = 0; trial < 25; ++trial) {
        const Bytes junk = random_bytes(rng, 80);
        Bytes response;
        ASSERT_NO_THROW(response = service->handle(method, junk))
            << "method " << method;
        expect_wellformed(response);
      }
    }
  }
}

TEST(FuzzTest, MutatedValidRequestsNeverCrash) {
  // Capture a valid request of each flavor by replaying the encoders, then
  // mutate one byte at a time.
  FuzzWorld w;
  SplitMix64 rng(0xf044);
  struct Probe {
    net::RpcHandler* service;
    std::uint16_t method;
    Bytes valid;
  };
  std::vector<Probe> probes;
  {
    net::Writer fetch;
    fetch.varint(3);
    probes.push_back({&w.csp(), kCspFetch, fetch.take()});
  }
  {
    net::Writer read;
    read.varint(2);
    probes.push_back({&w.edge(0), kEdgeRead, read.take()});
  }
  {
    net::Writer blind;
    blind.u64(77);
    blind.bigint(bn::BigInt(12345));
    probes.push_back({&w.edge(0), kEdgeShareBlind, blind.take()});
  }
  {
    net::Writer audit;
    audit.varint(0);
    audit.u64(1234);
    probes.push_back({&w.tpa(0), kTpaStartAudit, audit.take()});
  }
  {
    // A real tag query (310, the only one), planned against the TPA's own
    // row count, key generation and epoch.
    const TagInfo info = TpaClient(w.user_tpa(0)).tag_info();
    const pir::Embedding embedding(info.n);
    const pir::PirClient client(embedding, w.keys().pk.modulus_bits());
    SplitMix64 gen(0xf055);
    bn::Rng64Adapter<SplitMix64> plan_rng(gen);
    auto enc = client.encode(std::vector<std::size_t>{1, 2, 3}, plan_rng);
    net::Writer query;
    write_sharded_query(
        query, {info.generation, info.epoch, std::move(enc.queries[0])});
    probes.push_back({&w.tpa(0), kTpaShardQuery, query.take()});
  }
  for (auto& probe : probes) {
    for (int trial = 0; trial < 200; ++trial) {
      Bytes mutated = probe.valid;
      if (mutated.empty()) continue;
      const std::size_t pos = rng.below(mutated.size());
      mutated[pos] = static_cast<std::uint8_t>(rng());
      // Occasionally truncate or extend.
      if (rng.below(4) == 0) mutated.resize(rng.below(mutated.size() + 1));
      if (rng.below(4) == 0) mutated.push_back(static_cast<std::uint8_t>(rng()));
      Bytes response;
      ASSERT_NO_THROW(response = probe.service->handle(probe.method, mutated))
          << "method " << probe.method;
      expect_wellformed(response);
    }
  }
}

TEST(FuzzTest, ServicesStillFunctionalAfterFuzzing) {
  // 36 and 108 are seeds whose 40-byte payloads to kEdgeWrite parse as
  // writes of a short block; those must be refused like any other size
  // mismatch.
  for (const std::uint64_t seed : {std::uint64_t{0xf066}, std::uint64_t{36},
                                   std::uint64_t{108}}) {
    SCOPED_TRACE(seed);
    FuzzWorld w;
    SplitMix64 rng(seed);
    std::size_t landed = 0;
    std::size_t edge_writes = 0;
    for (std::uint16_t method : kAllMethods) {
      for (int trial = 0; trial < 10; ++trial) {
        (void)w.csp().handle(method, random_bytes(rng, 40));
        const Bytes edge_reply =
            w.edge(0).handle(method, random_bytes(rng, 40));
        if (method == kEdgeWrite && status_of(edge_reply) == net::Status::kOk) {
          ++edge_writes;
        }
        const Bytes reply = w.tpa(0).handle(method, random_bytes(rng, 40));
        if (changes_tpa_state(method) &&
            status_of(reply) == net::Status::kOk) {
          ++landed;
        }
      }
    }
    // 40 random bytes cannot carry a whole 64-byte block.
    EXPECT_EQ(edge_writes, 0u);
    // Random bytes that parse as a real request are served as one: an
    // update_tag plus a close_epoch replaces a tag, a set_key drops the
    // store. That is correct behaviour, so when one landed the honest round
    // re-uploads the file first; every other fuzz effect must leave the
    // round passing as it is.
    if (landed > 0) (void)w.user().setup_file(w.blocks_);
    // A full honest round still succeeds.
    EXPECT_TRUE(w.user().audit_edge(w.user_edge(0), 0))
        << landed << " fuzzed TPA state changes were accepted";
  }
}

// A write must replace a whole block: a short one is refused whether the
// block is cached or would be fetched, and the edge keeps its blocks, its
// cached set and its (empty) dirty set.
TEST(FuzzTest, WrongSizeEdgeWriteLeavesEdgeUnchanged) {
  FuzzWorld w;
  for (const std::size_t index : {std::size_t{2}, std::size_t{9}}) {
    SCOPED_TRACE(index);
    net::Writer r;
    r.varint(index);
    r.bytes(Bytes(40, 0xee));
    EXPECT_EQ(status_of(w.edge(0).handle(kEdgeWrite, r.take())),
              net::Status::kInvalidArgument);
    EXPECT_EQ(EdgeClient(w.user_edge(0)).index_query(),
              (std::vector<std::size_t>{1, 2, 3}));
    EXPECT_EQ(EdgeClient(w.user_edge(0)).flush(), 0u);
    EXPECT_EQ(EdgeClient(w.user_edge(0)).read(2), w.blocks_[2]);
  }
}

// The CSP checks a whole write-back batch before it applies any entry.
TEST(FuzzTest, WriteBackWithBadLastEntryAppliesNothing) {
  FuzzWorld w;
  net::Writer r;
  r.varint(3);
  r.varint(0);
  r.bytes(Bytes(64, 0xaa));
  r.varint(1);
  r.bytes(Bytes(64, 0xbb));
  r.varint(2);
  r.bytes(Bytes(40, 0xcc));  // short
  EXPECT_EQ(status_of(w.csp().handle(kCspWriteBack, r.take())),
            net::Status::kInvalidArgument);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(w.csp().store().block(i), w.blocks_[i]) << "block " << i;
  }
}

// 302 was the monolithic tag query, 311 split a range shard and 312
// appended a row; all three are retired, and a TPA answers them like any
// id it never registered, with its row count and epoch untouched, even
// for a valid append body. The CSP answers its retired 100 the same way.
TEST(FuzzTest, RetiredTagQueryMethodIsUnknown) {
  FuzzWorld w;
  const TagInfo before = TpaClient(w.user_tpa(0)).tag_info();
  const bn::BigInt tag = TagGenerator(w.keys().pk).tag(w.blocks_[5]);
  for (const std::uint16_t method :
       {std::uint16_t{302}, std::uint16_t{311}, std::uint16_t{312}}) {
    SCOPED_TRACE(method);
    net::Writer body;
    body.varint(0);
    EXPECT_EQ(status_of(w.tpa(0).handle(method, body.take())),
              net::Status::kUnknownMethod);
    EXPECT_EQ(status_of(w.tpa(0).handle(method, {})),
              net::Status::kUnknownMethod);
    net::Writer append;  // 312's old request: one tag
    append.bigint(tag);
    EXPECT_EQ(status_of(w.tpa(0).handle(method, append.take())),
              net::Status::kUnknownMethod);
    const TagInfo after = TpaClient(w.user_tpa(0)).tag_info();
    EXPECT_EQ(after.n, before.n);
    EXPECT_EQ(after.epoch, before.epoch);
  }
  EXPECT_EQ(status_of(w.csp().handle(100, {})), net::Status::kUnknownMethod);
  EXPECT_TRUE(w.user().audit_edge(w.user_edge(0), 0));
}

// Every state-changing handler rejects trailing bytes BEFORE it acts: a
// valid request plus one extra byte answers kMalformed, and a follow-up
// call sees the service exactly as it was.
TEST(FuzzTest, TrailingByteRejectedBeforeAnyStateChange) {
  struct Case {
    const char* name;
    net::RpcHandler& (*service)(FuzzWorld&);
    std::uint16_t method;
    Bytes (*request)(FuzzWorld&);
    void (*unchanged)(FuzzWorld&);
  };
  const auto tpa = [](FuzzWorld& w) -> net::RpcHandler& { return w.tpa(0); };
  const auto edge = [](FuzzWorld& w) -> net::RpcHandler& { return w.edge(0); };
  const auto csp = [](FuzzWorld& w) -> net::RpcHandler& { return w.csp(); };
  const auto set_key = [](FuzzWorld& w) {
    net::Writer r;
    r.bigint(w.keys().pk.n);
    r.bigint(w.keys().pk.g);
    r.varint(w.params().coeff_bits);
    r.varint(w.params().challenge_key_bits);
    return r.take();
  };
  // The TPA's set_key also declares the block size (the rung width).
  const auto tpa_set_key = [](FuzzWorld& w) {
    net::Writer r;
    r.bigint(w.keys().pk.n);
    r.bigint(w.keys().pk.g);
    r.varint(w.params().coeff_bits);
    r.varint(w.params().challenge_key_bits);
    r.varint(w.params().block_bytes);
    return r.take();
  };
  const Case cases[] = {
      {"tpa set_key", tpa, kTpaSetKey, tpa_set_key,
       [](FuzzWorld& w) { EXPECT_TRUE(w.tpa(0).has_tags()); }},
      {"tpa store_tags", tpa, kTpaStoreTags,
       [](FuzzWorld&) {
         net::Writer r;
         write_bigint_list(r, {bn::BigInt(1), bn::BigInt(2)});
         return r.take();
       },
       [](FuzzWorld& w) {
         EXPECT_EQ(TpaClient(w.user_tpa(0)).tag_info().n, 16u);
       }},
      {"tpa batch_begin", tpa, kTpaBatchBegin,
       [](FuzzWorld&) {
         net::Writer r;
         r.u64(4242);
         r.varint(1);
         return r.take();
       },
       [](FuzzWorld& w) {
         EXPECT_NO_THROW((void)TpaClient(w.user_tpa(0)).batch_begin(4242, 1));
       }},
      // 313 takes no arguments; the one byte is the retired force flag.
      // One staged row shows whether a close ran.
      {"tpa close_epoch", tpa, kTpaCloseEpoch,
       [](FuzzWorld& w) {
         (void)TpaClient(w.user_tpa(0))
             .update_tag(4, TagGenerator(w.keys().pk).tag(w.blocks_[5]));
         return Bytes{};
       },
       [](FuzzWorld& w) {
         const pir::EpochStats stats = w.tpa(0).epoch_stats().db;
         EXPECT_EQ(stats.staged_rows, 1u);
         EXPECT_EQ(stats.rows_merged, 0u);
         EXPECT_EQ(stats.epochs_closed, 0u);
       }},
      {"edge write", edge, kEdgeWrite,
       [](FuzzWorld&) {
         net::Writer r;
         r.varint(2);
         r.bytes(Bytes(64, 0xee));
         return r.take();
       },
       [](FuzzWorld& w) {
         EXPECT_EQ(EdgeClient(w.user_edge(0)).read(2), w.blocks_[2]);
       }},
      {"edge share_blind", edge, kEdgeShareBlind,
       [](FuzzWorld&) {
         net::Writer r;
         r.u64(777);
         r.bigint(bn::BigInt(12345));
         return r.take();
       },
       [](FuzzWorld& w) {
         EXPECT_NO_THROW(
             EdgeClient(w.user_edge(0)).share_blinding(777, bn::BigInt(12345)));
       }},
      {"csp set_key", csp, kCspSetKey, set_key,
       [](FuzzWorld& w) {
         // The key never landed, so a sampled challenge still finds none.
         net::Writer r;
         r.bigint(bn::BigInt(3));
         r.bigint(bn::BigInt(4));
         write_index_list(r, {0});
         EXPECT_EQ(status_of(w.csp().handle(kCspChallenge, r.take())),
                   net::Status::kFailedPrecondition);
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    FuzzWorld w;
    Bytes request = c.request(w);
    request.push_back(0x00);
    const Bytes reply = c.service(w).handle(c.method, request);
    ASSERT_EQ(status_of(reply), net::Status::kMalformed);
    net::Reader r(reply);
    (void)r.u16();
    EXPECT_NE(r.str().find("trailing bytes"), std::string::npos);
    c.unchanged(w);
  }
}

// The read-only handlers whose work is expensive (a PIR sweep over all n
// rows, a proof) check for trailing bytes right after decoding: a request
// that would fail later for another reason answers kMalformed instead.
TEST(FuzzTest, TrailingByteRejectedBeforeExpensiveWork) {
  FuzzWorld w;
  struct Case {
    const char* name;
    net::RpcHandler& service;
    std::uint16_t method;
    Bytes request;
  };
  net::Writer stale;  // 310 planned against an epoch the TPA never had
  {
    const TagInfo info = TpaClient(w.user_tpa(0)).tag_info();
    const pir::Embedding embedding(info.n);
    const pir::PirClient client(embedding, w.keys().pk.modulus_bits());
    SplitMix64 gen(0xf0a1);
    bn::Rng64Adapter<SplitMix64> plan_rng(gen);
    auto enc = client.encode(std::vector<std::size_t>{1, 2}, plan_rng);
    write_sharded_query(
        stale, {info.generation, info.epoch + 1, std::move(enc.queries[0])});
  }
  net::Writer uncached;  // 207 naming block 9, which the edge does not hold
  uncached.bigint(bn::BigInt(5));
  uncached.bigint(bn::BigInt(3));
  write_index_list(uncached, {9});
  net::Writer keyless;  // 104 to a CSP that has no key
  keyless.bigint(bn::BigInt(5));
  keyless.bigint(bn::BigInt(3));
  write_index_list(keyless, {0});
  Case cases[] = {
      {"tpa tag_query", w.tpa(0), kTpaShardQuery, stale.take()},
      {"edge subset_proof", w.edge(0), kEdgeSubsetProof, uncached.take()},
      {"csp challenge", w.csp(), kCspChallenge, keyless.take()},
  };
  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    c.request.push_back(0x00);
    const Bytes reply = c.service.handle(c.method, c.request);
    ASSERT_EQ(status_of(reply), net::Status::kMalformed);
    net::Reader r(reply);
    (void)r.u16();
    EXPECT_NE(r.str().find("trailing bytes"), std::string::npos);
  }
}

TEST(FuzzTest, LadderRungCapIsTheShippedCount) {
  // 204 takes a ladder of kLadderRungs rungs (g_s and kLadderRungs - 1
  // values) and refuses one rung more as malformed, before the one-shot
  // blinding is taken.
  FuzzWorld w;
  const RungBases rungs(w.keys().pk, w.params());
  SplitMix64 gen(0xf0cc);
  bn::Rng64Adapter rng(gen);
  ChallengeSecret secret;
  const Challenge chal =
      make_challenge(w.keys().pk, w.params(), rng, secret, &rungs);
  ASSERT_EQ(chal.ladder.count(), kLadderRungs);
  EdgeClient(w.user_edge(0)).share_blinding(5, bn::BigInt(7));
  const auto request = [&](const bn::Ladder& ladder) {
    net::Writer req;
    req.u64(5);
    req.bigint(chal.e);
    req.bigint(chal.g_s);
    write_ladder(req, ladder);
    return req.take();
  };
  bn::Ladder over = chal.ladder;
  over.rungs.push_back(chal.ladder.rungs.back());
  EXPECT_EQ(status_of(w.edge(0).handle(kEdgeChallenge, request(over))),
            net::Status::kMalformed);
  EXPECT_EQ(status_of(w.edge(0).handle(kEdgeChallenge, request(chal.ladder))),
            net::Status::kOk);
}

TEST(FuzzTest, HostileRepackedTagsRejectedNotCrashing) {
  // A malicious user submits garbage repacked tags: the audit must simply
  // fail (or error), never crash the TPA.
  FuzzWorld w;
  SplitMix64 gen(0xf088);
  const TpaClient tpa(w.user_tpa(0));
  EdgeClient(w.user_edge(0)).share_blinding(424242, bn::BigInt(7));
  tpa.start_audit(0, 424242);
  std::vector<bn::BigInt> garbage;
  for (int i = 0; i < 3; ++i) {
    garbage.push_back(bn::BigInt(static_cast<std::int64_t>(gen())));
  }
  const std::uint64_t generation = tpa.tag_info().generation;
  EXPECT_FALSE(tpa.submit_repacked(424242, generation, garbage));
}

TEST(FuzzTest, ZeroAndHugeTagValuesHandled) {
  FuzzWorld w;
  const TpaClient tpa(w.user_tpa(0));
  EdgeClient(w.user_edge(0)).share_blinding(31337, bn::BigInt(7));
  tpa.start_audit(0, 31337);
  // Tag congruent to 0 mod N and a tag far larger than N.
  const std::vector<bn::BigInt> weird = {
      bn::BigInt(0), w.keys().pk.n * w.keys().pk.n, bn::BigInt(1)};
  EXPECT_FALSE(tpa.submit_repacked(31337, tpa.tag_info().generation, weird));
}

}  // namespace
}  // namespace ice::proto
