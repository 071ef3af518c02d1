// The TPA tag service end to end through the RPC layer: what a TPA sees of
// a retrieval (one query shape, whichever indexes the user wants), the
// typed stale-epoch rejection (of a moved epoch or another key generation)
// and the client's refresh-and-retry, one upload per key, staged updates
// racing retrievals, hostile 310 points and point counts, and a user that
// refuses a TPA misreporting the file's size.
#include <gtest/gtest.h>

#include <mutex>
#include <thread>

#include "common/error.h"
#include "common/rng.h"
#include "ice/tag.h"
#include "ice/tpa_service.h"
#include "ice/user_client.h"
#include "ice/wire.h"
#include "net/channel.h"
#include "pir/client.h"
#include "pir/embedding.h"
#include "support/ice_fixtures.h"

namespace ice::proto {
namespace {

net::Status status_of(const Bytes& response) {
  net::Reader r(response);
  return static_cast<net::Status>(r.u16());
}

/// Forwards to a TPA and keeps a copy of every 310 request it serves.
class RecordingTpa final : public net::RpcHandler {
 public:
  explicit RecordingTpa(net::RpcHandler& inner) : inner_(&inner) {}

  Bytes handle(std::uint16_t method, BytesView request) override {
    if (method == kTpaShardQuery) {
      std::lock_guard lock(mu_);
      queries_.emplace_back(request.begin(), request.end());
    }
    return inner_->handle(method, request);
  }

  [[nodiscard]] std::vector<Bytes> queries() const {
    std::lock_guard lock(mu_);
    return queries_;
  }

 private:
  net::RpcHandler* inner_;
  mutable std::mutex mu_;
  std::vector<Bytes> queries_;
};

// Two TPA replicas behind InMemoryChannels.
class TagServiceTest : public ::testing::Test {
 protected:
  TagServiceTest()
      : params_(ice::testing::test_params()),
        keys_(ice::testing::test_keypair_256()),
        tagger_(keys_.pk),
        ch0_(tpa0_),
        ch1_(tpa1_) {}

  ProtocolParams params_;
  KeyPair keys_;
  TagGenerator tagger_;
  TpaService tpa0_;
  TpaService tpa1_;
  net::InMemoryChannel ch0_;
  net::InMemoryChannel ch1_;
};

TEST_F(TagServiceTest, StaleEpochSurfacesAsFailedPrecondition) {
  const auto blocks = ice::testing::make_blocks(32, 64, 4);
  UserClient user(params_, keys_, ch0_, ch1_);
  user.setup_file(blocks);

  const TpaClient tpa(ch0_);
  const TagInfo info = tpa.tag_info();
  EXPECT_EQ(info.n, 32u);
  EXPECT_EQ(info.epoch, 0u);

  const pir::Embedding embedding(info.n);
  const pir::PirClient client(embedding, keys_.pk.modulus_bits());
  SplitMix64 gen(0x8);
  bn::Rng64Adapter<SplitMix64> rng(gen);
  auto enc = client.encode(std::vector<std::size_t>{3}, rng);
  const TagQuery stale{info.generation, info.epoch + 3,
                       std::move(enc.queries[0])};
  try {
    (void)tpa.tag_query(stale, client.tag_bits());
    FAIL() << "expected RemoteError";
  } catch (const net::RemoteError& e) {
    EXPECT_EQ(e.status(), net::Status::kFailedPrecondition);
  }
}

// The DESIGN.md §13 property as a test: every 310 request a TPA receives
// has the same byte length and carries |S| points of length gamma(n),
// whether the user asks for the first rows, the last rows or rows spread
// across the file. A layout that sent per-range sub-queries would show
// each TPA where the indexes fall.
TEST_F(TagServiceTest, EveryQueryHasOneShape) {
  constexpr std::size_t kN = 96;
  RecordingTpa seen0(tpa0_);
  RecordingTpa seen1(tpa1_);
  net::InMemoryChannel rec0(seen0);
  net::InMemoryChannel rec1(seen1);
  const auto blocks = ice::testing::make_blocks(kN, 64, 5);
  const auto tags = tagger_.tag_all(blocks);
  UserClient user(params_, keys_, rec0, rec1);
  user.setup_file(blocks);

  const std::vector<std::vector<std::size_t>> sets = {
      {0, 1, 2, 3, 4, 5},         // low end
      {90, 91, 92, 93, 94, 95},   // high end
      {0, 19, 38, 57, 76, 95},    // spread
      {47, 47, 48, 2, 93, 60},    // repeats, any order
  };
  for (const auto& s : sets) {
    const auto got = user.retrieve_tags(s);
    ASSERT_EQ(got.size(), s.size());
    for (std::size_t l = 0; l < s.size(); ++l) EXPECT_EQ(got[l], tags[s[l]]);
  }

  const std::size_t gamma = pir::gamma_for(kN);
  for (const RecordingTpa* seen : {&seen0, &seen1}) {
    const std::vector<Bytes> queries = seen->queries();
    ASSERT_EQ(queries.size(), sets.size());
    for (const Bytes& raw : queries) {
      EXPECT_EQ(raw.size(), queries.front().size());
      net::Reader r(raw);
      const TagQuery q = read_sharded_query(r);
      EXPECT_TRUE(r.done());
      ASSERT_EQ(q.total_points(), 6u);
      for (const auto& point : q.query.points) {
        EXPECT_EQ(point.size(), gamma);
      }
    }
  }
}

// The user's cached epoch goes stale when another client closes an epoch;
// the next retrieval is refused with kFailedPrecondition, refreshes and
// retries once, and decodes the merged tag.
TEST_F(TagServiceTest, UserRefreshesAfterAnotherClientsClose) {
  const auto blocks = ice::testing::make_blocks(24, 64, 6);
  const auto tags = tagger_.tag_all(blocks);
  RecordingTpa seen0(tpa0_);
  net::InMemoryChannel rec0(seen0);
  UserClient user(params_, keys_, rec0, ch1_);
  user.setup_file(blocks);
  UserClient owner(params_, keys_, ch0_, ch1_);
  owner.attach_file(blocks.size());

  EXPECT_EQ(user.retrieve_tags({7})[0], tags[7]);  // caches epoch 0
  const Bytes fresh = ice::testing::make_blocks(1, 64, 7)[0];
  (void)owner.update_block(7, fresh);
  ASSERT_TRUE(owner.close_epochs());

  EXPECT_EQ(user.retrieve_tags({7, 3})[0], tagger_.tag(fresh));
  // One query for the first retrieval, then the refused one and its retry.
  EXPECT_EQ(seen0.queries().size(), 3u);
}

TEST_F(TagServiceTest, ConcurrentUpdatesAndRetrievalsDecodeExactly) {
  // TSan target: kTpaUpdateTag holds the service store lock shared and
  // stages into the delta plane while 310 queries read the base rows
  // through the full dispatch path. The writer only stages and nothing
  // closes an epoch, so every round reads the base rows at both replicas
  // and must decode exactly.
  const auto blocks = ice::testing::make_blocks(48, 64, 8);
  const auto tags = tagger_.tag_all(blocks);
  UserClient user(params_, keys_, ch0_, ch1_);
  user.setup_file(blocks);

  std::thread writer([&] {
    const bn::BigInt fresh = tags[0];
    for (int i = 0; i < 30; ++i) {
      const std::size_t index = 16 + static_cast<std::size_t>(i) % 32;
      TpaClient(ch0_).update_tag(index, fresh);
      TpaClient(ch1_).update_tag(index, fresh);
    }
  });
  // No ASSERT before the join: a fatal assertion returns from the test
  // body and would destroy `writer` while joinable.
  std::exception_ptr failure;
  try {
    for (int round = 0; round < 15; ++round) {
      const auto got = user.retrieve_tags({3, 20, 40});
      EXPECT_TRUE(got.size() == 3 && got[0] == tags[3] &&
                  got[1] == tags[20] && got[2] == tags[40])
          << "round " << round;
    }
  } catch (...) {
    failure = std::current_exception();
  }
  writer.join();
  if (failure) std::rethrow_exception(failure);
  EXPECT_EQ(tpa0_.epoch_stats().db.staged_rows, 30u);
}

// A 310 whose points are not gamma(n) long is refused with
// kInvalidArgument, and the service goes on serving honest retrievals.
TEST_F(TagServiceTest, WrongLengthPointsAnswerInvalidArgument) {
  const auto blocks = ice::testing::make_blocks(40, 64, 9);
  const auto tags = tagger_.tag_all(blocks);
  UserClient user(params_, keys_, ch0_, ch1_);
  user.setup_file(blocks);
  const std::size_t gamma = pir::gamma_for(blocks.size());
  const TagInfo info = TpaClient(ch0_).tag_info();

  for (const std::size_t len : {std::size_t{0}, gamma - 1, gamma + 1}) {
    SCOPED_TRACE(len);
    TagQuery q{info.generation, info.epoch, {}};
    q.query.points.assign(2, gf::GF4Vector(len));
    net::Writer w;
    write_sharded_query(w, q);
    EXPECT_EQ(status_of(tpa0_.handle(kTpaShardQuery, w.take())),
              net::Status::kInvalidArgument);
  }
  const auto got = user.retrieve_tags({0, 39});
  EXPECT_EQ(got[0], tags[0]);
  EXPECT_EQ(got[1], tags[39]);
}

// A 310 carries at most kMaxQueryPoints points: one more is refused as
// malformed before the sweep, the service goes on serving honest
// retrievals, and a query at the cap is answered.
TEST_F(TagServiceTest, QueryPointCapRefusesOneMorePoint) {
  const auto blocks = ice::testing::make_blocks(40, 64, 12);
  const auto tags = tagger_.tag_all(blocks);
  UserClient user(params_, keys_, ch0_, ch1_);
  user.setup_file(blocks);
  const TagInfo info = TpaClient(ch0_).tag_info();
  const pir::Embedding embedding(info.n);
  const pir::PirClient client(embedding, keys_.pk.modulus_bits());
  SplitMix64 gen(0x310);
  bn::Rng64Adapter<SplitMix64> rng(gen);
  std::vector<std::size_t> wanted(kMaxQueryPoints);
  for (std::size_t i = 0; i < wanted.size(); ++i) wanted[i] = i % info.n;
  auto enc = client.encode(wanted, rng);
  TagQuery q{info.generation, info.epoch, std::move(enc.queries[0])};
  const auto status_of_query = [&] {
    net::Writer w;
    write_sharded_query(w, q);
    return status_of(tpa0_.handle(kTpaShardQuery, w.take()));
  };

  q.query.points.push_back(q.query.points.front());
  EXPECT_EQ(status_of_query(), net::Status::kMalformed);
  const auto got = user.retrieve_tags({0, 39});
  EXPECT_EQ(got[0], tags[0]);
  EXPECT_EQ(got[1], tags[39]);
  q.query.points.pop_back();
  EXPECT_EQ(status_of_query(), net::Status::kOk);
}

// A query point longer than kMaxQueryPointLength, the gamma of a 2^24-row
// store, is refused as malformed before it is unpacked; a point at the
// bound passes the codec and meets the TPA's own gamma check.
TEST_F(TagServiceTest, QueryPointLengthCapRefusesOneMoreElement) {
  EXPECT_EQ(kMaxQueryPointLength, pir::gamma_for(std::size_t{1} << 24));
  const auto blocks = ice::testing::make_blocks(40, 64, 13);
  UserClient user(params_, keys_, ch0_, ch1_);
  user.setup_file(blocks);
  const TagInfo info = TpaClient(ch0_).tag_info();
  const auto status_of_point = [&](std::size_t length) {
    TagQuery q{info.generation, info.epoch, {}};
    q.query.points.assign(2, gf::GF4Vector(pir::gamma_for(info.n)));
    q.query.points.back() = gf::GF4Vector(length);
    net::Writer w;
    write_sharded_query(w, q);
    return status_of(tpa0_.handle(kTpaShardQuery, w.take()));
  };
  EXPECT_EQ(status_of_point(kMaxQueryPointLength + 1),
            net::Status::kMalformed);
  EXPECT_EQ(status_of_point(kMaxQueryPointLength),
            net::Status::kInvalidArgument);
  EXPECT_EQ(status_of_point(pir::gamma_for(info.n)), net::Status::kOk);
}

// A TPA takes one upload per key: a store_tags while a store is installed
// is refused and changes nothing, and after set_key the same upload is
// accepted under a new generation. A query planned at the old
// (generation, epoch) pair is then refused, as is one naming a generation
// the TPA never held, and the user's one re-plan decodes the new rows.
TEST_F(TagServiceTest, QueriesAgainstAReplacedStoreOrKeyAreRefused) {
  const auto blocks = ice::testing::make_blocks(16, 64, 3);
  const auto tags = tagger_.tag_all(blocks);
  const auto other = tagger_.tag_all(ice::testing::make_blocks(16, 64, 4));
  UserClient user(params_, keys_, ch0_, ch1_);
  user.setup_file(blocks);
  const TpaClient tpa(ch0_);
  const TagInfo before = tpa.tag_info();
  EXPECT_EQ(user.retrieve_tags({2})[0], tags[2]);  // caches `before`

  const auto upload = [&](TpaService& service) {
    net::Writer w;
    write_bigint_list(w, other);
    return status_of(service.handle(kTpaStoreTags, w.take()));
  };
  EXPECT_EQ(upload(tpa0_), net::Status::kFailedPrecondition);
  EXPECT_EQ(upload(tpa1_), net::Status::kFailedPrecondition);
  const TagInfo kept = tpa.tag_info();
  EXPECT_EQ(kept.n, before.n);
  EXPECT_EQ(kept.generation, before.generation);
  EXPECT_EQ(kept.epoch, before.epoch);
  EXPECT_EQ(user.retrieve_tags({2, 9}),
            (std::vector<bn::BigInt>{tags[2], tags[9]}));

  TpaClient(ch0_).set_key(keys_.pk, params_);
  TpaClient(ch1_).set_key(keys_.pk, params_);
  EXPECT_EQ(upload(tpa0_), net::Status::kOk);
  EXPECT_EQ(upload(tpa1_), net::Status::kOk);
  const TagInfo after = tpa.tag_info();
  EXPECT_GT(after.generation, before.generation);

  const pir::Embedding embedding(before.n);
  const pir::PirClient client(embedding, keys_.pk.modulus_bits());
  SplitMix64 gen(0x7a);
  bn::Rng64Adapter<SplitMix64> rng(gen);
  const auto status_at = [&](std::uint64_t generation, std::uint64_t epoch) {
    auto enc = client.encode(std::vector<std::size_t>{5}, rng);
    net::Writer w;
    write_sharded_query(w, {generation, epoch, std::move(enc.queries[0])});
    return status_of(tpa0_.handle(kTpaShardQuery, w.take()));
  };
  EXPECT_EQ(status_at(before.generation, before.epoch),
            net::Status::kFailedPrecondition);
  EXPECT_EQ(status_at(after.generation + 1, after.epoch),
            net::Status::kFailedPrecondition);
  EXPECT_EQ(status_at(after.generation, after.epoch), net::Status::kOk);
  EXPECT_EQ(user.retrieve_tags({2})[0], other[2]);  // re-plans once
}

/// A TPA whose 309 reply reports a chosen row count, and which counts the
/// 310 queries it is sent.
class MisreportingTpa final : public net::RpcHandler {
 public:
  explicit MisreportingTpa(std::uint64_t n) : n_(n) {}

  Bytes handle(std::uint16_t method, BytesView) override {
    if (method == kTpaTagInfo) {
      net::Writer w;
      write_tag_info(w, {n_, 0, 0});
      return net::encode_ok(std::move(w));
    }
    if (method == kTpaShardQuery) ++queries_;
    return net::encode_error(net::Status::kInternal, "stub");
  }

  [[nodiscard]] int queries() const { return queries_; }

 private:
  std::uint64_t n_;
  int queries_ = 0;
};

// The user sizes its embedding from the file it owns: a reported row count
// that differs, by one or by 2^40, is a typed ProtocolError raised before
// anything is allocated for it or any 310 is sent.
TEST_F(TagServiceTest, MisreportedRowCountIsRejectedBeforeAnyQuery) {
  constexpr std::size_t kN = 12;
  for (const std::uint64_t reported :
       {std::uint64_t{kN + 1}, std::uint64_t{1} << 40}) {
    SCOPED_TRACE(reported);
    MisreportingTpa stub0(reported);
    MisreportingTpa stub1(reported);
    net::InMemoryChannel ch0(stub0);
    net::InMemoryChannel ch1(stub1);
    UserClient user(params_, keys_, ch0, ch1);
    user.attach_file(kN);
    EXPECT_THROW((void)user.retrieve_tags({0, 5}), ProtocolError);
    EXPECT_EQ(stub0.queries(), 0);
    EXPECT_EQ(stub1.queries(), 0);
  }
}

}  // namespace
}  // namespace ice::proto
