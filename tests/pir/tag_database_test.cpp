// Tests for the TPA tag database and its bitplane (matrix) representation.
#include "pir/tag_database.h"

#include <gtest/gtest.h>

#include "bignum/random.h"
#include "common/error.h"
#include "common/rng.h"
#include "pir/client.h"
#include "pir/server.h"

namespace ice::pir {
namespace {

TEST(TagDatabaseTest, RejectsZeroWidth) {
  EXPECT_THROW(TagDatabase(0), ParamError);
}

TEST(TagDatabaseTest, AddAndReadBack) {
  TagDatabase db(64);
  EXPECT_EQ(db.add(bn::BigInt(0x1234)), 0u);
  EXPECT_EQ(db.add(bn::BigInt(0)), 1u);
  EXPECT_EQ(db.size(), 2u);
  EXPECT_EQ(db.tag(0), bn::BigInt(0x1234));
  EXPECT_EQ(db.tag(1), bn::BigInt(0));
}

TEST(TagDatabaseTest, RejectsOversizedTag) {
  TagDatabase db(8);
  EXPECT_THROW(db.add(bn::BigInt(256)), ParamError);
  EXPECT_NO_THROW(db.add(bn::BigInt(255)));
  EXPECT_THROW(db.add(bn::BigInt(-1)), ParamError);
}

TEST(TagDatabaseTest, BitsMatchInteger) {
  TagDatabase db(80);
  const bn::BigInt tag = bn::BigInt::from_hex("a5a5deadbeef12345678");
  db.add(tag);
  for (std::size_t pi = 0; pi < 80; ++pi) {
    EXPECT_EQ(db.bit(0, pi), tag.bit(pi)) << "bit " << pi;
  }
}

TEST(TagDatabaseTest, OutOfRangeAccessThrows) {
  TagDatabase db(16);
  db.add(bn::BigInt(1));
  EXPECT_THROW((void)db.bit(1, 0), ParamError);
  EXPECT_THROW((void)db.bit(0, 16), ParamError);
  EXPECT_THROW((void)db.tag(2), ParamError);
  EXPECT_THROW((void)db.plane(16), ParamError);
  EXPECT_THROW(db.update(1, bn::BigInt(2)), ParamError);
}

TEST(TagDatabaseTest, PlanesListSetBits) {
  TagDatabase db(8);
  db.add(bn::BigInt(0b00000001));  // index 0: bit 0
  db.add(bn::BigInt(0b00000011));  // index 1: bits 0,1
  db.add(bn::BigInt(0b10000000));  // index 2: bit 7
  EXPECT_EQ(db.plane(0).materialize(), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(db.plane(1).materialize(), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(db.plane(7).materialize(), (std::vector<std::uint32_t>{2}));
  EXPECT_TRUE(db.plane(5).empty());
}

// An update STAGES into the next epoch: invisible to every read surface
// until close_epoch(), then the planes reflect it without a full rebuild.
TEST(TagDatabaseTest, StagedUpdateInvisibleUntilClose) {
  TagDatabase db(8);
  db.add(bn::BigInt(0b1));
  EXPECT_EQ(db.plane(0).size(), 1u);
  db.update(0, bn::BigInt(0b10));
  // Snapshot isolation: the epoch-t read surface is unchanged.
  EXPECT_EQ(db.tag(0), bn::BigInt(0b1));
  EXPECT_EQ(db.plane(0).materialize(), (std::vector<std::uint32_t>{0}));
  EXPECT_TRUE(db.plane(1).empty());
  EXPECT_EQ(db.staged_updates(), 1u);

  const EpochMergeStats merged = db.close_epoch();
  EXPECT_TRUE(merged.closed);
  EXPECT_EQ(merged.epoch, 1u);
  EXPECT_EQ(merged.rows_merged, 1u);
  EXPECT_TRUE(db.plane(0).empty());
  EXPECT_EQ(db.plane(1).materialize(), (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(db.tag(0), bn::BigInt(0b10));
  EXPECT_EQ(db.staged_updates(), 0u);
}

TEST(TagDatabaseTest, RestagingAnIndexOverwritesItsPendingRow) {
  TagDatabase db(8);
  db.add(bn::BigInt(1));
  db.add(bn::BigInt(2));
  db.update(0, bn::BigInt(7));
  db.update(0, bn::BigInt(9));  // restage: overwrites, no second slot
  db.update(1, bn::BigInt(5));
  EXPECT_EQ(db.staged_updates(), 2u);

  const EpochMergeStats merged = db.close_epoch();
  EXPECT_EQ(merged.rows_merged, 2u);  // distinct rows, not update calls
  EXPECT_EQ(db.tag(0), bn::BigInt(9));
  EXPECT_EQ(db.tag(1), bn::BigInt(5));
}

TEST(TagDatabaseTest, EmptyCloseIsANoOp) {
  TagDatabase db(8);
  db.add(bn::BigInt(1));
  const EpochMergeStats merged = db.close_epoch();
  EXPECT_FALSE(merged.closed);
  EXPECT_EQ(merged.rows_merged, 0u);
  EXPECT_EQ(db.epoch(), 0u);
  EXPECT_EQ(db.epoch_stats().epochs_closed, 0u);
}

TEST(TagDatabaseTest, PlanesConsistentWithBitsRandomized) {
  SplitMix64 gen(2024);
  bn::Rng64Adapter rng(gen);
  TagDatabase db(192);
  const std::size_t n = 50;
  for (std::size_t i = 0; i < n; ++i) {
    db.add(bn::random_bits(rng, 1 + gen.below(192)));
  }
  for (std::size_t pi = 0; pi < 192; ++pi) {
    std::vector<std::uint32_t> expect;
    for (std::size_t i = 0; i < n; ++i) {
      if (db.bit(i, pi)) expect.push_back(static_cast<std::uint32_t>(i));
    }
    EXPECT_EQ(db.plane(pi).materialize(), expect) << "plane " << pi;
  }
}

// The PlaneView overlay (warm planes + merged epochs, no rebuild) must be
// bit-identical to a cold full build of the same final state.
TEST(TagDatabaseTest, PlaneOverlayMatchesFreshBuildRandomized) {
  SplitMix64 gen(0xeb0c);
  bn::Rng64Adapter rng(gen);
  const std::size_t n = 60, tag_bits = 96;
  TagDatabase db(tag_bits);
  for (std::size_t i = 0; i < n; ++i) db.add(bn::random_bits(rng, tag_bits));
  (void)db.build_planes();  // warm cache before the update epochs

  for (int round = 0; round < 3; ++round) {
    for (int u = 0; u < 8; ++u) {
      db.update(gen.below(n), bn::random_bits(rng, tag_bits));
    }
    const EpochMergeStats merged = db.close_epoch();
    EXPECT_TRUE(merged.closed);
    EXPECT_FALSE(merged.planes_rebuilt);  // far below threshold max(64, n/8)

    TagDatabase fresh(tag_bits);
    for (std::size_t i = 0; i < n; ++i) fresh.add(db.tag(i));
    for (std::size_t pi = 0; pi < tag_bits; ++pi) {
      EXPECT_EQ(db.plane(pi).materialize(), fresh.plane(pi).materialize())
          << "round " << round << " plane " << pi;
      EXPECT_EQ(db.plane(pi).size(), fresh.plane(pi).size());
    }
  }
  EXPECT_EQ(db.epoch(), 3u);
  EXPECT_EQ(db.epoch_stats().rebuilds_avoided, 3u);
}

// Once the overlay outgrows max(64, n/8) dirty rows, a close pays one full
// rebuild and the overlay resets.
TEST(TagDatabaseTest, ThresholdTriggersFullPlaneRebuild) {
  SplitMix64 gen(0x7ead);
  bn::Rng64Adapter rng(gen);
  const std::size_t n = 80, tag_bits = 32;  // threshold = max(64, 10) = 64
  TagDatabase db(tag_bits);
  for (std::size_t i = 0; i < n; ++i) db.add(bn::random_bits(rng, tag_bits));
  (void)db.build_planes();

  for (std::size_t i = 0; i < 65; ++i) {  // 65 distinct rows > 64
    db.update(i, bn::random_bits(rng, tag_bits));
  }
  const EpochMergeStats merged = db.close_epoch();
  EXPECT_TRUE(merged.planes_rebuilt);
  EXPECT_EQ(db.epoch_stats().plane_rebuilds, 1u);
  EXPECT_EQ(db.epoch_stats().dirty_rows, 0u);  // overlay cleared
  for (std::size_t pi = 0; pi < tag_bits; ++pi) {
    std::vector<std::uint32_t> expect;
    for (std::size_t i = 0; i < n; ++i) {
      if (db.bit(i, pi)) expect.push_back(static_cast<std::uint32_t>(i));
    }
    EXPECT_EQ(db.plane(pi).materialize(), expect) << "plane " << pi;
  }
}

// add() keeps a warm plane cache warm: the new tail index is appended to
// exactly the planes whose bit is set, without touching the overlay.
TEST(TagDatabaseTest, AddExtendsWarmPlanesInPlace) {
  TagDatabase db(8);
  db.add(bn::BigInt(0b1));
  (void)db.build_planes();
  db.add(bn::BigInt(0b101));
  EXPECT_EQ(db.plane(0).materialize(), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(db.plane(2).materialize(), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(db.epoch_stats().dirty_rows, 0u);
}

TEST(TagDatabaseTest, RowWordsMatchLimbs) {
  TagDatabase db(128);
  const bn::BigInt tag = bn::BigInt::from_hex("0123456789abcdefdeadbeefcafebabe");
  db.add(tag);
  const std::uint64_t* r = db.row(0);
  EXPECT_EQ(r[0], tag.limbs()[0]);
  EXPECT_EQ(r[1], tag.limbs()[1]);
}

TEST(TagDatabaseTest, BuildPlanesReturnsTime) {
  TagDatabase db(64);
  for (int i = 0; i < 20; ++i) db.add(bn::BigInt(i));
  EXPECT_GE(db.build_planes(), 0.0);
}

// End-to-end epoch semantics through the matrix evaluator (respond_matrix,
// which reads the plane overlay): a retrieval between update() and
// close_epoch() still decodes the OLD tag (snapshot isolation), and the
// retrieval after the close sees the replacement.
TEST(TagDatabaseTest, UpdateVisibleThroughMatrixStrategyRetrieval) {
  SplitMix64 gen(0xa11d);
  bn::Rng64Adapter rng(gen);
  const std::size_t n = 40, tag_bits = 72;
  TagDatabase db(tag_bits);
  for (std::size_t i = 0; i < n; ++i) db.add(bn::random_bits(rng, tag_bits));
  const Embedding emb(n);
  const PirServer server(db, emb);
  const PirClient client(emb, tag_bits);

  const std::size_t target = 23;
  const auto matrix_response = [&](const PirQuery& query) {
    PirResponse out;
    out.entries.push_back(server.respond_matrix(query.points.at(0)));
    return out;
  };
  const auto retrieve = [&](std::size_t idx) {
    std::vector<std::size_t> wanted = {idx};
    const auto enc = client.encode(wanted, rng);
    return client.decode(enc.secrets, matrix_response(enc.queries[0]),
                         matrix_response(enc.queries[1]))[0];
  };

  // Force the lazy plane build with a pre-update retrieval.
  EXPECT_EQ(retrieve(target), db.tag(target));

  const bn::BigInt before = db.tag(target);
  const bn::BigInt replacement = bn::random_bits(rng, tag_bits);
  db.update(target, replacement);
  EXPECT_EQ(retrieve(target), before);  // staged: the snapshot still rules
  ASSERT_TRUE(db.close_epoch().closed);
  EXPECT_EQ(retrieve(target), replacement);
  // Neighbours are untouched.
  EXPECT_EQ(retrieve(target - 1), db.tag(target - 1));
}

// The matrix reference reads the plane overlay after a close; the naive
// reference reads the rows. Both must agree point for point before the
// update, while it is staged, and after the close has merged it into the
// overlay (and after a later close that reaches the full-rebuild
// threshold).
TEST(TagDatabaseTest, MatrixMatchesNaiveAcrossPlaneOverlay) {
  SplitMix64 gen(0x0e1a);
  bn::Rng64Adapter rng(gen);
  const std::size_t n = 120, tag_bits = 80;
  TagDatabase db(tag_bits);
  for (std::size_t i = 0; i < n; ++i) db.add(bn::random_bits(rng, tag_bits));
  const Embedding emb(n);
  const PirServer server(db, emb);
  const PirClient client(emb, tag_bits);
  std::vector<std::size_t> wanted;
  for (std::size_t l = 0; l < 6; ++l) wanted.push_back(gen.below(n));
  const auto enc = client.encode(wanted, rng);

  const auto expect_agree = [&](const char* phase) {
    for (const PirQuery& query : enc.queries) {
      for (const auto& q : query.points) {
        const PirSingleResponse naive = server.respond_naive(q);
        const PirSingleResponse matrix = server.respond_matrix(q);
        EXPECT_EQ(matrix.values, naive.values) << phase;
        EXPECT_EQ(matrix.gradients, naive.gradients) << phase;
      }
    }
  };
  expect_agree("warm planes");  // builds the planes
  for (std::size_t l = 0; l < wanted.size(); ++l) {
    db.update(wanted[l], bn::random_bits(rng, tag_bits));
  }
  expect_agree("staged");
  const EpochMergeStats merged = db.close_epoch();
  ASSERT_TRUE(merged.closed);
  ASSERT_FALSE(merged.planes_rebuilt);
  ASSERT_GT(db.epoch_stats().dirty_rows, 0u);
  expect_agree("overlay");
  for (std::size_t i = 0; i < n; ++i) {
    db.update(i, bn::random_bits(rng, tag_bits));
  }
  ASSERT_TRUE(db.close_epoch().planes_rebuilt);
  expect_agree("rebuilt");
}

}  // namespace
}  // namespace ice::pir
