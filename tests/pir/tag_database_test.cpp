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
  EXPECT_THROW(db.update(1, bn::BigInt(2)), ParamError);
}

TEST(TagDatabaseTest, PlanesListSetBits) {
  TagDatabase db(8);
  db.add(bn::BigInt(0b00000001));  // index 0: bit 0
  db.add(bn::BigInt(0b00000011));  // index 1: bits 0,1
  db.add(bn::BigInt(0b10000000));  // index 2: bit 7
  const Bitplanes planes = db.build_planes();
  EXPECT_EQ(planes.lists[0], (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(planes.lists[1], (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(planes.lists[7], (std::vector<std::uint32_t>{2}));
  EXPECT_TRUE(planes.lists[5].empty());
}

// An update STAGES into the next epoch: invisible to every read surface
// until close_epoch(), then planes built from the rows reflect it.
TEST(TagDatabaseTest, StagedUpdateInvisibleUntilClose) {
  TagDatabase db(8);
  db.add(bn::BigInt(0b1));
  EXPECT_EQ(db.build_planes().lists[0].size(), 1u);
  db.update(0, bn::BigInt(0b10));
  // Snapshot isolation: the base rows are unchanged.
  EXPECT_EQ(db.tag(0), bn::BigInt(0b1));
  const Bitplanes staged = db.build_planes();
  EXPECT_EQ(staged.lists[0], (std::vector<std::uint32_t>{0}));
  EXPECT_TRUE(staged.lists[1].empty());
  EXPECT_EQ(db.staged_updates(), 1u);

  const EpochMergeStats merged = db.close_epoch();
  EXPECT_TRUE(merged.closed);
  EXPECT_EQ(merged.rows_merged, 1u);
  EXPECT_EQ(db.epoch_stats().epochs_closed, 1u);
  const Bitplanes closed = db.build_planes();
  EXPECT_TRUE(closed.lists[0].empty());
  EXPECT_EQ(closed.lists[1], (std::vector<std::uint32_t>{0}));
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
  const Bitplanes planes = db.build_planes();
  for (std::size_t pi = 0; pi < 192; ++pi) {
    std::vector<std::uint32_t> expect;
    for (std::size_t i = 0; i < n; ++i) {
      if (db.bit(i, pi)) expect.push_back(static_cast<std::uint32_t>(i));
    }
    EXPECT_EQ(planes.lists[pi], expect) << "plane " << pi;
  }
}

TEST(TagDatabaseTest, RowWordsMatchLimbs) {
  TagDatabase db(128);
  const bn::BigInt tag = bn::BigInt::from_hex("0123456789abcdefdeadbeefcafebabe");
  db.add(tag);
  const std::uint64_t* r = db.row(0);
  EXPECT_EQ(r[0], tag.limbs()[0]);
  EXPECT_EQ(r[1], tag.limbs()[1]);
}

TEST(TagDatabaseTest, BuildPlanesRecordsRowCountAndWidth) {
  TagDatabase db(64);
  for (int i = 0; i < 20; ++i) db.add(bn::BigInt(i));
  const Bitplanes planes = db.build_planes();
  EXPECT_EQ(planes.n, 20u);
  EXPECT_EQ(planes.tag_bits, 64u);
  EXPECT_EQ(planes.lists.size(), 64u);
}

// End-to-end epoch semantics through the matrix evaluator, with planes
// built from the rows before each retrieval: a retrieval between update()
// and close_epoch() still decodes the OLD tag (snapshot isolation), and the
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
  const auto matrix_response = [&](const Bitplanes& planes,
                                   const PirQuery& query) {
    PirResponse out;
    out.entries.push_back(server.respond_matrix(planes, query.points.at(0)));
    return out;
  };
  const auto retrieve = [&](std::size_t idx) {
    const Bitplanes planes = db.build_planes();
    std::vector<std::size_t> wanted = {idx};
    const auto enc = client.encode(wanted, rng);
    return client.decode(enc.secrets, matrix_response(planes, enc.queries[0]),
                         matrix_response(planes, enc.queries[1]))[0];
  };

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

// The matrix reference, with planes freshly built from the rows, and the
// naive reference, which reads the rows, agree point for point before
// anything is staged, while rows are staged, and after the close.
TEST(TagDatabaseTest, MatrixMatchesNaiveAcrossEpochs) {
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
    const Bitplanes planes = db.build_planes();
    for (const PirQuery& query : enc.queries) {
      for (const auto& q : query.points) {
        const PirSingleResponse naive = server.respond_naive(q);
        const PirSingleResponse matrix = server.respond_matrix(planes, q);
        EXPECT_EQ(matrix.values, naive.values) << phase;
        EXPECT_EQ(matrix.gradients, naive.gradients) << phase;
      }
    }
  };
  expect_agree("before staging");
  for (std::size_t l = 0; l < wanted.size(); ++l) {
    db.update(wanted[l], bn::random_bits(rng, tag_bits));
  }
  expect_agree("staged");
  ASSERT_TRUE(db.close_epoch().closed);
  expect_agree("closed");
}

// Planes record the shape they were built over; the matrix reference
// refuses planes of another row count (built before an add) or another tag
// width (built from a wider database) instead of indexing past its tables.
TEST(TagDatabaseTest, MatrixRejectsPlanesOfAnotherShape) {
  SplitMix64 gen(0x5a9e);
  bn::Rng64Adapter rng(gen);
  const std::size_t n = 30, tag_bits = 40;
  TagDatabase db(tag_bits);
  TagDatabase wider(tag_bits + 24);
  for (std::size_t i = 0; i < n; ++i) {
    db.add(bn::random_bits(rng, tag_bits));
    wider.add(bn::random_bits(rng, tag_bits + 24));
  }
  const Bitplanes before_add = db.build_planes();
  db.add(bn::random_bits(rng, tag_bits));
  wider.add(bn::random_bits(rng, tag_bits + 24));  // same n, wider K
  const Embedding emb(n + 1);
  const PirServer server(db, emb);
  const gf::GF4Vector q(emb.gamma(), gf::GF4::one());

  EXPECT_THROW((void)server.respond_matrix(before_add, q), ParamError);
  EXPECT_THROW((void)server.respond_matrix(wider.build_planes(), q),
               ParamError);
  const PirSingleResponse fresh = server.respond_matrix(db.build_planes(), q);
  EXPECT_EQ(fresh.values, server.respond_naive(q).values);
}

}  // namespace
}  // namespace ice::pir
