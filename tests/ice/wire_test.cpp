// Direct tests for the ICE wire codecs and response envelopes.
#include "ice/wire.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace ice::proto {
namespace {

gf::GF4Vector random_vec(SplitMix64& rng, std::size_t len) {
  gf::GF4Vector v(len);
  for (auto& e : v) e = gf::GF4(static_cast<std::uint8_t>(rng.below(4)));
  return v;
}

TEST(WireTest, OkEnvelopeRoundTrip) {
  net::Writer payload;
  payload.varint(42);
  const Bytes resp = net::encode_ok(std::move(payload));
  EXPECT_EQ(resp.size(), net::kStatusEnvelopeBytes + 1);
  net::Reader r = unwrap(resp);
  EXPECT_EQ(r.varint(), 42u);
  EXPECT_TRUE(r.done());
}

TEST(WireTest, OkEmptyHasNoPayload) {
  const Bytes resp = net::encode_ok_empty();
  EXPECT_EQ(resp.size(), net::kStatusEnvelopeBytes);
  net::Reader r = unwrap(resp);
  EXPECT_TRUE(r.done());
}

TEST(WireTest, ErrorEnvelopeThrowsWithStatusAndReason) {
  const Bytes resp =
      net::encode_error(net::Status::kNotFound, "edge exploded");
  try {
    (void)unwrap(resp);
    FAIL() << "expected RemoteError";
  } catch (const net::RemoteError& e) {
    EXPECT_EQ(e.status(), net::Status::kNotFound);
    EXPECT_NE(std::string(e.what()).find("edge exploded"),
              std::string::npos);
  }
}

TEST(WireTest, RemoteErrorIsAProtocolError) {
  // Pre-envelope catch sites handle remote rejections as ProtocolError;
  // the typed RemoteError must keep satisfying them.
  const Bytes resp =
      net::encode_error(net::Status::kFailedPrecondition, "nope");
  EXPECT_THROW((void)unwrap(resp), ProtocolError);
}

TEST(WireTest, UnknownStatusCodeRejected) {
  net::Writer w;
  w.u16(999);  // far beyond the last defined Status
  const Bytes bogus = w.take();
  EXPECT_THROW((void)unwrap(bogus), CodecError);
}

TEST(WireTest, TruncatedEnvelopeRejected) {
  const Bytes one_byte = {0};
  EXPECT_THROW((void)unwrap(one_byte), CodecError);
  const Bytes empty;
  EXPECT_THROW((void)unwrap(empty), CodecError);
}

TEST(WireTest, GF4VectorRoundTrip) {
  SplitMix64 rng(21);
  for (std::size_t len : {0u, 1u, 4u, 13u, 257u}) {
    net::Writer w;
    write_gf4_vector(w, random_vec(rng, len));
    const Bytes buf = w.take();
    net::Reader r(buf);
    net::Writer w2;
    write_gf4_vector(w2, read_gf4_vector(r));
    EXPECT_EQ(w2.take(), buf) << "len=" << len;
    EXPECT_TRUE(r.done());
  }
}

TEST(WireTest, PirQueryRoundTrip) {
  SplitMix64 rng(22);
  pir::PirQuery q;
  for (int i = 0; i < 5; ++i) q.points.push_back(random_vec(rng, 11));
  net::Writer w;
  write_pir_query(w, q);
  const Bytes buf = w.take();
  net::Reader r(buf);
  const pir::PirQuery back = read_pir_query(r);
  EXPECT_EQ(back.points, q.points);
  EXPECT_TRUE(r.done());
}

TEST(WireTest, PirResponseRoundTrip) {
  SplitMix64 rng(23);
  pir::PirResponse resp;
  for (int e = 0; e < 3; ++e) {
    pir::PirSingleResponse entry;
    entry.values = random_vec(rng, 64);
    for (int g = 0; g < 64; ++g) {
      entry.gradients.push_back(random_vec(rng, 9));
    }
    resp.entries.push_back(std::move(entry));
  }
  net::Writer w;
  write_pir_response(w, resp);
  const Bytes buf = w.take();
  net::Reader r(buf);
  const pir::PirResponse back = read_pir_response(r);
  ASSERT_EQ(back.entries.size(), 3u);
  for (std::size_t e = 0; e < 3; ++e) {
    EXPECT_EQ(back.entries[e].values, resp.entries[e].values);
    EXPECT_EQ(back.entries[e].gradients, resp.entries[e].gradients);
  }
}

TEST(WireTest, PirResponseBytesMatchFlatScalarEncoding) {
  // K = 13 is not a multiple of 4, so gradient rows share packed bytes.
  // The frame must be byte-identical to the encoding that copied the
  // gradients into one flat vector and packed it an element at a time.
  SplitMix64 rng(29);
  pir::PirResponse resp;
  for (int e = 0; e < 2; ++e) {
    pir::PirSingleResponse entry;
    entry.values = random_vec(rng, 13);
    for (int g = 0; g < 7; ++g) entry.gradients.push_back(random_vec(rng, 13));
    resp.entries.push_back(std::move(entry));
  }
  const auto scalar_pack = [](const gf::GF4Vector& v) {
    Bytes out((v.size() + 3) / 4, 0);
    for (std::size_t i = 0; i < v.size(); ++i) {
      out[i / 4] |= static_cast<std::uint8_t>(v[i].value() << (2 * (i % 4)));
    }
    return out;
  };
  net::Writer expected;
  expected.varint(resp.entries.size());
  for (const auto& e : resp.entries) {
    expected.varint(e.values.size());
    expected.bytes(scalar_pack(e.values));
    expected.varint(13);
    gf::GF4Vector flat;
    for (const auto& g : e.gradients) {
      flat.insert(flat.end(), g.begin(), g.end());
    }
    expected.varint(flat.size());
    expected.bytes(scalar_pack(flat));
  }
  net::Writer w;
  write_pir_response(w, resp);
  const Bytes buf = w.take();
  EXPECT_EQ(buf, expected.take());
  net::Reader r(buf);
  const pir::PirResponse back = read_pir_response(r);
  ASSERT_EQ(back.entries.size(), resp.entries.size());
  for (std::size_t e = 0; e < back.entries.size(); ++e) {
    EXPECT_EQ(back.entries[e].values, resp.entries[e].values);
    EXPECT_EQ(back.entries[e].gradients, resp.entries[e].gradients);
  }
  EXPECT_TRUE(r.done());
}

TEST(WireTest, PirResponseRaggedGradientsRejectedOnWrite) {
  pir::PirResponse resp;
  pir::PirSingleResponse entry;
  entry.values.assign(2, gf::GF4());
  entry.gradients.push_back(gf::GF4Vector(3));
  entry.gradients.push_back(gf::GF4Vector(4));  // ragged
  resp.entries.push_back(std::move(entry));
  net::Writer w;
  EXPECT_THROW(write_pir_response(w, resp), CodecError);
}

TEST(WireTest, BigintListRoundTrip) {
  const std::vector<bn::BigInt> list = {
      bn::BigInt(0), bn::BigInt(-17),
      bn::BigInt::from_hex("deadbeefcafebabe0123456789abcdef")};
  net::Writer w;
  write_bigint_list(w, list);
  const Bytes buf = w.take();
  net::Reader r(buf);
  EXPECT_EQ(read_bigint_list(r), list);
  EXPECT_TRUE(r.done());
}

TEST(WireTest, IndexListRoundTrip) {
  const std::vector<std::size_t> list = {0, 1, 1000000, 42};
  net::Writer w;
  write_index_list(w, list);
  const Bytes buf = w.take();
  net::Reader r(buf);
  EXPECT_EQ(read_index_list(r), list);
}

TEST(WireTest, ShardMapRoundTrip) {
  // Including an empty shard: the wire form must carry it (the receiver's
  // routing skips it, but shard ids must stay aligned across peers).
  const pir::ShardMap map = pir::ShardMap::from_sizes({5, 0, 9, 1}, 77);
  net::Writer w;
  write_shard_map(w, map);
  const Bytes buf = w.take();
  net::Reader r(buf);
  const pir::ShardMap back = read_shard_map(r);
  EXPECT_EQ(back, map);
  EXPECT_EQ(back.epoch(), 77u);
  EXPECT_TRUE(r.done());
}

TEST(WireTest, ShardedQueryRoundTrip) {
  SplitMix64 rng(31);
  pir::ShardedPirQuery q;
  q.epoch = 12;
  for (std::uint32_t s : {0u, 3u, 7u}) {
    pir::ShardQuery sq;
    sq.shard = s;
    for (int i = 0; i < 2; ++i) sq.query.points.push_back(random_vec(rng, 7));
    q.shards.push_back(std::move(sq));
  }
  net::Writer w;
  write_sharded_query(w, q);
  const Bytes buf = w.take();
  net::Reader r(buf);
  const pir::ShardedPirQuery back = read_sharded_query(r);
  EXPECT_EQ(back.epoch, 12u);
  ASSERT_EQ(back.shards.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(back.shards[i].shard, q.shards[i].shard);
    EXPECT_EQ(back.shards[i].query.points, q.shards[i].query.points);
  }
  EXPECT_TRUE(r.done());
}

TEST(WireTest, ShardedResponseRoundTrip) {
  SplitMix64 rng(32);
  pir::ShardedPirResponse resp;
  for (std::uint32_t s : {1u, 4u}) {
    pir::ShardResponse sr;
    sr.shard = s;
    pir::PirSingleResponse entry;
    entry.values = random_vec(rng, 8);
    for (int g = 0; g < 8; ++g) entry.gradients.push_back(random_vec(rng, 5));
    sr.response.entries.push_back(std::move(entry));
    resp.shards.push_back(std::move(sr));
  }
  net::Writer w;
  write_sharded_response(w, resp);
  const Bytes buf = w.take();
  net::Reader r(buf);
  const pir::ShardedPirResponse back = read_sharded_response(r);
  ASSERT_EQ(back.shards.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(back.shards[i].shard, resp.shards[i].shard);
    ASSERT_EQ(back.shards[i].response.entries.size(), 1u);
    EXPECT_EQ(back.shards[i].response.entries[0].values,
              resp.shards[i].response.entries[0].values);
    EXPECT_EQ(back.shards[i].response.entries[0].gradients,
              resp.shards[i].response.entries[0].gradients);
  }
  EXPECT_TRUE(r.done());
}

TEST(WireTest, HostileShardCountsRejected) {
  {
    // Shard count beyond the 2^16 clamp.
    net::Writer w;
    w.u64(0);
    w.varint((std::uint64_t{1} << 16) + 1);
    const Bytes buf = w.take();
    net::Reader r(buf);
    EXPECT_THROW((void)read_shard_map(r), CodecError);
  }
  {
    // A single shard claiming 2^40 + 1 rows.
    net::Writer w;
    w.u64(0);
    w.varint(1);
    w.varint((std::uint64_t{1} << 40) + 1);
    const Bytes buf = w.take();
    net::Reader r(buf);
    EXPECT_THROW((void)read_shard_map(r), CodecError);
  }
  {
    net::Writer w;
    w.u64(3);
    w.varint((std::uint64_t{1} << 16) + 1);  // sharded-query shard count
    const Bytes buf = w.take();
    net::Reader r(buf);
    EXPECT_THROW((void)read_sharded_query(r), CodecError);
  }
  {
    net::Writer w;
    w.varint((std::uint64_t{1} << 16) + 1);  // sharded-response shard count
    const Bytes buf = w.take();
    net::Reader r(buf);
    EXPECT_THROW((void)read_sharded_response(r), CodecError);
  }
}

TEST(WireTest, ImplausibleLengthsRejected) {
  // A claimed count of 2^40 entries must be rejected before allocation.
  net::Writer w;
  w.varint(std::uint64_t{1} << 40);
  const Bytes buf = w.take();
  {
    net::Reader r(buf);
    EXPECT_THROW((void)read_bigint_list(r), CodecError);
  }
  {
    net::Reader r(buf);
    EXPECT_THROW((void)read_index_list(r), CodecError);
  }
  {
    net::Reader r(buf);
    EXPECT_THROW((void)read_pir_query(r), CodecError);
  }
  {
    net::Reader r(buf);
    EXPECT_THROW((void)read_gf4_vector(r), CodecError);
  }
}

}  // namespace
}  // namespace ice::proto
