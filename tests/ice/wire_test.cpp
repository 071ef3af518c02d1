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

TEST(WireTest, TagInfoRoundTrip) {
  const TagInfo info{1000000, 3, 77};
  net::Writer w;
  write_tag_info(w, info);
  const Bytes buf = w.take();
  net::Reader r(buf);
  const TagInfo back = read_tag_info(r);
  EXPECT_EQ(back.n, info.n);
  EXPECT_EQ(back.generation, info.generation);
  EXPECT_EQ(back.epoch, info.epoch);
  EXPECT_TRUE(r.done());
}

TEST(WireTest, TagQueryRoundTrip) {
  SplitMix64 rng(31);
  TagQuery q;
  q.generation = 4;
  q.epoch = 12;
  for (int i = 0; i < 3; ++i) q.query.points.push_back(random_vec(rng, 7));
  net::Writer w;
  write_sharded_query(w, q);
  const Bytes buf = w.take();
  net::Reader r(buf);
  const TagQuery back = read_sharded_query(r);
  EXPECT_EQ(back.generation, 4u);
  EXPECT_EQ(back.epoch, 12u);
  EXPECT_EQ(back.total_points(), 3u);
  EXPECT_EQ(back.query.points, q.query.points);
  EXPECT_TRUE(r.done());
}

// Every strict prefix of a 309 reply, a 310 request and a 310 reply is a
// CodecError, never a short value.
TEST(WireTest, TruncatedTagMessagesRejectedAtEveryByte) {
  SplitMix64 rng(33);
  net::Writer info;
  write_tag_info(info, {4096, 2, 3});
  TagQuery q;
  q.generation = 2;
  q.epoch = 5;
  for (int i = 0; i < 2; ++i) q.query.points.push_back(random_vec(rng, 9));
  net::Writer query;
  write_sharded_query(query, q);
  pir::PirResponse resp;
  for (int e = 0; e < 2; ++e) {
    pir::PirSingleResponse entry;
    entry.values = random_vec(rng, 13);
    for (int g = 0; g < 9; ++g) entry.gradients.push_back(random_vec(rng, 13));
    resp.entries.push_back(std::move(entry));
  }
  net::Writer response;
  write_pir_response(response, resp);

  const Bytes info_buf = info.take();
  const Bytes query_buf = query.take();
  const Bytes response_buf = response.take();
  for (std::size_t len = 0; len < info_buf.size(); ++len) {
    net::Reader r(BytesView(info_buf).first(len));
    EXPECT_THROW((void)read_tag_info(r), CodecError) << "309 len=" << len;
  }
  for (std::size_t len = 0; len < query_buf.size(); ++len) {
    net::Reader r(BytesView(query_buf).first(len));
    EXPECT_THROW((void)read_sharded_query(r), CodecError)
        << "310 request len=" << len;
  }
  for (std::size_t len = 0; len < response_buf.size(); ++len) {
    net::Reader r(BytesView(response_buf).first(len));
    EXPECT_THROW((void)read_pir_response(r), CodecError)
        << "310 reply len=" << len;
  }
}

// A 310 claiming more points than its bytes can hold reserves at most what
// is left in the frame, then fails on the first missing point; a count past
// kMaxQueryPoints is refused outright, even when every point is present,
// and a query at the cap decodes.
TEST(WireTest, HostileTagQueryPointCountsRejected) {
  for (const std::uint64_t count :
       {std::uint64_t{kMaxQueryPoints}, std::uint64_t{kMaxQueryPoints} + 1,
        std::uint64_t{1} << 40}) {
    SCOPED_TRACE(count);
    net::Writer w;
    w.varint(0);
    w.u64(0);
    w.varint(count);
    write_gf4_vector(w, gf::GF4Vector(7));
    const Bytes buf = w.take();
    net::Reader r(buf);
    EXPECT_THROW((void)read_sharded_query(r), CodecError);
  }
  for (const std::size_t count : {kMaxQueryPoints, kMaxQueryPoints + 1}) {
    SCOPED_TRACE(count);
    TagQuery q;
    q.query.points.assign(count, gf::GF4Vector(7));
    net::Writer w;
    write_sharded_query(w, q);
    const Bytes buf = w.take();
    net::Reader r(buf);
    if (count == kMaxQueryPoints) {
      EXPECT_EQ(read_sharded_query(r).total_points(), count);
    } else {
      EXPECT_THROW((void)read_sharded_query(r), CodecError);
    }
  }
  net::Writer w;
  w.varint(std::uint64_t{1} << 20);  // 310 reply entry count
  const Bytes buf = w.take();
  net::Reader r(buf);
  EXPECT_THROW((void)read_pir_response(r), CodecError);
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
