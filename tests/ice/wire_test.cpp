// Direct tests for the ICE wire codecs and response envelopes.
#include "ice/wire.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "support/pir_planes.h"

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

// The 310 reply as the element-at-a-time encoder wrote it: per point the
// K values as one packed string, the row length K, then the gamma gradient
// rows laid end to end as another, four 2-bit elements per byte.
Bytes scalar_frame(const pir::PirResponse& resp) {
  const auto scalar_pack = [](const gf::GF4Vector& v) {
    Bytes out((v.size() + 3) / 4, 0);
    for (std::size_t i = 0; i < v.size(); ++i) {
      out[i / 4] |= static_cast<std::uint8_t>(v[i].value() << (2 * (i % 4)));
    }
    return out;
  };
  const pir::PirShape& shape = resp.shape;
  net::Writer expected;
  expected.varint(shape.points);
  for (std::size_t p = 0; p < shape.points; ++p) {
    gf::GF4Vector values(shape.tag_bits);
    for (std::size_t pi = 0; pi < shape.tag_bits; ++pi) {
      values[pi] = testing::element(resp, p, 0, pi);
    }
    expected.varint(values.size());
    expected.bytes(scalar_pack(values));
    expected.varint(shape.gamma == 0 ? 0 : shape.tag_bits);
    gf::GF4Vector flat;
    for (std::size_t j = 0; j < shape.gamma; ++j) {
      for (std::size_t pi = 0; pi < shape.tag_bits; ++pi) {
        flat.push_back(testing::element(resp, p, 1 + j, pi));
      }
    }
    expected.varint(flat.size());
    expected.bytes(scalar_pack(flat));
  }
  return expected.take();
}

TEST(WireTest, PirResponseRoundTrip) {
  SplitMix64 rng(23);
  const pir::PirShape shape{3, 9, 64};
  const pir::PirResponse resp = testing::random_response(rng, shape);
  net::Writer w;
  write_pir_response(w, resp);
  const Bytes buf = w.take();
  net::Reader r(buf);
  const pir::PirResponse back = read_pir_response(r, shape);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back.shape, shape);
  EXPECT_EQ(back.planes, resp.planes);
}

// The plane codec writes the bytes of the element-at-a-time encoding at
// every tag width (rows that start inside a byte when K % 4 != 0, inside a
// word when K % 32 != 0), gradient count and point count, and reading the
// frame back writes the same frame again.
TEST(WireTest, PirResponseBytesMatchFlatScalarEncoding) {
  SplitMix64 rng(29);
  for (const std::size_t k : {1u, 63u, 64u, 65u, 520u, 1021u, 1023u, 1024u}) {
    for (const std::size_t gamma : {4u, 21u, 87u}) {
      for (const std::size_t m : {1u, 3u, 40u}) {
        SCOPED_TRACE(::testing::Message()
                     << "K=" << k << " gamma=" << gamma << " m=" << m);
        const pir::PirShape shape{m, k, gamma};
        const pir::PirResponse resp = testing::random_response(rng, shape);
        net::Writer w;
        write_pir_response(w, resp);
        const Bytes buf = w.take();
        ASSERT_EQ(buf, scalar_frame(resp));
        net::Reader r(buf);
        const pir::PirResponse back = read_pir_response(r, shape);
        EXPECT_TRUE(r.done());
        ASSERT_EQ(back.planes, resp.planes);
        net::Writer again;
        write_pir_response(again, back);
        ASSERT_EQ(again.take(), buf);
      }
    }
  }
}

TEST(WireTest, PirResponsePlaneSizeMismatchRejectedOnWrite) {
  SplitMix64 rng(30);
  pir::PirResponse resp = testing::random_response(rng, {2, 13, 5});
  resp.planes.pop_back();  // one word short of its shape
  net::Writer w;
  EXPECT_THROW(write_pir_response(w, resp), CodecError);
}

// A reply that is not an answer to the query is refused with CodecError
// before any plane is read from it: another entry count, tag width, row
// length or gradient count, a string of the wrong length, a truncated
// gradient string, or bits set past the last element of a string.
TEST(WireTest, HostilePirRepliesRejected) {
  SplitMix64 rng(34);
  const pir::PirShape want{2, 13, 5};
  const pir::PirResponse honest = testing::random_response(rng, want);
  net::Writer hw;
  write_pir_response(hw, honest);
  const Bytes honest_buf = hw.take();
  {
    net::Reader r(honest_buf);
    EXPECT_EQ(read_pir_response(r, want).planes, honest.planes);
  }
  const auto refused = [](const Bytes& buf, const pir::PirShape& shape) {
    net::Reader r(buf);
    EXPECT_THROW((void)read_pir_response(r, shape), CodecError);
  };
  // The honest frame read as the answer to another query.
  refused(honest_buf, {3, 13, 5});   // a count other than |S|
  refused(honest_buf, {1, 13, 5});
  refused(honest_buf, {2, 12, 5});   // a tag width other than the user's
  refused(honest_buf, {2, 14, 5});
  refused(honest_buf, {2, 13, 4});   // a gamma other than the embedding's
  refused(honest_buf, {2, 13, 6});

  // Hand-built entries around one field at a time.
  const auto entry = [](net::Writer& w, std::uint64_t k, Bytes values,
                        std::uint64_t inner, std::uint64_t count,
                        Bytes grads) {
    w.varint(k);
    w.bytes(values);
    w.varint(inner);
    w.varint(count);
    w.bytes(grads);
  };
  const pir::PirShape one{1, 13, 5};
  const Bytes values(4, 0);  // 13 elements: the last byte holds one
  const Bytes grads(17, 0);  // 65 elements: so does this string's
  {
    net::Writer w;
    w.varint(1);
    entry(w, 13, values, 13, 65, grads);
    const Bytes ok = w.take();
    net::Reader r(ok);
    EXPECT_NO_THROW((void)read_pir_response(r, one));
  }
  const auto frame = [&](std::uint64_t k, Bytes v, std::uint64_t inner,
                         std::uint64_t count, Bytes g) {
    net::Writer w;
    w.varint(1);
    entry(w, k, std::move(v), inner, count, std::move(g));
    return w.take();
  };
  refused(frame(12, values, 13, 65, grads), one);   // value count
  refused(frame(13, values, 12, 65, grads), one);   // row length
  refused(frame(13, values, 0, 65, grads), one);
  refused(frame(13, values, 13, 60, grads), one);   // gradient count
  refused(frame(13, values, 13, 78, grads), one);
  refused(frame(13, Bytes(3, 0), 13, 65, grads), one);  // short string
  refused(frame(13, Bytes(5, 0), 13, 65, grads), one);  // long string
  refused(frame(13, values, 13, 65, Bytes(16, 0)), one);
  // Bits past K in the values' last byte (element 13 of 16), and past
  // gamma * K in the gradients' last byte (element 65 of 68).
  Bytes dirty_values = values;
  dirty_values.back() = 0x04;
  refused(frame(13, dirty_values, 13, 65, grads), one);
  dirty_values.back() = 0x80;
  refused(frame(13, dirty_values, 13, 65, grads), one);
  Bytes dirty_grads = grads;
  dirty_grads.back() = 0x0C;
  refused(frame(13, values, 13, 65, dirty_grads), one);
  // The last element's own bits are data, not padding.
  Bytes last_values = values;
  last_values.back() = 0x03;
  Bytes last_grads = grads;
  last_grads.back() = 0x03;
  {
    const Bytes buf = frame(13, last_values, 13, 65, last_grads);
    net::Reader r(buf);
    const pir::PirResponse got = read_pir_response(r, one);
    EXPECT_EQ(testing::element(got, 0, 0, 12), gf::GF4(3));
    EXPECT_EQ(testing::element(got, 0, 5, 12), gf::GF4(3));
  }
  // A gradient string cut short inside a frame is a truncation.
  {
    Bytes cut = frame(13, values, 13, 65, grads);
    cut.pop_back();
    refused(cut, one);
  }
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
  const pir::PirShape shape{2, 13, 9};
  net::Writer response;
  write_pir_response(response, testing::random_response(rng, shape));

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
    EXPECT_THROW((void)read_pir_response(r, shape), CodecError)
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
  EXPECT_THROW((void)read_pir_response(r, {3, 13, 9}), CodecError);
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
