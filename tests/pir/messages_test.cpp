// Tests for PIR message packing and wire-size accounting.
#include "pir/messages.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"

namespace ice::pir {
namespace {

TEST(PirMessagesTest, PackUnpackRoundTrip) {
  SplitMix64 gen(3);
  for (std::size_t len : {0u, 1u, 3u, 4u, 5u, 17u, 100u}) {
    gf::GF4Vector v(len);
    for (auto& e : v) e = gf::GF4(static_cast<std::uint8_t>(gen.below(4)));
    const Bytes packed = pack_gf4(v);
    EXPECT_EQ(packed.size(), (len + 3) / 4);
    EXPECT_EQ(unpack_gf4(packed, len), v);
  }
}

// The element-at-a-time loops the word-parallel codec replaced: the
// packed layout they define is the wire format.
Bytes scalar_pack(const gf::GF4Vector& v) {
  Bytes out((v.size() + 3) / 4, 0);
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i / 4] |= static_cast<std::uint8_t>(v[i].value() << (2 * (i % 4)));
  }
  return out;
}

gf::GF4Vector scalar_unpack(BytesView data, std::size_t count) {
  gf::GF4Vector out(count);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = gf::GF4(static_cast<std::uint8_t>(data[i / 4] >> (2 * (i % 4))));
  }
  return out;
}

gf::GF4Vector random_gf4(SplitMix64& gen, std::size_t len) {
  gf::GF4Vector v(len);
  for (auto& e : v) e = gf::GF4(static_cast<std::uint8_t>(gen.below(4)));
  return v;
}

TEST(PirMessagesTest, WordParallelCodecMatchesScalarLoopsAtEveryLength) {
  SplitMix64 gen(0x9f4);
  for (std::size_t len = 0; len <= 260; ++len) {
    const gf::GF4Vector v = random_gf4(gen, len);
    const Bytes expected = scalar_pack(v);
    EXPECT_EQ(pack_gf4(v), expected) << "len=" << len;
    // Random bytes, including nonzero bits past the last element.
    Bytes packed(expected.size());
    for (auto& b : packed) b = static_cast<std::uint8_t>(gen());
    EXPECT_EQ(unpack_gf4(packed, len), scalar_unpack(packed, len))
        << "len=" << len;
  }
}

TEST(PirMessagesTest, PackAtConcatenatesAcrossUnalignedBoundaries) {
  // Vectors of a length that is not a multiple of 4 packed back to back
  // (the response encoder's gradient rows) equal one packed concatenation,
  // and unpack_gf4_at reads each back from its element offset.
  SplitMix64 gen(0x9f5);
  for (std::size_t len : {std::size_t{1}, std::size_t{13}, std::size_t{37},
                          std::size_t{66}, std::size_t{130}}) {
    std::vector<gf::GF4Vector> rows;
    gf::GF4Vector flat;
    for (int r = 0; r < 7; ++r) {
      rows.push_back(random_gf4(gen, len));
      flat.insert(flat.end(), rows.back().begin(), rows.back().end());
    }
    Bytes packed((flat.size() + 3) / 4, 0);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      pack_gf4_at(rows[r], packed.data(), r * len);
    }
    EXPECT_EQ(packed, scalar_pack(flat)) << "len=" << len;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      gf::GF4Vector back(len);
      unpack_gf4_at(packed.data(), r * len, back);
      EXPECT_EQ(back, rows[r]) << "len=" << len << " row=" << r;
    }
  }
}

TEST(PirMessagesTest, UnpackShortBufferThrows) {
  EXPECT_THROW(unpack_gf4(Bytes{0x00}, 5), CodecError);
  EXPECT_NO_THROW(unpack_gf4(Bytes{0x00}, 4));
}

TEST(PirMessagesTest, PackingIsDense) {
  // 4 elements -> 1 byte; values laid out little-endian 2-bit fields.
  const gf::GF4Vector v = {gf::GF4(1), gf::GF4(2), gf::GF4(3), gf::GF4(0)};
  const Bytes packed = pack_gf4(v);
  ASSERT_EQ(packed.size(), 1u);
  EXPECT_EQ(packed[0], 0b00111001);
}

TEST(PirMessagesTest, QueryWireBits) {
  PirQuery q;
  q.points.push_back(gf::GF4Vector(10));
  q.points.push_back(gf::GF4Vector(10));
  EXPECT_EQ(wire_bits(q), 2u * 2 * 10);
}

TEST(PirMessagesTest, ResponseWireBits) {
  PirResponse r;
  r.shape = {3, 64, 9};
  r.planes.assign(3 * r.shape.stride(), 0);
  // Per entry: 2*64 value bits + 2*64*9 gradient bits.
  EXPECT_EQ(wire_bits(r), 3u * (2 * 64 + 2 * 64 * 9));
}

// The plane codec against the scalar 2-bit packing: `rows` random plane
// pairs (with junk past K, which packing must ignore) pack to the packed
// string of their elements laid end to end, and unpack back to the same
// planes with the bits past K cleared.
TEST(PirMessagesTest, PlanePairsMatchScalarPackingAtEveryShape) {
  SplitMix64 gen(0x91a);
  std::vector<std::size_t> widths;
  for (std::size_t k = 1; k <= 130; ++k) widths.push_back(k);
  for (std::size_t k : {191u, 192u, 193u, 520u, 1021u, 1023u, 1024u}) {
    widths.push_back(k);
  }
  for (const std::size_t k : widths) {
    for (const std::size_t rows : {1u, 2u, 3u, 7u}) {
      const std::size_t w = (k + 63) / 64;
      std::vector<std::uint64_t> planes(2 * w * rows);
      for (auto& word : planes) word = gen();
      gf::GF4Vector elements(rows * k);
      for (std::size_t r = 0; r < rows; ++r) {
        const std::uint64_t* lo = planes.data() + 2 * w * r;
        for (std::size_t pi = 0; pi < k; ++pi) {
          const unsigned l = (lo[pi / 64] >> (pi % 64)) & 1u;
          const unsigned h = (lo[w + pi / 64] >> (pi % 64)) & 1u;
          elements[r * k + pi] = gf::GF4(static_cast<std::uint8_t>(l | h << 1));
        }
      }
      const Bytes expected = scalar_pack(elements);
      // Poisoned output: every byte must be written.
      Bytes packed(expected.size(), 0xA5);
      pack_plane_pairs(planes.data(), rows, k, packed.data());
      ASSERT_EQ(packed, expected) << "k=" << k << " rows=" << rows;

      std::vector<std::uint64_t> back(planes.size(), 0x5A5A5A5A5A5A5A5AULL);
      unpack_plane_pairs(packed.data(), rows, k, back.data());
      std::vector<std::uint64_t> masked = planes;
      if (k % 64 != 0) {
        const std::uint64_t keep = (std::uint64_t{1} << (k % 64)) - 1;
        for (std::size_t i = w - 1; i < masked.size(); i += w) {
          masked[i] &= keep;
        }
      }
      ASSERT_EQ(back, masked) << "k=" << k << " rows=" << rows;
    }
  }
}

TEST(PirMessagesTest, EmptyMessagesZeroBits) {
  EXPECT_EQ(wire_bits(PirQuery{}), 0u);
  EXPECT_EQ(wire_bits(PirResponse{}), 0u);
}

}  // namespace
}  // namespace ice::pir
