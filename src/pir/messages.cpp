#include "pir/messages.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <type_traits>

#include "common/error.h"

namespace ice::pir {

std::size_t wire_bits(const PirQuery& q) {
  std::size_t bits = 0;
  for (const auto& p : q.points) bits += 2 * p.size();
  return bits;
}

std::size_t wire_bits(const PirResponse& r) {
  return 2 * r.shape.points * r.shape.tag_bits * (1 + r.shape.gamma);
}

namespace {

static_assert(sizeof(gf::GF4) == 1 && std::is_trivially_copyable_v<gf::GF4>,
              "GF(4) vectors are packed from and into their element bytes");

// Eight elements, one per byte of x (byte i = element i, each in [0, 3]),
// to their 16-bit packed form: fold byte pairs into nibbles, nibble pairs
// into bytes, byte pairs into the low 16 bits.
constexpr std::uint64_t pack8(std::uint64_t x) {
  x = (x | (x >> 6)) & 0x000F000F000F000FULL;
  x = (x | (x >> 12)) & 0x000000FF000000FFULL;
  return (x | (x >> 24)) & 0xFFFFULL;
}

// The inverse of pack8 for 16 packed bits.
constexpr std::uint64_t unpack8(std::uint64_t y) {
  y = (y | (y << 24)) & 0x000000FF000000FFULL;
  y = (y | (y << 12)) & 0x000F000F000F000FULL;
  return (y | (y << 6)) & 0x0303030303030303ULL;
}

static_assert(pack8(0x0100030300030201ULL) == 0x4F39);
static_assert(unpack8(0x4F39) == 0x0100030300030201ULL);

// Little-endian 64-bit word at p, whatever the host's byte order.
std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, 8);
  } else {
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  }
  return v;
}

void store_le64(std::uint8_t* p, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, 8);
  } else {
    for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

// Bits 0..31 of x to the even bits of the result (bit i to bit 2i).
constexpr std::uint64_t spread32(std::uint64_t x) {
  x &= 0xFFFFFFFFULL;
  x = (x | (x << 16)) & 0x0000FFFF0000FFFFULL;
  x = (x | (x << 8)) & 0x00FF00FF00FF00FFULL;
  x = (x | (x << 4)) & 0x0F0F0F0F0F0F0F0FULL;
  x = (x | (x << 2)) & 0x3333333333333333ULL;
  return (x | (x << 1)) & 0x5555555555555555ULL;
}

// The inverse of spread32: the even bits of x to bits 0..31.
constexpr std::uint64_t compact32(std::uint64_t x) {
  x &= 0x5555555555555555ULL;
  x = (x | (x >> 1)) & 0x3333333333333333ULL;
  x = (x | (x >> 2)) & 0x0F0F0F0F0F0F0F0FULL;
  x = (x | (x >> 4)) & 0x00FF00FF00FF00FFULL;
  x = (x | (x >> 8)) & 0x0000FFFF0000FFFFULL;
  return (x | (x >> 16)) & 0xFFFFFFFFULL;
}

// 32 elements of a plane pair, bits 0..31 of lo and hi, in their packed
// form: element i's lo bit at bit 2i, its hi bit at bit 2i + 1.
constexpr std::uint64_t interleave32(std::uint64_t lo, std::uint64_t hi) {
  return spread32(lo) | spread32(hi) << 1;
}

static_assert(spread32(0xFFFFFFFFULL) == 0x5555555555555555ULL);
static_assert(compact32(0xFFFFFFFFFFFFFFFFULL) == 0xFFFFFFFFULL);
static_assert(interleave32(0b1001, 0b0011) == 0b01'00'10'11);
static_assert(compact32(interleave32(0x8000F00DU, 0x1234ABCDU)) ==
              0x8000F00DU);
static_assert(compact32(interleave32(0x8000F00DU, 0x1234ABCDU) >> 1) ==
              0x1234ABCDU);

// The low `bits` bits of a word, bits in [1, 64].
constexpr std::uint64_t low_bits(unsigned bits) {
  return ~std::uint64_t{0} >> (64 - bits);
}

// Plane word pairs interleaved per block: 16 pairs, 1,024 elements.
constexpr std::size_t kBlockPairs = 16;

// A packed string written front to back a 64-bit word at a time, each
// word funnel-shifted onto the bits already held (a row of K elements
// starts at bit 2rK, inside a word unless 32 divides rK).
class BitSink {
 public:
  explicit BitSink(std::uint8_t* out) : out_(out) {}

  // Appends n whole words of packed elements. The loops keep the state in
  // locals: a byte store may alias any member.
  void put_words(const std::uint64_t* v, std::size_t n) {
    std::uint8_t* const out = out_;
    const unsigned fill = fill_;
    if (fill == 0) {
      for (std::size_t i = 0; i < n; ++i) store_le64(out + 8 * i, v[i]);
    } else {
      std::uint64_t acc = acc_;
      for (std::size_t i = 0; i < n; ++i) {
        store_le64(out + 8 * i, acc | v[i] << fill);
        acc = v[i] >> (64 - fill);
      }
      acc_ = acc;
    }
    out_ = out + 8 * n;
  }

  // Appends the low `bits` bits of v (zero above them), bits in [1, 64].
  void put(std::uint64_t v, unsigned bits) {
    acc_ |= v << fill_;
    if (fill_ + bits < 64) {
      fill_ += bits;
      return;
    }
    store_le64(out_, acc_);
    out_ += 8;
    acc_ = (v >> 1) >> (63 - fill_);  // v's bits that did not fit
    fill_ = fill_ + bits - 64;
  }

  // Writes the bytes of the last, partial word.
  void finish() {
    for (unsigned b = 0; b < fill_; b += 8) {
      *out_++ = static_cast<std::uint8_t>(acc_ >> b);
    }
  }

 private:
  std::uint8_t* out_;
  std::uint64_t acc_ = 0;
  unsigned fill_ = 0;  // bits held in acc_, < 64
};

// The reading side. Bytes past the string's end read as zero.
class BitSource {
 public:
  BitSource(const std::uint8_t* data, std::size_t bytes)
      : data_(data), bytes_(bytes) {}

  // Reads the next n whole words.
  void take_words(std::uint64_t* v, std::size_t n) {
    const unsigned fill = fill_;
    if (pos_ + 8 * n > bytes_) {  // near the end: bounded loads
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t next = next_word();
        v[i] = fill == 0 ? next : acc_ | next << fill;
        acc_ = fill == 0 ? 0 : next >> (64 - fill);
      }
      return;
    }
    const std::uint8_t* const in = data_ + pos_;
    if (fill == 0) {
      for (std::size_t i = 0; i < n; ++i) v[i] = load_le64(in + 8 * i);
    } else {
      std::uint64_t acc = acc_;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t next = load_le64(in + 8 * i);
        v[i] = acc | next << fill;
        acc = next >> (64 - fill);
      }
      acc_ = acc;
    }
    pos_ += 8 * n;
  }

  // The next `bits` bits, bits in [1, 64].
  std::uint64_t take(unsigned bits) {
    if (fill_ >= bits) {
      const std::uint64_t v = acc_ & low_bits(bits);
      acc_ >>= bits;  // bits < 64 here, as fill_ < 64
      fill_ -= bits;
      return v;
    }
    const std::uint64_t next = next_word();
    const std::uint64_t v = (acc_ | next << fill_) & low_bits(bits);
    acc_ = (next >> 1) >> (bits - fill_ - 1);  // next's unread bits
    fill_ = fill_ + 64 - bits;
    return v;
  }

 private:
  std::uint64_t next_word() {
    std::uint64_t v = 0;
    if (pos_ + 8 <= bytes_) {
      v = load_le64(data_ + pos_);
    } else {
      for (std::size_t b = pos_; b < bytes_; ++b) {
        v |= std::uint64_t{data_[b]} << (8 * (b - pos_));
      }
    }
    pos_ += 8;
    return v;
  }

  const std::uint8_t* data_;
  std::size_t bytes_;
  std::size_t pos_ = 0;  // the next word's first byte
  std::uint64_t acc_ = 0;
  unsigned fill_ = 0;  // unread bits held in acc_, < 64
};

}  // namespace

void pack_plane_pairs(const std::uint64_t* pairs, std::size_t rows,
                      std::size_t k, std::uint8_t* out) {
  const std::size_t w = (k + 63) / 64;
  const std::size_t full = k / 64;
  const auto rem = static_cast<unsigned>(k % 64);
  BitSink sink(out);
  std::uint64_t block[2 * kBlockPairs];
  for (std::size_t r = 0; r < rows; ++r) {
    const std::uint64_t* const lo = pairs + 2 * w * r;
    const std::uint64_t* const hi = lo + w;
    // Interleave a block of the row, then shift it into place as a whole.
    for (std::size_t i0 = 0; i0 < full; i0 += kBlockPairs) {
      const std::size_t n = std::min(kBlockPairs, full - i0);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t l = lo[i0 + i], h = hi[i0 + i];
        block[2 * i] = interleave32(l, h);
        block[2 * i + 1] = interleave32(l >> 32, h >> 32);
      }
      sink.put_words(block, 2 * n);
    }
    if (rem != 0) {
      const std::uint64_t l = lo[full] & low_bits(rem);
      const std::uint64_t h = hi[full] & low_bits(rem);
      if (rem > 32) {
        sink.put(interleave32(l, h), 64);
        sink.put(interleave32(l >> 32, h >> 32), 2 * (rem - 32));
      } else {
        sink.put(interleave32(l, h), 2 * rem);
      }
    }
  }
  sink.finish();
}

void unpack_plane_pairs(const std::uint8_t* data, std::size_t rows,
                        std::size_t k, std::uint64_t* pairs) {
  const std::size_t w = (k + 63) / 64;
  const std::size_t full = k / 64;
  const auto rem = static_cast<unsigned>(k % 64);
  BitSource source(data, (rows * k + 3) / 4);
  // Two 32-element groups to one plane word pair.
  const auto store = [](std::uint64_t g0, std::uint64_t g1, std::uint64_t& lo,
                        std::uint64_t& hi) {
    lo = compact32(g0) | compact32(g1) << 32;
    hi = compact32(g0 >> 1) | compact32(g1 >> 1) << 32;
  };
  std::uint64_t block[2 * kBlockPairs];
  for (std::size_t r = 0; r < rows; ++r) {
    std::uint64_t* const lo = pairs + 2 * w * r;
    std::uint64_t* const hi = lo + w;
    for (std::size_t i0 = 0; i0 < full; i0 += kBlockPairs) {
      const std::size_t n = std::min(kBlockPairs, full - i0);
      source.take_words(block, 2 * n);
      for (std::size_t i = 0; i < n; ++i) {
        store(block[2 * i], block[2 * i + 1], lo[i0 + i], hi[i0 + i]);
      }
    }
    if (rem > 32) {
      const std::uint64_t g0 = source.take(64);
      store(g0, source.take(2 * (rem - 32)), lo[full], hi[full]);
    } else if (rem != 0) {
      store(source.take(2 * rem), 0, lo[full], hi[full]);
    }
  }
}

void pack_gf4_at(std::span<const gf::GF4> v, std::uint8_t* out,
                 std::size_t pos) {
  const auto* const src = reinterpret_cast<const std::uint8_t*>(v.data());
  const std::size_t n = v.size();
  const auto put = [&](std::size_t i) {
    const std::size_t at = pos + i;
    out[at / 4] |= static_cast<std::uint8_t>(src[i] << (2 * (at % 4)));
  };
  std::size_t i = 0;
  for (; i < n && (pos + i) % 4 != 0; ++i) put(i);
  // Byte-aligned from here: whole words of 32 elements.
  std::uint8_t* dst = out + (pos + i) / 4;
  for (; i + 32 <= n; i += 32, dst += 8) {
    store_le64(dst, pack8(load_le64(src + i)) |
                        pack8(load_le64(src + i + 8)) << 16 |
                        pack8(load_le64(src + i + 16)) << 32 |
                        pack8(load_le64(src + i + 24)) << 48);
  }
  for (; i < n; ++i) put(i);
}

void unpack_gf4_at(const std::uint8_t* data, std::size_t pos,
                   std::span<gf::GF4> out) {
  auto* const dst = reinterpret_cast<std::uint8_t*>(out.data());
  const std::size_t n = out.size();
  const auto get = [&](std::size_t i) {
    const std::size_t at = pos + i;
    dst[i] = static_cast<std::uint8_t>((data[at / 4] >> (2 * (at % 4))) & 3);
  };
  std::size_t i = 0;
  for (; i < n && (pos + i) % 4 != 0; ++i) get(i);
  const std::uint8_t* src = data + (pos + i) / 4;
  for (; i + 32 <= n; i += 32, src += 8) {
    const std::uint64_t y = load_le64(src);
    for (int part = 0; part < 4; ++part) {
      store_le64(dst + i + 8 * part, unpack8((y >> (16 * part)) & 0xFFFF));
    }
  }
  for (; i < n; ++i) get(i);
}

Bytes pack_gf4(const gf::GF4Vector& v) {
  Bytes out((v.size() + 3) / 4, 0);
  pack_gf4_at(v, out.data(), 0);
  return out;
}

gf::GF4Vector unpack_gf4(BytesView data, std::size_t count) {
  if (data.size() < (count + 3) / 4) {
    throw CodecError("unpack_gf4: buffer too short");
  }
  gf::GF4Vector out(count);
  unpack_gf4_at(data.data(), 0, out);
  return out;
}

}  // namespace ice::pir
