#include "pir/messages.h"

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
  std::size_t bits = 0;
  for (const auto& e : r.entries) {
    bits += 2 * e.values.size();
    for (const auto& g : e.gradients) bits += 2 * g.size();
  }
  return bits;
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

}  // namespace

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
