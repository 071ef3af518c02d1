#include "net/serde.h"

#include "net/buffer_pool.h"

namespace ice::net {

Writer::Writer() : buf_(BufferPool::local().acquire()) {}

Writer::~Writer() { BufferPool::local().release(std::move(buf_)); }

void Writer::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v));
  u8(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
  u16(static_cast<std::uint16_t>(v));
  u16(static_cast<std::uint16_t>(v >> 16));
}

void Writer::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void Writer::varint(std::uint64_t v) {
  while (v >= 0x80) {
    u8(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  u8(static_cast<std::uint8_t>(v));
}

void Writer::bytes(BytesView data) {
  varint(data.size());
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void Writer::str(std::string_view s) {
  varint(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

std::uint8_t* Writer::grow(std::size_t n) {
  const std::size_t at = buf_.size();
  buf_.resize(at + n);
  return buf_.data() + at;
}

void Writer::bigint(const bn::BigInt& v) {
  // Direct limb -> big-endian encode with ONE reserve: no abs() copy, no
  // temporary byte string. Wire format is unchanged (sign byte + varint
  // length + minimal big-endian magnitude).
  u8(static_cast<std::uint8_t>(v.sign() < 0 ? 1 : 0));
  const std::size_t nbytes = (v.bit_length() + 7) / 8;
  varint(nbytes);
  buf_.reserve(buf_.size() + nbytes);
  const auto& limbs = v.limbs();
  for (std::size_t i = nbytes; i-- > 0;) {
    const std::size_t bit = i * 8;
    buf_.push_back(static_cast<std::uint8_t>(limbs[bit / 64] >> (bit % 64)));
  }
}

BytesView Reader::take(std::size_t n) {
  if (n > remaining()) throw CodecError("Reader: truncated input");
  BytesView out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::uint8_t Reader::u8() { return take(1)[0]; }

std::uint16_t Reader::u16() {
  const auto b = take(2);
  return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
}

std::uint32_t Reader::u32() {
  const auto b = take(4);
  return std::uint32_t{b[0]} | (std::uint32_t{b[1]} << 8) |
         (std::uint32_t{b[2]} << 16) | (std::uint32_t{b[3]} << 24);
}

std::uint64_t Reader::u64() {
  const std::uint64_t lo = u32();
  const std::uint64_t hi = u32();
  return lo | (hi << 32);
}

std::uint64_t Reader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (shift >= 64) throw CodecError("Reader: varint overflow");
    const std::uint8_t b = u8();
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

Bytes Reader::bytes() {
  const BytesView b = bytes_view();
  return Bytes(b.begin(), b.end());
}

BytesView Reader::bytes_view() {
  const std::uint64_t len = varint();
  if (len > remaining()) throw CodecError("Reader: byte string truncated");
  return take(static_cast<std::size_t>(len));
}

std::string Reader::str() {
  const BytesView raw = bytes_view();
  return std::string(raw.begin(), raw.end());
}

bn::BigInt Reader::bigint() {
  // Decode straight from the frame view. The declared magnitude length is
  // clamped against remaining() BEFORE any buffer is sized, so a hostile
  // length prefix cannot force a large reserve — it throws CodecError.
  const std::uint8_t negative = u8();
  if (negative > 1) throw CodecError("Reader: bad bigint sign byte");
  bn::BigInt v = bn::BigInt::from_bytes_be(bytes_view());
  return negative ? v.negated() : v;
}

void Reader::expect_done() const {
  if (!done()) throw CodecError("Reader: trailing bytes");
}

}  // namespace ice::net
