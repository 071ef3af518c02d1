#include "ice/wire.h"

#include <algorithm>
#include <string>

#include "common/error.h"

namespace ice::proto {

namespace {

// The byte length of a packed string of `count` elements, and the mask of
// its last byte's padding bits (zero when the elements fill that byte).
std::size_t packed_bytes(std::size_t count) { return (count + 3) / 4; }
std::uint8_t padding_mask(std::size_t count) {
  return count % 4 == 0 ? 0
                        : static_cast<std::uint8_t>(0xFF << (2 * (count % 4)));
}

// A length-prefixed packed GF(4) string as it sits in the frame: the
// element count, then the packed bytes (pir::pack_gf4's layout).
struct PackedGf4 {
  std::size_t count;
  BytesView data;
};

// Writes the count and the length prefix, and returns the zeroed bytes the
// caller packs the elements into (valid until the next write).
std::uint8_t* begin_gf4_string(net::Writer& w, std::size_t count) {
  const std::size_t nbytes = packed_bytes(count);
  w.varint(count);
  w.varint(nbytes);
  return w.grow(nbytes);
}

PackedGf4 read_gf4_string(net::Reader& r,
                          std::uint64_t max_count = std::uint64_t{1} << 24) {
  const std::uint64_t count = r.varint();
  if (count > max_count) {
    throw CodecError("read_gf4_vector: implausible length");
  }
  const BytesView data = r.bytes_view();
  if (data.size() < packed_bytes(count)) {
    throw CodecError("unpack_gf4: buffer too short");
  }
  return {static_cast<std::size_t>(count), data};
}

// Reads a packed GF(4) string that must hold exactly `count` elements in
// exactly packed_bytes(count) bytes with zero padding; `what` names the
// count in the error.
BytesView read_exact_gf4_string(net::Reader& r, std::size_t count,
                                const char* what) {
  if (r.varint() != count) {
    throw CodecError(std::string("read_pir_response: ") + what +
                     " is not the query's");
  }
  const BytesView data = r.bytes_view();
  if (data.size() != packed_bytes(count)) {
    throw CodecError("read_pir_response: packed string length mismatch");
  }
  if (count != 0 && (data.back() & padding_mask(count)) != 0) {
    throw CodecError("read_pir_response: bits set past the last element");
  }
  return data;
}

}  // namespace

void write_gf4_vector(net::Writer& w, const gf::GF4Vector& v) {
  pir::pack_gf4_at(v, begin_gf4_string(w, v.size()), 0);
}

gf::GF4Vector read_gf4_vector(net::Reader& r) {
  // Unpack straight from the frame view — no intermediate copy.
  const PackedGf4 packed = read_gf4_string(r);
  return pir::unpack_gf4(packed.data, packed.count);
}

void write_pir_query(net::Writer& w, const pir::PirQuery& q) {
  w.varint(q.points.size());
  for (const auto& p : q.points) write_gf4_vector(w, p);
}

pir::PirQuery read_pir_query(net::Reader& r) {
  const std::uint64_t count = r.varint();
  if (count > kMaxQueryPoints) {
    throw CodecError("read_pir_query: more points than the cap");
  }
  pir::PirQuery q;
  q.points.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, r.remaining())));
  for (std::uint64_t i = 0; i < count; ++i) {
    const PackedGf4 point = read_gf4_string(r, kMaxQueryPointLength);
    q.points.push_back(pir::unpack_gf4(point.data, point.count));
  }
  return q;
}

void write_pir_response(net::Writer& w, const pir::PirResponse& resp) {
  const pir::PirShape& shape = resp.shape;
  if (resp.planes.size() != shape.points * shape.stride()) {
    throw CodecError("write_pir_response: plane words do not match the shape");
  }
  const std::size_t k = shape.tag_bits;
  const std::size_t pair = 2 * shape.words();
  w.varint(shape.points);
  for (std::size_t p = 0; p < shape.points; ++p) {
    const std::uint64_t* const planes = resp.point(p);
    pir::pack_plane_pairs(planes, 1, k, begin_gf4_string(w, k));
    // Gradients are gamma coordinate rows of K elements, sent as ONE packed
    // GF(4) string to avoid per-row length overhead (this is the dominant
    // share of the TPA->User bytes in Tab. I). The rows' plane pairs are
    // contiguous, so one call interleaves them all into the frame.
    w.varint(shape.gamma == 0 ? 0 : k);
    pir::pack_plane_pairs(planes + pair, shape.gamma, k,
                          begin_gf4_string(w, shape.gamma * k));
  }
}

pir::PirResponse read_pir_response(net::Reader& r,
                                   const pir::PirShape& want) {
  if (r.varint() != want.points) {
    throw CodecError("read_pir_response: entry count is not the query's");
  }
  const std::size_t k = want.tag_bits;
  const std::size_t pair = 2 * want.words();
  pir::PirResponse resp;
  resp.shape = want;
  resp.planes.resize(want.points * want.stride());
  for (std::size_t p = 0; p < want.points; ++p) {
    std::uint64_t* const planes = resp.planes.data() + p * want.stride();
    pir::unpack_plane_pairs(read_exact_gf4_string(r, k, "tag width").data(),
                            1, k, planes);
    if (r.varint() != (want.gamma == 0 ? 0 : k)) {
      throw CodecError(
          "read_pir_response: gradient length is not the tag width");
    }
    const BytesView grads =
        read_exact_gf4_string(r, want.gamma * k, "gradient count");
    pir::unpack_plane_pairs(grads.data(), want.gamma, k, planes + pair);
  }
  return resp;
}

void write_tag_info(net::Writer& w, const TagInfo& info) {
  w.varint(info.n);
  w.varint(info.generation);
  w.u64(info.epoch);
}

TagInfo read_tag_info(net::Reader& r) {
  TagInfo info;
  info.n = r.varint();
  info.generation = r.varint();
  info.epoch = r.u64();
  return info;
}

void write_sharded_query(net::Writer& w, const TagQuery& q) {
  w.varint(q.generation);
  w.u64(q.epoch);
  write_pir_query(w, q.query);
}

TagQuery read_sharded_query(net::Reader& r) {
  TagQuery q;
  q.generation = r.varint();
  q.epoch = r.u64();
  q.query = read_pir_query(r);
  return q;
}

void write_ladder(net::Writer& w, const bn::Ladder& ladder) {
  w.varint(ladder.width);
  write_bigint_list(w, ladder.rungs);
}

bn::Ladder read_ladder(net::Reader& r) {
  bn::Ladder ladder;
  ladder.width = static_cast<std::size_t>(r.varint());
  const std::uint64_t count = r.varint();
  if (count >= kLadderRungs) {
    throw CodecError("read_ladder: more rungs than the cap");
  }
  ladder.rungs.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    ladder.rungs.push_back(r.bigint());
  }
  return ladder;
}

void write_bigint_list(net::Writer& w, const std::vector<bn::BigInt>& v) {
  w.varint(v.size());
  for (const auto& x : v) w.bigint(x);
}

std::vector<bn::BigInt> read_bigint_list(net::Reader& r) {
  const std::uint64_t count = r.varint();
  if (count > (std::uint64_t{1} << 24)) {
    throw CodecError("read_bigint_list: implausible length");
  }
  std::vector<bn::BigInt> v;
  v.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, r.remaining())));
  for (std::uint64_t i = 0; i < count; ++i) v.push_back(r.bigint());
  return v;
}

void write_index_list(net::Writer& w, const std::vector<std::size_t>& v) {
  w.varint(v.size());
  for (std::size_t x : v) w.varint(x);
}

std::vector<std::size_t> read_index_list(net::Reader& r) {
  const std::uint64_t count = r.varint();
  if (count > (std::uint64_t{1} << 24)) {
    throw CodecError("read_index_list: implausible length");
  }
  std::vector<std::size_t> v;
  v.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, r.remaining())));
  for (std::uint64_t i = 0; i < count; ++i) {
    v.push_back(static_cast<std::size_t>(r.varint()));
  }
  return v;
}

void require_distinct(const std::vector<std::size_t>& indices) {
  std::vector<std::size_t> sorted = indices;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    throw net::ServiceError(net::Status::kInvalidArgument, "repeated index");
  }
}

}  // namespace ice::proto
