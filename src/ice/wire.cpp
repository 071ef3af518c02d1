#include "ice/wire.h"

#include <algorithm>

#include "common/error.h"

namespace ice::proto {

namespace {

// A length-prefixed packed GF(4) string as it sits in the frame: the
// element count, then the packed bytes (pir::pack_gf4's layout).
struct PackedGf4 {
  std::size_t count;
  BytesView data;
};

// Writes the count and the length prefix, and returns the zeroed bytes the
// caller packs the elements into (valid until the next write).
std::uint8_t* begin_gf4_string(net::Writer& w, std::size_t count) {
  const std::size_t nbytes = (count + 3) / 4;
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
  if (data.size() < (count + 3) / 4) {
    throw CodecError("unpack_gf4: buffer too short");
  }
  return {static_cast<std::size_t>(count), data};
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
  w.varint(resp.entries.size());
  for (const auto& e : resp.entries) {
    write_gf4_vector(w, e.values);
    // Gradients are gamma coordinate vectors of uniform length K, sent as
    // ONE packed GF(4) string to avoid per-vector length overhead (this is
    // the dominant share of the TPA->User bytes in Tab. I). Each vector is
    // packed straight into its slice of that string.
    const std::size_t inner =
        e.gradients.empty() ? 0 : e.gradients.front().size();
    for (const auto& g : e.gradients) {
      if (g.size() != inner) {
        throw CodecError("write_pir_response: ragged gradients");
      }
    }
    w.varint(inner);
    std::uint8_t* const packed =
        begin_gf4_string(w, e.gradients.size() * inner);
    for (std::size_t row = 0; row < e.gradients.size(); ++row) {
      pir::pack_gf4_at(e.gradients[row], packed, row * inner);
    }
  }
}

pir::PirResponse read_pir_response(net::Reader& r) {
  const std::uint64_t count = r.varint();
  if (count > (std::uint64_t{1} << 20)) {
    throw CodecError("read_pir_response: implausible count");
  }
  pir::PirResponse resp;
  resp.entries.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, r.remaining())));
  for (std::uint64_t i = 0; i < count; ++i) {
    pir::PirSingleResponse e;
    e.values = read_gf4_vector(r);
    const std::uint64_t inner = r.varint();
    if (inner > (std::uint64_t{1} << 16)) {
      throw CodecError("read_pir_response: implausible gradient length");
    }
    const PackedGf4 flat = read_gf4_string(r);
    if (inner != 0 && flat.count % inner != 0) {
      throw CodecError("read_pir_response: gradient size mismatch");
    }
    const std::size_t rows = inner == 0 ? 0 : flat.count / inner;
    e.gradients.resize(rows);
    for (std::size_t row = 0; row < rows; ++row) {
      e.gradients[row].resize(static_cast<std::size_t>(inner));
      pir::unpack_gf4_at(flat.data.data(), row * inner, e.gradients[row]);
    }
    resp.entries.push_back(std::move(e));
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
