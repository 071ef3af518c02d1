// Wire-level message structures for the 2-server private tag retrieval.
//
// The ICE layer serializes these through net/serde; the structures also
// report their exact packed size so the communication-cost experiments
// (paper Tab. I, Fig. 8) can account bits without a transport in the loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "gf/gf4.h"

namespace ice::pir {

/// Query to one TPA: one perturbed point phi(j_l) + t_tau * z_l per
/// requested index (paper Alg. 1, "User: tag query").
struct PirQuery {
  std::vector<gf::GF4Vector> points;

  [[nodiscard]] std::size_t size() const { return points.size(); }
};

/// F_pi(q) for every bitplane pi and the gradient (partial derivatives) of
/// each F_pi at q, one GF(4) element per byte: the output of the per-point
/// reference evaluators (PirServer::respond_naive / respond_matrix), which
/// the differential tests compare the serving engine against. Gradients
/// are coordinate-major: gradients[j][pi] is dF_pi/dx_j.
struct PirSingleResponse {
  gf::GF4Vector values;                   // length K
  std::vector<gf::GF4Vector> gradients;   // gamma entries, each length K
};

/// The shape of one TPA's answer: one entry per queried point, each the K
/// values F_pi(q) and gamma gradient rows of K elements.
struct PirShape {
  std::size_t points = 0;
  std::size_t tag_bits = 0;  // K
  std::size_t gamma = 0;

  /// 64-bit words per bit plane.
  [[nodiscard]] std::size_t words() const { return (tag_bits + 63) / 64; }
  /// Words per point: the value pair, then gamma gradient pairs.
  [[nodiscard]] std::size_t stride() const {
    return 2 * words() * (1 + gamma);
  }

  friend bool operator==(const PirShape&, const PirShape&) = default;
};

/// Full response from one TPA (paper Alg. 1, "Auditor tau: tag response")
/// in the layout the server's sweep accumulates: GF(4) bit planes. Element
/// pi of a plane pair [lo | hi] (w = ceil(K / 64) words each) is
/// bit pi of lo | bit pi of hi << 1, and bits K and above are zero. Point
/// p owns words [p * stride, (p + 1) * stride): the value pair, then the
/// pair of gradient coordinate j at word 2w(1 + j). The server hands its
/// folded accumulator over as this, the wire codec interleaves the pairs
/// straight into the frame and back, and the client decodes them
/// word-parallel (DESIGN.md §9).
struct PirResponse {
  PirShape shape;
  std::vector<std::uint64_t> planes;  // shape.points * shape.stride() words

  /// The first word of point p's value pair.
  [[nodiscard]] const std::uint64_t* point(std::size_t p) const {
    return planes.data() + p * shape.stride();
  }
};

/// Client-side secrets needed to decode: the random directions z_l and the
/// queried indexes. Never leaves the user device.
struct QuerySecrets {
  std::vector<std::size_t> indices;
  std::vector<gf::GF4Vector> z;
};

/// Exact packed wire size in bits (GF(4) elements cost 2 bits each).
std::size_t wire_bits(const PirQuery& q);
std::size_t wire_bits(const PirResponse& r);

/// Packed GF(4) strings hold 4 elements per byte: element i sits at bits
/// 2(i % 4) .. 2(i % 4) + 1 of byte i / 4.
///
/// Packs a GF(4) vector, 4 elements per byte.
Bytes pack_gf4(const gf::GF4Vector& v);
/// Unpacks `count` GF(4) elements; throws CodecError if `data` is short.
gf::GF4Vector unpack_gf4(BytesView data, std::size_t count);

/// Writes v as elements pos .. pos + |v| - 1 of the packed string at `out`,
/// 32 elements per 64-bit word. Elements sharing a byte with neighbours
/// outside that range are ORed in, so such a shared byte must start zero;
/// concatenating vectors that way lets the response encoder pack each
/// gradient straight into the frame.
void pack_gf4_at(std::span<const gf::GF4> v, std::uint8_t* out,
                 std::size_t pos);
/// Reads elements pos .. pos + |out| - 1 of the packed string at `data`
/// into `out`, 32 elements per 64-bit word. The caller bounds-checks.
void unpack_gf4_at(const std::uint8_t* data, std::size_t pos,
                   std::span<gf::GF4> out);

/// Packs `rows` bit-plane pairs of K elements each into one packed string
/// of rows * K elements: pair r (lo at pairs + 2wr, hi w words after it,
/// w = ceil(K / 64)) becomes elements rK .. rK + K - 1. Each 32-element
/// group is bit-interleaved once (lo to the even bits, hi to the odd ones)
/// and funnel-shifted into place, so rows need not start on a byte. Writes
/// all ceil(rows * K / 4) bytes at `out`; bits past the last element are
/// zero, and plane bits past K are ignored.
void pack_plane_pairs(const std::uint64_t* pairs, std::size_t rows,
                      std::size_t k, std::uint8_t* out);
/// The inverse: reads rows * K elements from the ceil(rows * K / 4) bytes
/// at `data` into `rows` plane pairs laid out as above, writing every word
/// of them (plane bits past K come out zero). The caller bounds-checks.
void unpack_plane_pairs(const std::uint8_t* data, std::size_t rows,
                        std::size_t k, std::uint64_t* pairs);

}  // namespace ice::pir
