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

/// Response entry for one queried point: F_pi(q) for every bitplane pi and
/// the gradient (partial derivatives) of each F_pi at q. Gradients are
/// coordinate-major — gradients[j][pi] is dF_pi/dx_j — matching the
/// server's accumulator planes (contiguous unpack) and letting the client
/// fold z_j into all K bitplanes word-parallel during decode.
struct PirSingleResponse {
  gf::GF4Vector values;                   // length K
  std::vector<gf::GF4Vector> gradients;   // gamma entries, each length K
};

/// Full response from one TPA (paper Alg. 1, "Auditor tau: tag response").
struct PirResponse {
  std::vector<PirSingleResponse> entries;  // one per queried point
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

}  // namespace ice::pir
