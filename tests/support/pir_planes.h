// Element views of plane-native PIR responses. The serving engine answers
// in GF(4) bit planes (pir::PirResponse); the per-point reference
// evaluators answer one element per byte (pir::PirSingleResponse). The
// differential tests and benches compare the two element by element
// through these helpers, and build plane responses from reference answers
// to decode them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "pir/messages.h"

namespace ice::testing {

/// Element pi of slot s of point p: slot 0 is F_pi(q), slot 1 + j is
/// dF_pi/dx_j.
inline gf::GF4 element(const pir::PirResponse& r, std::size_t p,
                       std::size_t slot, std::size_t pi) {
  const std::size_t w = r.shape.words();
  const std::uint64_t* const lo = r.point(p) + 2 * w * slot;
  const auto bit = [&](const std::uint64_t* plane) {
    return static_cast<std::uint8_t>((plane[pi / 64] >> (pi % 64)) & 1u);
  };
  return gf::GF4(static_cast<std::uint8_t>(bit(lo) | bit(lo + w) << 1));
}

/// Point p of a plane response in the reference evaluators' element form.
inline pir::PirSingleResponse point_elements(const pir::PirResponse& r,
                                             std::size_t p) {
  const std::size_t k = r.shape.tag_bits;
  pir::PirSingleResponse out;
  out.values.resize(k);
  out.gradients.assign(r.shape.gamma, gf::GF4Vector(k));
  for (std::size_t pi = 0; pi < k; ++pi) {
    out.values[pi] = element(r, p, 0, pi);
    for (std::size_t j = 0; j < r.shape.gamma; ++j) {
      out.gradients[j][pi] = element(r, p, 1 + j, pi);
    }
  }
  return out;
}

/// Every point of a plane response in element form.
inline std::vector<pir::PirSingleResponse> elements(
    const pir::PirResponse& r) {
  std::vector<pir::PirSingleResponse> out;
  for (std::size_t p = 0; p < r.shape.points; ++p) {
    out.push_back(point_elements(r, p));
  }
  return out;
}

/// A response of the given shape with uniform plane bits below K (bits K
/// and above stay zero, as in every honest response).
inline pir::PirResponse random_response(SplitMix64& gen,
                                        const pir::PirShape& shape) {
  pir::PirResponse r;
  r.shape = shape;
  r.planes.resize(shape.points * shape.stride());
  for (auto& word : r.planes) word = gen();
  const std::size_t w = shape.words();
  if (shape.tag_bits % 64 != 0) {
    const std::uint64_t keep = (std::uint64_t{1} << (shape.tag_bits % 64)) - 1;
    for (std::size_t i = w - 1; i < r.planes.size(); i += w) {
      r.planes[i] &= keep;
    }
  }
  return r;
}

/// The inverse of elements(): element-form points, each K values and gamma
/// gradient rows of K elements, as a plane response.
inline pir::PirResponse from_elements(
    const std::vector<pir::PirSingleResponse>& points, std::size_t tag_bits,
    std::size_t gamma) {
  pir::PirResponse r;
  r.shape = {points.size(), tag_bits, gamma};
  r.planes.assign(points.size() * r.shape.stride(), 0);
  const std::size_t w = r.shape.words();
  const auto put = [&](std::size_t p, std::size_t slot, std::size_t pi,
                       gf::GF4 e) {
    std::uint64_t* const lo =
        r.planes.data() + p * r.shape.stride() + 2 * w * slot;
    lo[pi / 64] |= std::uint64_t{e.value() & 1u} << (pi % 64);
    lo[w + pi / 64] |= std::uint64_t{(e.value() >> 1) & 1u} << (pi % 64);
  };
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (std::size_t pi = 0; pi < tag_bits; ++pi) {
      put(p, 0, pi, points[p].values.at(pi));
      for (std::size_t j = 0; j < gamma; ++j) {
        put(p, 1 + j, pi, points[p].gradients.at(j).at(pi));
      }
    }
  }
  return r;
}

}  // namespace ice::testing
