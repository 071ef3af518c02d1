#include "pir/client.h"

#include <algorithm>

#include "common/error.h"
#include "common/scratch.h"
#include "common/simd.h"
#include "gf/gf4_matrix.h"

namespace ice::pir {

namespace {

using gf::GF4;
using gf::GF4Matrix;
using gf::GF4Vector;

// Interpolation matrix M mapping (c0, c1, c2, c3) to
// (g(1), g'(1), g(x), g'(x)) over GF(4), characteristic 2:
//   g(t)  = c0 + c1 t + c2 t^2 + c3 t^3
//   g'(t) = c1 + c3 t^2            (2 c2 t vanishes, 3 c3 = c3)
// With x^2 = x + 1 (= 3) and x^3 = 1.
GF4Matrix decode_matrix() {
  return GF4Matrix({
      {1, 1, 1, 1},
      {0, 1, 0, 1},
      {1, 2, 3, 1},
      {0, 1, 0, 3},
  });
}

}  // namespace

PirClient::PirClient(const Embedding& embedding, std::size_t tag_bits)
    : embedding_(&embedding), tag_bits_(tag_bits) {
  if (tag_bits == 0) throw ParamError("PirClient: tag_bits must be >= 1");
  const GF4Matrix inv = decode_matrix().inverse();
  for (std::size_t k = 0; k < c0_row_.size(); ++k) c0_row_[k] = inv.at(0, k);
}

PirClient::EncodedQuery PirClient::encode(
    std::span<const std::size_t> indices, bn::Rng64& rng) const {
  const std::size_t gamma = embedding_->gamma();
  EncodedQuery out;
  out.secrets.indices.assign(indices.begin(), indices.end());
  out.secrets.z.reserve(indices.size());
  const GF4 t_tau[kNumServers] = {GF4::one(), GF4::x()};
  // z_l uniform in F_4^gamma: 2 random bits per coordinate, drawn from a
  // bit pool that persists across coordinates AND indices. A refill keeps
  // any leftover bit instead of discarding it (low component first), so
  // encode consumes exactly ceil(2 * gamma * count / 64) RNG words — pinned
  // by the determinism test in tests/pir/client_codec_test.cpp.
  std::uint64_t pool = 0;
  std::size_t pool_bits = 0;
  const auto next_gf4 = [&]() -> GF4 {
    std::uint8_t v;
    if (pool_bits == 0) {
      pool = rng.next_u64();
      pool_bits = 64;
    }
    if (pool_bits == 1) {
      const auto leftover = static_cast<std::uint8_t>(pool & 0x1);
      pool = rng.next_u64();
      v = static_cast<std::uint8_t>(leftover | ((pool & 0x1) << 1));
      pool >>= 1;
      pool_bits = 63;
    } else {
      v = static_cast<std::uint8_t>(pool & 0x3);
      pool >>= 2;
      pool_bits -= 2;
    }
    return GF4(v);
  };
  for (std::size_t idx : indices) {
    const GF4Vector phi = embedding_->point(idx);  // range-checks idx
    GF4Vector z(gamma);
    for (auto& coord : z) coord = next_gf4();
    for (std::size_t tau = 0; tau < kNumServers; ++tau) {
      out.queries[tau].points.push_back(gf::axpy(phi, t_tau[tau], z));
    }
    out.secrets.z.push_back(std::move(z));
  }
  return out;
}

std::vector<bn::BigInt> PirClient::decode(const QuerySecrets& secrets,
                                          const PirResponse& r0,
                                          const PirResponse& r1) const {
  const std::size_t count = secrets.indices.size();
  if (secrets.z.size() != count) {
    throw ProtocolError("PirClient::decode: secret count mismatch");
  }
  const PirShape want{count, tag_bits_, embedding_->gamma()};
  for (const PirResponse* r : {&r0, &r1}) {
    if (r->shape.points != count) {
      throw ProtocolError("PirClient::decode: response count mismatch");
    }
    if (r->shape != want) {
      throw ProtocolError("PirClient::decode: response shape mismatch");
    }
    if (r->planes.size() != count * want.stride()) {
      throw ProtocolError("PirClient::decode: plane words do not match the "
                          "response shape");
    }
  }
  const std::size_t w = want.words();
  const std::size_t pair = 2 * w;
  const std::uint64_t last_word =
      tag_bits_ % 64 == 0 ? ~std::uint64_t{0}
                          : (std::uint64_t{1} << (tag_bits_ % 64)) - 1;
  // Per point, in one lease: the two servers' dot planes, where bit pi of
  // d = (d_lo, d_hi) holds <grad F_pi, z> at that server's point, and the
  // decoded c_0 planes.
  auto lease = ScratchArena::local().take(3 * pair);
  std::uint64_t* const d0 = lease.data();
  std::uint64_t* const d1 = d0 + pair;
  std::uint64_t* const c0 = d1 + pair;
  std::vector<bn::BigInt> tags;
  tags.reserve(count);
  for (std::size_t l = 0; l < count; ++l) {
    const GF4Vector& z = secrets.z[l];
    if (z.size() != want.gamma) {
      throw ProtocolError("PirClient::decode: secret dim mismatch");
    }
    const std::uint64_t* const e0 = r0.point(l);
    const std::uint64_t* const e1 = r1.point(l);
    // Fold z into each server's gradient planes, 64 bitplanes per word.
    std::fill(d0, d0 + 2 * pair, 0);
    for (std::size_t j = 0; j < want.gamma; ++j) {
      const std::uint64_t* const g0 = e0 + pair * (1 + j);
      const std::uint64_t* const g1 = e1 + pair * (1 + j);
      simd::add_scaled(d0, w, g0, g0 + w, w, z[j].value());
      simd::add_scaled(d1, w, g1, g1 + w, w, z[j].value());
    }
    // c_0 = row . (F(1), <grad F(1), z>, F(x), <grad F(x), z>), solved for
    // all K bitplanes at once.
    std::fill(c0, c0 + pair, 0);
    const std::uint64_t* const u[4] = {e0, d0, e1, d1};
    for (std::size_t k = 0; k < c0_row_.size(); ++k) {
      simd::add_scaled(c0, w, u[k], u[k] + w, w, c0_row_[k].value());
    }
    c0[w - 1] &= last_word;
    c0[2 * w - 1] &= last_word;
    for (std::size_t i = 0; i < w; ++i) {
      if (c0[w + i] != 0) {
        throw ProtocolError("PirClient::decode: non-boolean decoded bit");
      }
    }
    tags.push_back(bn::BigInt::from_limbs(c0, w));
  }
  return tags;
}

}  // namespace ice::pir
