// User-side PIR encoding and decoding (paper Alg. 1).
//
// Query: for each wanted index j_l draw z_l uniform in F_4^gamma and send
// phi(j_l) + t_tau * z_l to auditor tau (t_0 = 1, t_1 = x). Decode: the
// restriction g(t) = F_pi(phi(j_l) + t z_l) is a cubic in t; its value and
// directional derivative at the two evaluation points give four linear
// equations, and c_0 = g(0) = F_pi(phi(j_l)) is the wanted tag bit.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "bignum/bigint.h"
#include "bignum/random.h"
#include "gf/gf4.h"
#include "pir/embedding.h"
#include "pir/messages.h"

namespace ice::pir {

class PirClient {
 public:
  static constexpr std::size_t kNumServers = 2;

  /// `embedding` is non-owning and must outlive the client; `tag_bits` is K.
  PirClient(const Embedding& embedding, std::size_t tag_bits);

  struct EncodedQuery {
    PirQuery queries[kNumServers];  // queries[tau] goes to auditor tau
    QuerySecrets secrets;           // stays on the user device
  };

  /// Encodes queries for `indices` (each must be < n).
  [[nodiscard]] EncodedQuery encode(std::span<const std::size_t> indices,
                                    bn::Rng64& rng) const;

  /// Decodes the two auditors' responses into the retrieved tags, in the
  /// order of secrets.indices, word-parallel over their bit planes. Throws
  /// ProtocolError on a response of another shape than
  /// (|indices|, K, gamma) and on a decoded bit outside {0, 1}.
  [[nodiscard]] std::vector<bn::BigInt> decode(
      const QuerySecrets& secrets, const PirResponse& r0,
      const PirResponse& r1) const;

  [[nodiscard]] std::size_t tag_bits() const { return tag_bits_; }

 private:
  const Embedding* embedding_;
  std::size_t tag_bits_;
  // Row 0 of M^{-1} from Lemma 2: c_0 = sum_k row[k] u_k for
  // u = (g(1), g'(1), g(x), g'(x)).
  std::array<gf::GF4, 4> c0_row_;
};

}  // namespace ice::pir
