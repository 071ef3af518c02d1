#include "crypto/prf.h"

#include <array>
#include <span>

#include "common/error.h"
#include "crypto/sha256.h"

namespace ice::crypto {

namespace {

ChaCha20::Key derive_key(const bn::BigInt& e) {
  static constexpr char kDomain[] = "ice-coefficient-prf-v1";
  Sha256 h;
  h.update(BytesView(reinterpret_cast<const std::uint8_t*>(kDomain),
                     sizeof(kDomain) - 1));
  // Key material: big-endian bytes of e. Challenge keys are short (kappa
  // bits), so a stack buffer covers them; absurdly long keys fall back to
  // one heap buffer at PRF construction (never in the coefficient loop).
  const std::size_t nbytes = (e.bit_length() + 7) / 8;
  if (nbytes <= 256) {
    std::array<std::uint8_t, 256> buf;
    for (std::size_t i = 0; i < nbytes; ++i) {
      const std::size_t bit = (nbytes - 1 - i) * 8;
      const auto limb = e.limbs()[bit / 64];
      buf[i] = static_cast<std::uint8_t>(limb >> (bit % 64));
    }
    h.update(BytesView(buf.data(), nbytes));
  } else {
    const Bytes material = e.to_bytes_be();
    h.update(material);
  }
  const auto digest = h.finalize();
  ChaCha20::Key key{};
  std::copy(digest.begin(), digest.end(), key.begin());
  return key;
}

}  // namespace

CoefficientPrf::CoefficientPrf(const bn::BigInt& key, std::size_t coeff_bits)
    : coeff_bits_(coeff_bits), stream_(derive_key(key), ChaCha20::Nonce{}) {
  if (coeff_bits == 0 || coeff_bits > kMaxCoeffBits) {
    throw ParamError("CoefficientPrf: coefficient width must be in [1, 256]");
  }
}

bn::BigInt CoefficientPrf::next() {
  bn::BigInt v;
  next_into(v);
  return v;
}

void CoefficientPrf::next_into(bn::BigInt& out) {
  const std::size_t nbytes = (coeff_bits_ + 7) / 8;  // <= 32
  std::array<std::uint8_t, 32> raw;
  for (;;) {
    stream_.keystream(std::span(raw.data(), nbytes));
    // Mask down to exactly coeff_bits_.
    const std::size_t excess = nbytes * 8 - coeff_bits_;
    raw[0] &= static_cast<std::uint8_t>(0xff >> excess);
    out.assign_bytes_be(BytesView(raw.data(), nbytes));
    if (!out.is_zero()) return;
  }
}

std::vector<bn::BigInt> CoefficientPrf::expand(const bn::BigInt& key,
                                               std::size_t coeff_bits,
                                               std::size_t count) {
  std::vector<bn::BigInt> out;
  expand_into(key, coeff_bits, count, out);
  return out;
}

void CoefficientPrf::expand_into(const bn::BigInt& key,
                                 std::size_t coeff_bits, std::size_t count,
                                 std::vector<bn::BigInt>& out) {
  CoefficientPrf prf(key, coeff_bits);
  out.resize(count);
  for (std::size_t i = 0; i < count; ++i) prf.next_into(out[i]);
}

}  // namespace ice::crypto
