// Arbitrary-precision signed integers.
//
// This is the arithmetic substrate for the ICE protocols: tags are
// `g^{b_i} mod N` where the exponent is an entire data block (up to
// megabits). Multiplication is schoolbook: at |N| <= 1024 bits a
// block-sized value only ever meets a coefficient or s~, so no product has
// two wide operands. Division is Knuth-D, exponentiation Montgomery
// (bignum/montgomery.h).
//
// Representation: sign-magnitude; magnitude is a little-endian sequence of
// 64-bit limbs with no trailing zero limb, stored in a small-buffer-optimized
// LimbBuf (inline up to kInlineLimbs, heap beyond — see limb_buf.h). Zero has
// an empty limb buffer and sign 0. All operations keep values normalized;
// a moved-from BigInt is a normalized zero.
#pragma once

#include <cstdint>
#include <compare>
#include <string>
#include <string_view>
#include <utility>
#include <initializer_list>
#include <vector>

#include "bignum/limb_buf.h"
#include "common/bytes.h"

namespace ice::bn {

class BigInt {
 public:
  using Limb = std::uint64_t;
  static constexpr int kLimbBits = 64;

  /// Zero.
  BigInt() = default;
  BigInt(std::int64_t v);   // NOLINT(google-explicit-constructor) numeric literal convenience
  BigInt(std::uint64_t v);  // NOLINT(google-explicit-constructor)
  BigInt(int v) : BigInt(static_cast<std::int64_t>(v)) {}  // NOLINT

  BigInt(const BigInt&) = default;
  BigInt& operator=(const BigInt&) = default;
  /// Moved-from value is a normalized zero (LimbBuf resets to empty inline).
  BigInt(BigInt&& o) noexcept
      : sign_(std::exchange(o.sign_, 0)), limbs_(std::move(o.limbs_)) {}
  BigInt& operator=(BigInt&& o) noexcept {
    sign_ = std::exchange(o.sign_, 0);
    limbs_ = std::move(o.limbs_);
    return *this;
  }

  /// Parses an optionally '-'-prefixed hex string (no "0x" prefix).
  static BigInt from_hex(std::string_view hex);
  /// Parses an optionally '-'-prefixed decimal string.
  static BigInt from_dec(std::string_view dec);
  /// Interprets big-endian bytes as a non-negative integer.
  static BigInt from_bytes_be(BytesView bytes);
  /// In-place from_bytes_be: reuses this value's limb capacity so hot loops
  /// (per-block TagGen exponents, pooled decode) don't allocate per call.
  void assign_bytes_be(BytesView bytes);

  /// Lowercase hex, '-'-prefixed if negative; "0" for zero.
  [[nodiscard]] std::string to_hex() const;
  /// Decimal string.
  [[nodiscard]] std::string to_dec() const;
  /// Minimal-length big-endian bytes of |*this| (empty for zero).
  [[nodiscard]] Bytes to_bytes_be() const;
  /// Big-endian bytes of |*this| left-padded/truncated check to `len` bytes.
  /// Throws ParamError if the value does not fit.
  [[nodiscard]] Bytes to_bytes_be(std::size_t len) const;

  [[nodiscard]] bool is_zero() const { return sign_ == 0; }
  [[nodiscard]] bool is_negative() const { return sign_ < 0; }
  [[nodiscard]] bool is_odd() const {
    return !limbs_.empty() && (limbs_[0] & 1u);
  }
  [[nodiscard]] bool is_even() const { return !is_odd(); }
  [[nodiscard]] int sign() const { return sign_; }

  /// Number of significant bits of the magnitude (0 for zero).
  [[nodiscard]] std::size_t bit_length() const;
  /// Value of magnitude bit `i` (false beyond bit_length()). Inline: the
  /// comb's column read (FixedBase::pow_into) calls it per tooth.
  [[nodiscard]] bool bit(std::size_t i) const {
    const std::size_t limb = i / 64;
    return limb < limbs_.size() && ((limbs_[limb] >> (i % 64)) & 1u);
  }

  /// Fits in int64/uint64? Conversion throws ParamError if not.
  [[nodiscard]] bool fits_u64() const;
  [[nodiscard]] std::uint64_t to_u64() const;

  [[nodiscard]] BigInt abs() const;
  [[nodiscard]] BigInt negated() const;

  BigInt& operator+=(const BigInt& rhs);
  BigInt& operator-=(const BigInt& rhs);
  BigInt& operator*=(const BigInt& rhs);
  /// Truncated division (C semantics: quotient rounds toward zero,
  /// remainder has the dividend's sign).
  BigInt& operator/=(const BigInt& rhs);
  BigInt& operator%=(const BigInt& rhs);
  BigInt& operator<<=(std::size_t bits);
  BigInt& operator>>=(std::size_t bits);

  friend BigInt operator+(BigInt a, const BigInt& b) { return a += b; }
  friend BigInt operator-(BigInt a, const BigInt& b) { return a -= b; }
  friend BigInt operator*(BigInt a, const BigInt& b) { return a *= b; }
  friend BigInt operator/(BigInt a, const BigInt& b) { return a /= b; }
  friend BigInt operator%(BigInt a, const BigInt& b) { return a %= b; }
  friend BigInt operator<<(BigInt a, std::size_t bits) { return a <<= bits; }
  friend BigInt operator>>(BigInt a, std::size_t bits) { return a >>= bits; }

  /// Quotient and remainder in one pass (truncated division).
  /// Throws ParamError on division by zero.
  static void divmod(const BigInt& num, const BigInt& den, BigInt& quot,
                     BigInt& rem);

  /// Canonical non-negative residue in [0, m). m must be positive.
  [[nodiscard]] BigInt mod(const BigInt& m) const;

  friend bool operator==(const BigInt& a, const BigInt& b) {
    return a.sign_ == b.sign_ && a.limbs_ == b.limbs_;
  }
  friend std::strong_ordering operator<=>(const BigInt& a, const BigInt& b);

  /// Raw limb access for inner loops (montgomery.h, serde).
  [[nodiscard]] const LimbBuf& limbs() const { return limbs_; }
  /// Constructs from raw little-endian limbs (normalizes). sign>=0 only.
  static BigInt from_limbs(LimbBuf limbs);
  static BigInt from_limbs(const Limb* limbs, std::size_t count);
  static BigInt from_limbs(const std::vector<Limb>& limbs) {
    return from_limbs(limbs.data(), limbs.size());
  }
  static BigInt from_limbs(std::initializer_list<Limb> limbs) {
    return from_limbs(limbs.begin(), limbs.size());
  }
  /// In-place from_limbs: reuses this value's limb capacity.
  void assign_limbs(const Limb* limbs, std::size_t count);

 private:
  friend class Montgomery;

  void normalize();
  /// Compares magnitudes only.
  static int cmp_mag(const BigInt& a, const BigInt& b);
  /// Magnitude ops; signs handled by callers.
  static LimbBuf add_mag(const LimbBuf& a, const LimbBuf& b);
  /// Requires |a| >= |b|.
  static LimbBuf sub_mag(const LimbBuf& a, const LimbBuf& b);
  static LimbBuf mul_mag(const LimbBuf& a, const LimbBuf& b);
  static LimbBuf mul_school(const LimbBuf& a, const LimbBuf& b);
  static void divmod_mag(const LimbBuf& num, const LimbBuf& den,
                         LimbBuf& quot, LimbBuf& rem);

  int sign_ = 0;     // -1, 0, +1
  LimbBuf limbs_;    // little-endian magnitude, normalized
};

/// Greatest common divisor of |a| and |b| (binary GCD); gcd(0,0) == 0.
BigInt gcd(const BigInt& a, const BigInt& b);

/// Modular inverse of a mod m (m > 1). Throws ParamError if gcd(a, m) != 1.
BigInt mod_inverse(const BigInt& a, const BigInt& m);

/// base^exp mod m for non-negative exp, m > 0. Uses Montgomery for odd m.
BigInt mod_pow(const BigInt& base, const BigInt& exp, const BigInt& m);

}  // namespace ice::bn
