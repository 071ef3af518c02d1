#include "ice/keys.h"

#include "bignum/fixed_base.h"
#include "bignum/montgomery.h"
#include "bignum/prime.h"
#include "common/error.h"

namespace ice::proto {

namespace {

/// Draws b with gcd(b - 1, N) = gcd(b + 1, N) = 1 and returns g = b^2 mod N.
bn::BigInt sample_generator(const bn::BigInt& n, bn::Rng64& rng) {
  const bn::Montgomery mont(n);
  for (;;) {
    const bn::BigInt b = bn::random_below(rng, n - bn::BigInt(3)) +
                         bn::BigInt(2);  // b in [2, n-2]
    if (bn::gcd(b - bn::BigInt(1), n) != bn::BigInt(1)) continue;
    if (bn::gcd(b + bn::BigInt(1), n) != bn::BigInt(1)) continue;
    return mont.mul(b, b);
  }
}

}  // namespace

KeyPair keygen(const ProtocolParams& params, bn::Rng64& rng) {
  if (params.modulus_bits < 16 || params.modulus_bits % 2 != 0) {
    throw ParamError("keygen: modulus_bits must be even and >= 16");
  }
  const std::size_t prime_bits = params.modulus_bits / 2;
  const bn::BigInt p = bn::random_safe_prime(rng, prime_bits);
  bn::BigInt q;
  do {
    q = bn::random_safe_prime(rng, prime_bits);
  } while (q == p);
  return keygen_from_primes(p, q, rng, /*validate_primality=*/false);
}

KeyPair keygen_from_primes(const bn::BigInt& p, const bn::BigInt& q,
                           bn::Rng64& rng, bool validate_primality) {
  if (p == q) throw ParamError("keygen: p and q must be distinct");
  if (p.bit_length() != q.bit_length()) {
    throw ParamError("keygen: p and q must have equal bit length");
  }
  if (validate_primality) {
    for (const bn::BigInt* prime : {&p, &q}) {
      if (!bn::is_probable_prime(*prime, rng, 20)) {
        throw ParamError("keygen: input is not prime");
      }
      const bn::BigInt cofactor = (*prime - bn::BigInt(1)) >> 1;
      if (!bn::is_probable_prime(cofactor, rng, 20)) {
        throw ParamError("keygen: input is not a safe prime");
      }
    }
  }
  KeyPair kp;
  kp.sk.p = p;
  kp.sk.q = q;
  kp.pk.n = p * q;
  kp.pk.g = sample_generator(kp.pk.n, rng);
  // Eager comb warm-up: every audit path exponentiates the long-lived g
  // through the shared context's Lim-Lee comb, which is otherwise built
  // lazily on the first challenge/tag — a first-audit latency cliff worth
  // whole table build. Keys are minted rarely; pay it here.
  (void)bn::Montgomery::shared(kp.pk.n)->fixed_base(kp.pk.g,
                                                    kp.pk.n.bit_length());
  return kp;
}

bool plausible_public_key(const PublicKey& pk) {
  if (pk.n <= bn::BigInt(15) || pk.n.is_even()) return false;
  if (pk.g <= bn::BigInt(1) || pk.g >= pk.n) return false;
  if (bn::gcd(pk.g, pk.n) != bn::BigInt(1)) return false;
  return true;
}

}  // namespace ice::proto
