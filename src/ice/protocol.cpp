#include "ice/protocol.h"

#include "bignum/multiexp.h"
#include "common/error.h"
#include "common/parallel.h"
#include "crypto/prf.h"

namespace ice::proto {

std::size_t rung_width(const PublicKey& pk, const ProtocolParams& params) {
  const std::size_t max_exp_bits = 8 * params.block_bytes +
                                   params.coeff_bits + 64 +
                                   pk.modulus_bits();
  return bn::ladder_width(max_exp_bits, kLadderRungs);
}

RungBases::RungBases(const PublicKey& pk, const ProtocolParams& params)
    : mont_(bn::Montgomery::shared(pk.n)),
      g_(pk.g),
      width_(rung_width(pk, params)) {}

void RungBases::build() const {
  // One chain of 31·L squarings of the public g: the TPA trusts nobody
  // for its rungs (DESIGN.md §6). Each rung then gets a comb sized for
  // the secret s < N.
  const bn::Ladder bases =
      bn::build_ladder(*mont_, g_, kLadderRungs, width_);
  const std::size_t exp_bits = mont_->modulus().bit_length();
  std::vector<bn::FixedBase> combs;  // installed whole: a throw retries
  combs.reserve(bases.rungs.size());
  for (const bn::BigInt& base : bases.rungs) {
    combs.emplace_back(*mont_, base, exp_bits);
  }
  combs_ = std::move(combs);
  builds_.fetch_add(1, std::memory_order_acq_rel);
}

bn::Ladder RungBases::raise(const bn::BigInt& s) const {
  std::call_once(once_, [this] { build(); });
  bn::Ladder ladder;
  ladder.width = width_;
  ladder.rungs.resize(combs_.size());
  // Serial: almost every raise runs in the refill worker, already on a pool
  // thread; only an inline miss pays the ~2.5 ms of comb pows (1024-bit N)
  // on the audit path (DESIGN.md §14).
  for (std::size_t i = 0; i < combs_.size(); ++i) {
    combs_[i].pow_into(ladder.rungs[i], s);
  }
  return ladder;
}

bn::BigInt draw_challenge_key(const ProtocolParams& params, bn::Rng64& rng) {
  // kappa = 0 would leave only e = 0, which the loop below never accepts.
  if (params.challenge_key_bits == 0 ||
      params.challenge_key_bits > kMaxChallengeKeyBits) {
    throw ParamError("challenge key width outside [1, 256] bits");
  }
  const bn::BigInt bound = bn::BigInt(1) << params.challenge_key_bits;
  bn::BigInt e;
  do {
    e = bn::random_below(rng, bound);
  } while (e.is_zero());
  return e;
}

Challenge make_challenge(const PublicKey& pk, const ProtocolParams& params,
                         bn::Rng64& rng, ChallengeSecret& secret_out,
                         const RungBases* rungs) {
  Challenge chal;
  chal.e = draw_challenge_key(params, rng);
  secret_out.s = bn::random_unit(rng, pk.n);
  // g is the long-lived base of every challenge: the shared context's
  // Lim-Lee comb turns g^s into a chain |N|/h the length of a generic pow.
  const auto mont = bn::Montgomery::shared(pk.n);
  chal.g_s = mont->fixed_base(pk.g, pk.n.bit_length())->pow(secret_out.s);
  if (rungs != nullptr) chal.ladder = rungs->raise(secret_out.s);
  return chal;
}

Proof make_proof(const PublicKey& pk, const ProtocolParams& params,
                 const std::vector<Bytes>& blocks, const Challenge& challenge,
                 const bn::BigInt& s_tilde) {
  if (blocks.empty()) throw ParamError("make_proof: no blocks to prove");
  if (s_tilde.is_zero()) throw ParamError("make_proof: zero blinding");
  // Aggregate over the integers: sum_k a_k * m_k, then one modexp. The cost
  // profile the paper reports in Fig. 6 (flat in |S_j|, linear in block
  // size) comes exactly from this shape.
  //
  // The coefficient stream is sequential, so it is expanded up front; the
  // a_k * m_k products are then chunked across the shared pool and the
  // partial sums added in chunk order. Integer addition is exact, so the
  // aggregate is bit-identical at every thread count. The closing modexp
  // runs through the challenge's ladder: 32 L-bit chunks of the exponent
  // share one squaring chain L long instead of |E| (DESIGN.md §8), and the
  // rungs split over the pool, each thread with its own chain.
  const std::vector<bn::BigInt> coeffs = crypto::CoefficientPrf::expand(
      challenge.e, params.coeff_bits, blocks.size());
  std::vector<bn::BigInt> partials(
      chunk_count(blocks.size(), resolve_parallelism(params.parallelism)));
  parallel_chunks(blocks.size(), params.parallelism,
                  [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                    bn::BigInt sum(0);
                    for (std::size_t k = begin; k < end; ++k) {
                      sum += coeffs[k] * bn::BigInt::from_bytes_be(blocks[k]);
                    }
                    partials[chunk] = std::move(sum);
                  });
  bn::BigInt aggregate(0);
  for (const auto& partial : partials) aggregate += partial;
  Proof proof;
  proof.p = bn::ladder_pow(*bn::Montgomery::shared(pk.n), challenge.g_s,
                           challenge.ladder, aggregate * s_tilde,
                           params.parallelism);
  return proof;
}

std::vector<bn::BigInt> repack_tags(const PublicKey& pk,
                                    const std::vector<bn::BigInt>& tags,
                                    const bn::BigInt& s_tilde,
                                    std::size_t parallelism) {
  std::vector<bn::BigInt> out;
  repack_tags_into(pk, tags, s_tilde, parallelism, out);
  return out;
}

void repack_tags_into(const PublicKey& pk, const std::vector<bn::BigInt>& tags,
                      const bn::BigInt& s_tilde, std::size_t parallelism,
                      std::vector<bn::BigInt>& out) {
  const auto mont = bn::Montgomery::shared(pk.n);
  out.resize(tags.size());
  // Independent modexps into disjoint slots; the Montgomery context (and
  // its precomputed R^2, -N^{-1}) is shared read-only across chunks, and
  // pow_into reuses each slot's limb storage plus arena scratch.
  parallel_chunks(tags.size(), parallelism,
                  [&](std::size_t, std::size_t begin, std::size_t end) {
                    for (std::size_t k = begin; k < end; ++k) {
                      mont->pow_into(out[k], tags[k], s_tilde);
                    }
                  });
}

bool verify_proof(const PublicKey& pk, const ProtocolParams& params,
                  const std::vector<bn::BigInt>& repacked_tags,
                  const Challenge& challenge, const ChallengeSecret& secret,
                  const Proof& proof) {
  if (repacked_tags.empty()) {
    throw ParamError("verify_proof: no tags to verify against");
  }
  // Coefficients land in a warm thread-local vector (expand_into reuses
  // vector and limb capacity), the aggregate and the expected value live in
  // SBO limb storage: the steady-state verify allocates nothing.
  static thread_local std::vector<bn::BigInt> coeffs;
  crypto::CoefficientPrf::expand_into(challenge.e, params.coeff_bits,
                                      repacked_tags.size(), coeffs);
  const auto mont = bn::Montgomery::shared(pk.n);
  // R = prod_k T~_k^{a_k} mod N: one simultaneous multi-exponentiation
  // sharing a single squaring chain across all |S_j| tags (multiexp.h),
  // chunked over the pool with partials combined in chunk order — the
  // canonical result is bit-identical to per-tag pow at every thread count.
  const bn::BigInt r =
      bn::multi_exp(*mont, repacked_tags, coeffs, params.parallelism);
  bn::BigInt expected;
  mont->pow_into(expected, r, secret.s);
  // One canonical reduction of the claimed proof (a no-op for wire-valid
  // proofs, which deserialization already range-checks).
  return expected == mont->reduce(proof.p);
}

bn::BigInt draw_blinding(const PublicKey& pk, bn::Rng64& rng) {
  for (;;) {
    bn::BigInt s = bn::random_unit(rng, pk.n);
    if (s != bn::BigInt(1)) return s;
  }
}

void validate_ladder(const PublicKey& pk, const ProtocolParams& params,
                     const bn::Ladder& ladder) {
  if (ladder.count() > kLadderRungs) {
    throw ParamError("ladder: more rungs than the cap");
  }
  if (ladder.rungs.empty()) {
    if (ladder.width != 0) throw ParamError("ladder: width without rungs");
    return;
  }
  ProtocolParams widest = params;
  widest.block_bytes = kMaxBlockBytes;
  if (ladder.width == 0 || ladder.width % bn::BigInt::kLimbBits != 0 ||
      ladder.width > rung_width(pk, widest)) {
    throw ParamError("ladder: implausible rung width");
  }
  for (const bn::BigInt& rung : ladder.rungs) {
    if (rung.sign() <= 0 || rung >= pk.n) {
      throw ParamError("ladder: rung out of range [1, N)");
    }
  }
}

void validate_proof(const PublicKey& pk, const Proof& proof) {
  if (proof.p.sign() <= 0 || proof.p >= pk.n) {
    throw ProtocolError("proof value out of range [1, N)");
  }
  if (bn::gcd(proof.p, pk.n) != bn::BigInt(1)) {
    throw ProtocolError("proof value is not a unit mod N");
  }
}

}  // namespace ice::proto
