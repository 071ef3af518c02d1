// The one audit equation (paper Sec. III-A): every audit in this code
// draws its challenge, computes its proof and checks it here.
//
// These are pure, transport-free functions; TpaService, EdgeService and
// CspService (ice/*_service.h) wire them to RPC. Roles:
//
//   TPA   — make_challenge, verify_proof (ICE-basic)
//   Edge  — make_proof (ICE-basic with the user's blinding s~; ICE-batch
//           at blinding 1, one proof per edge, checked by verify_batch)
//   Owner — make_challenge and verify_proof with the true tags, for the
//           bisection sub-audits (localize.h) and the cloud's sampled PDP
//           (cloud_audit.h); the edge or CSP answers with make_proof at
//           blinding 1
//   User  — repack_tags (+ TagGenerator::updated_tag for dirty blocks)
//
// Verification identity (Lemma 1):
//   P  = (g^s)^{s~ * sum_k a_k m_k}
//   P~ = (prod_k (T_k^{s~})^{a_k})^s   with T_k = g^{m_k}
// so an edge holding the exact blocks passes, and (Thm. 6, under KEA1-r +
// factoring) nothing else does. Without a blinding (s~ = 1) the repacked
// tags are the true tags.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "bignum/bigint.h"
#include "bignum/fixed_base.h"
#include "bignum/ladder.h"
#include "bignum/montgomery.h"
#include "bignum/random.h"
#include "common/bytes.h"
#include "ice/keys.h"
#include "ice/params.h"

namespace ice::proto {

/// c: the rungs of a challenge's power ladder, g_s included (DESIGN.md §8).
/// Also the cap the edge and the user hold a received ladder to.
inline constexpr std::size_t kLadderRungs = 32;

/// The largest block a key may declare at the TPA: the paper's 1 MiB.
inline constexpr std::size_t kMaxBlockBytes = std::size_t{1} << 20;

/// The widest challenge key kappa a key may declare: the coefficient PRF
/// hashes e to a 256-bit ChaCha20 key, so a longer e adds only bytes.
inline constexpr std::size_t kMaxChallengeKeyBits = 256;

/// What the TPA sends to the edge: chal = (e, g_s), plus the power ladder
/// H_i = g_s^{2^{i·L}} that lets the edge cut its squaring chain 32 ways.
/// An empty ladder is the paper's challenge (c = 1).
struct Challenge {
  bn::BigInt e;       // challenge key seeding the coefficient PRF
  bn::BigInt g_s;     // g^s mod N
  bn::Ladder ladder;  // H_1..H_{c-1}
};

/// TPA-private state behind a challenge (s never leaves the TPA).
struct ChallengeSecret {
  bn::BigInt s;
};

/// Edge's response.
struct Proof {
  bn::BigInt p;
};

/// L for a key: the kLadderRungs-rung width (bn::ladder_width) of the
/// longest proof exponent for params.block_bytes-byte blocks,
/// E_max = 8·block_bytes + coeff_bits + 64 + |N| (sum a_k m_k over up to
/// 2^64 blocks, times s~ < N).
[[nodiscard]] std::size_t rung_width(const PublicKey& pk,
                                     const ProtocolParams& params);

/// The TPA's per-key ladder (DESIGN.md §8): the rung bases
/// G_i = g^{2^{i·L}} for 1 <= i < kLadderRungs, each with its own Lim-Lee
/// comb (the context's comb cache holds only 8 entries). Construction only
/// derives L; the first raise() builds the rungs by squaring the public g,
/// once, whichever thread gets there first. Immutable and thread-safe
/// after that.
class RungBases {
 public:
  /// L from rung_width(pk, params).
  RungBases(const PublicKey& pk, const ProtocolParams& params);

  [[nodiscard]] std::size_t width() const { return width_; }

  /// The challenge ladder for secret s: H_i = G_i^s, one comb pow per rung,
  /// on the calling thread. Builds the rungs on the first call.
  [[nodiscard]] bn::Ladder raise(const bn::BigInt& s) const;

  /// Times the rungs were built: 0 before the first raise(), 1 after.
  [[nodiscard]] std::uint64_t builds() const {
    return builds_.load(std::memory_order_acquire);
  }

 private:
  void build() const;

  std::shared_ptr<const bn::Montgomery> mont_;  // the combs borrow it
  bn::BigInt g_;
  std::size_t width_;
  mutable std::once_flag once_;
  mutable std::vector<bn::FixedBase> combs_;  // one per G_i, i >= 1
  mutable std::atomic<std::uint64_t> builds_{0};
};

/// A challenge key e in [1, 2^kappa), kappa = params.challenge_key_bits:
/// nonzero so the PRF key is never degenerate. Throws ParamError unless
/// 1 <= kappa <= kMaxChallengeKeyBits.
bn::BigInt draw_challenge_key(const ProtocolParams& params, bn::Rng64& rng);

/// Verifier side: draws e (draw_challenge_key), then s in Z_N^*, returns
/// chal and the secret s. With `rungs`, the challenge also carries
/// H_i = G_i^s; the ladder draws nothing, so the RNG order is the same
/// either way.
Challenge make_challenge(const PublicKey& pk, const ProtocolParams& params,
                         bn::Rng64& rng, ChallengeSecret& secret_out,
                         const RungBases* rungs = nullptr);

/// Prover side: expands e into coefficients a_1..a_{|blocks|} of d bits and
/// computes P = (g_s)^{s_tilde * sum a_k m_k} mod N, through the
/// challenge's ladder (bn::ladder_pow, params.parallelism threads; an empty
/// ladder is c = 1). `s_tilde` is the blinding the user sent the edge over
/// the fast local link in ICE-basic, and 1 where the protocol has none
/// (ICE-batch, the owner's subset proofs, the CSP's sampled proof).
Proof make_proof(const PublicKey& pk, const ProtocolParams& params,
                 const std::vector<Bytes>& blocks, const Challenge& challenge,
                 const bn::BigInt& s_tilde);

/// User side: T~_k = T_k^{s_tilde} mod N for each retrieved tag.
/// `parallelism` follows the ProtocolParams::parallelism convention
/// (0 = hardware concurrency, 1 = single-threaded legacy path).
std::vector<bn::BigInt> repack_tags(const PublicKey& pk,
                                    const std::vector<bn::BigInt>& tags,
                                    const bn::BigInt& s_tilde,
                                    std::size_t parallelism = 0);

/// In-place repack_tags: resizes `out` to tags.size() and overwrites each
/// slot via Montgomery::pow_into. A warm `out` (same size, limbs within
/// their SBO/heap capacity) makes the steady-state call allocation-free.
void repack_tags_into(const PublicKey& pk, const std::vector<bn::BigInt>& tags,
                      const bn::BigInt& s_tilde, std::size_t parallelism,
                      std::vector<bn::BigInt>& out);

/// Verifier side: recomputes the coefficients from e, aggregates the
/// repacked tags (the true tags when the proof is unblinded), raises to s,
/// and compares with the proof.
/// Returns true iff the audit passes (a normal outcome, not an error).
bool verify_proof(const PublicKey& pk, const ProtocolParams& params,
                  const std::vector<bn::BigInt>& repacked_tags,
                  const Challenge& challenge, const ChallengeSecret& secret,
                  const Proof& proof);

/// Draws the user's blinding s_tilde uniformly from Z_N^* \ {1}.
bn::BigInt draw_blinding(const PublicKey& pk, bn::Rng64& rng);

/// Validates a just-received challenge ladder: at most kLadderRungs rungs;
/// with rungs, a width that is a positive multiple of 64 and no wider than
/// the rung_width of a kMaxBlockBytes block, and every rung in [1, N);
/// without rungs, width 0. Throws ParamError on violation.
void validate_ladder(const PublicKey& pk, const ProtocolParams& params,
                     const bn::Ladder& ladder);

/// Validates a just-deserialized proof value: an honest proof is an element
/// of Z_N^*, so anything outside [1, N) or sharing a factor with N is
/// rejected up front with a clear error instead of flowing into the
/// verification arithmetic. Throws ProtocolError on violation.
void validate_proof(const PublicKey& pk, const Proof& proof);

}  // namespace ice::proto
