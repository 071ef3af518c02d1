#include "ice/localize.h"

#include <algorithm>

#include "common/error.h"
#include "ice/protocol.h"

namespace ice::proto {

namespace {

/// User-side subset audit: the user is the data owner, so it may act as
/// its own verifier (it knows the true tags; no blinding needed).
/// Returns true iff the edge's proof over `subset` checks out.
bool subset_passes(const PublicKey& pk, const ProtocolParams& params,
                   const EdgeClient& edge,
                   const std::vector<std::size_t>& subset,
                   const std::vector<bn::BigInt>& subset_tags,
                   bn::Rng64& rng, std::size_t& proof_count) {
  ChallengeSecret secret;
  const Challenge chal = make_challenge(pk, params, rng, secret);
  ++proof_count;
  Proof proof;
  try {
    proof = edge.subset_proof(chal.e, chal.g_s, subset);
    // A malformed proof value (out of range / non-unit) fails the subset
    // the same way a missing block does.
    validate_proof(pk, proof);
  } catch (const ProtocolError&) {
    // Edge no longer holds some block of the subset: treat as failing.
    return false;
  }
  return verify_proof(pk, params, subset_tags, chal, secret, proof);
}

void bisect(const PublicKey& pk, const ProtocolParams& params,
            const EdgeClient& edge, const std::vector<std::size_t>& indices,
            const std::vector<bn::BigInt>& tags, bn::Rng64& rng,
            LocalizationResult& out) {
  if (indices.empty()) return;
  if (subset_passes(pk, params, edge, indices, tags, rng,
                    out.proofs_requested)) {
    return;  // whole subtree clean
  }
  if (indices.size() == 1) {
    out.corrupted.push_back(indices[0]);
    return;
  }
  const std::size_t half = indices.size() / 2;
  const std::vector<std::size_t> left(indices.begin(),
                                      indices.begin() +
                                          static_cast<std::ptrdiff_t>(half));
  const std::vector<std::size_t> right(
      indices.begin() + static_cast<std::ptrdiff_t>(half), indices.end());
  const std::vector<bn::BigInt> left_tags(
      tags.begin(), tags.begin() + static_cast<std::ptrdiff_t>(half));
  const std::vector<bn::BigInt> right_tags(
      tags.begin() + static_cast<std::ptrdiff_t>(half), tags.end());
  bisect(pk, params, edge, left, left_tags, rng, out);
  bisect(pk, params, edge, right, right_tags, rng, out);
}

}  // namespace

LocalizationResult localize_corruption(const PublicKey& pk,
                                       const ProtocolParams& params,
                                       const EdgeClient& edge,
                                       const std::vector<std::size_t>&
                                           indices,
                                       const std::vector<bn::BigInt>& tags,
                                       bn::Rng64& rng) {
  if (indices.size() != tags.size()) {
    throw ParamError("localize_corruption: indices/tags size mismatch");
  }
  LocalizationResult out;
  bisect(pk, params, edge, indices, tags, rng, out);
  std::sort(out.corrupted.begin(), out.corrupted.end());
  return out;
}

}  // namespace ice::proto
