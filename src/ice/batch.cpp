#include "ice/batch.h"

#include <algorithm>
#include <map>

#include "bignum/multiexp.h"
#include "common/error.h"
#include "common/parallel.h"
#include "crypto/prf.h"

namespace ice::proto {

std::vector<bn::BigInt> draw_challenge_keys(const ProtocolParams& params,
                                            std::size_t edges,
                                            bn::Rng64& rng) {
  if (edges == 0) throw ParamError("draw_challenge_keys: no edges");
  std::vector<bn::BigInt> keys;
  keys.reserve(edges);
  for (std::size_t j = 0; j < edges; ++j) {
    keys.push_back(draw_challenge_key(params, rng));
  }
  return keys;
}

std::vector<std::size_t> union_of_sets(
    const std::vector<std::vector<std::size_t>>& edge_sets) {
  std::vector<std::size_t> u;
  for (const auto& s : edge_sets) u.insert(u.end(), s.begin(), s.end());
  std::sort(u.begin(), u.end());
  u.erase(std::unique(u.begin(), u.end()), u.end());
  return u;
}

std::vector<bn::BigInt> batch_repack(
    const PublicKey& pk, const ProtocolParams& params,
    const std::vector<std::size_t>& union_indices,
    const std::vector<bn::BigInt>& union_tags,
    const std::vector<std::vector<std::size_t>>& edge_sets,
    const std::vector<bn::BigInt>& challenge_keys) {
  if (union_indices.size() != union_tags.size()) {
    throw ParamError("batch_repack: indices/tags size mismatch");
  }
  if (edge_sets.size() != challenge_keys.size()) {
    throw ParamError("batch_repack: edge_sets/keys size mismatch");
  }
  // Aggregated exponent per union block: sum over edges holding it of that
  // edge's coefficient at the block's position within S_j.
  std::map<std::size_t, bn::BigInt> aggregate;
  for (std::size_t j = 0; j < edge_sets.size(); ++j) {
    crypto::CoefficientPrf prf(challenge_keys[j], params.coeff_bits);
    for (std::size_t k : edge_sets[j]) {
      const bn::BigInt a = prf.next();
      auto [it, inserted] = aggregate.try_emplace(k, a);
      if (!inserted) it->second += a;
    }
  }
  const auto mont = bn::Montgomery::shared(pk.n);
  // Resolve each union index's aggregated exponent up front (and validate),
  // then fan the independent modexps out into disjoint output slots.
  std::vector<const bn::BigInt*> exponents(union_indices.size());
  for (std::size_t i = 0; i < union_indices.size(); ++i) {
    const auto it = aggregate.find(union_indices[i]);
    if (it == aggregate.end()) {
      throw ParamError("batch_repack: union index not covered by any edge");
    }
    exponents[i] = &it->second;
  }
  if (aggregate.size() != union_indices.size()) {
    throw ParamError("batch_repack: edge sets mention non-union indices");
  }
  std::vector<bn::BigInt> repacked(union_indices.size());
  parallel_chunks(union_indices.size(), params.parallelism,
                  [&](std::size_t, std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i) {
                      repacked[i] = mont->pow(union_tags[i], *exponents[i]);
                    }
                  });
  return repacked;
}

bool verify_batch(const PublicKey& pk,
                  const std::vector<bn::BigInt>& repacked_tags,
                  const std::vector<Proof>& proofs,
                  const ChallengeSecret& secret,
                  std::size_t parallelism) {
  if (repacked_tags.empty() || proofs.empty()) {
    throw ParamError("verify_batch: empty batch");
  }
  const auto mont = bn::Montgomery::shared(pk.n);
  // Exponents here are all 1, so windowed multi-exp cannot help: both
  // products run as straight Montgomery-domain chains (one conversion per
  // value, one mont_mul per step) via mont_product, which keeps the
  // chunk-ordered parallel combine bit-identical to the serial product.
  std::vector<bn::BigInt> proof_values;
  proof_values.reserve(proofs.size());
  for (const auto& proof : proofs) proof_values.push_back(proof.p);
  const bn::BigInt r = bn::mont_product(*mont, repacked_tags, parallelism);
  const bn::BigInt expected = mont->pow(r, secret.s);
  const bn::BigInt combined = bn::mont_product(*mont, proof_values, 1);
  return expected == combined;
}

}  // namespace ice::proto
