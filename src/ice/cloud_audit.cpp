#include "ice/cloud_audit.h"

#include <algorithm>

#include "common/error.h"
#include "ice/protocol.h"
#include "ice/wire.h"

namespace ice::proto {

double sampling_detection_probability(std::size_t n, std::size_t corrupted,
                                      std::size_t c) {
  if (corrupted == 0 || c == 0) return 0.0;
  if (c + corrupted > n) return 1.0;  // pigeonhole: must hit a bad block
  // P[miss] = prod_{i=0}^{c-1} (n - corrupted - i) / (n - i).
  double miss = 1.0;
  for (std::size_t i = 0; i < c; ++i) {
    miss *= static_cast<double>(n - corrupted - i) /
            static_cast<double>(n - i);
  }
  return 1.0 - miss;
}

CloudAuditResult audit_cloud(UserClient& user, net::RpcChannel& csp_channel,
                             std::size_t sample_size, bn::Rng64& rng) {
  const std::size_t n = user.file_blocks();
  if (n == 0) throw ProtocolError("audit_cloud: no file");
  if (sample_size == 0 || sample_size > n) {
    throw ParamError("audit_cloud: need 1 <= sample_size <= n");
  }
  // Distinct random sample (partial Fisher-Yates over [0, n)).
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = 0; i < sample_size; ++i) {
    const auto offset = static_cast<std::size_t>(
        bn::random_below(rng, bn::BigInt(n - i)).to_u64());
    std::swap(order[i], order[i + offset]);
  }
  CloudAuditResult result;
  result.sampled.assign(order.begin(),
                        order.begin() +
                            static_cast<std::ptrdiff_t>(sample_size));
  std::sort(result.sampled.begin(), result.sampled.end());

  // Challenge the CSP (owner-driven: the user verifies itself against the
  // privately retrieved true tags, so the proof carries no blinding).
  const PublicKey& pk = user.pk();
  const ProtocolParams& params = user.params();  // the file's d and kappa
  ChallengeSecret secret;
  const Challenge chal = make_challenge(pk, params, rng, secret);
  const CspClient csp(csp_channel);
  csp.set_key(pk, params);  // idempotent; the CSP needs (N, g) and d
  const Proof proof = csp.challenge(chal.e, chal.g_s, result.sampled);
  validate_proof(pk, proof);  // reject malformed CSP responses up front
  const std::vector<bn::BigInt> tags = user.retrieve_tags(result.sampled);
  result.pass = verify_proof(pk, params, tags, chal, secret, proof);
  return result;
}

}  // namespace ice::proto
