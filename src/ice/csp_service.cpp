#include "ice/csp_service.h"

#include <algorithm>
#include <mutex>

#include "common/error.h"
#include "ice/wire.h"

namespace ice::proto {

using net::ServiceError;
using net::Status;

CspService::CspService(mec::BlockStore store, std::size_t parallelism)
    : dispatch_("CspService"), store_(std::move(store)) {
  params_.parallelism = parallelism;
  const auto bind = [this](void (CspService::*fn)(net::Reader&,
                                                  net::Writer&)) {
    return [this, fn](net::Reader& r, net::Writer& w) { (this->*fn)(r, w); };
  };
  dispatch_.on(kCspFetch, "fetch", bind(&CspService::on_fetch));
  dispatch_.on(kCspWriteBack, "write_back", bind(&CspService::on_write_back));
  dispatch_.on(kCspSetKey, "set_key", bind(&CspService::on_set_key));
  dispatch_.on(kCspChallenge, "challenge", bind(&CspService::on_challenge));
}

Bytes CspService::handle(std::uint16_t method, BytesView request) {
  return dispatch_.handle(method, request);
}

void CspService::on_fetch(net::Reader& r, net::Writer& w) {
  const auto index = static_cast<std::size_t>(r.varint());
  std::shared_lock lock(mu_);
  w.bytes(store_.block(index));
}

void CspService::on_write_back(net::Reader& r, net::Writer&) {
  // Decode fully before touching the store so a malformed tail cannot
  // leave a half-applied batch behind.
  std::vector<std::pair<std::size_t, Bytes>> blocks;
  const std::uint64_t count = r.varint();
  // Each entry costs >= 2 encoded bytes, so remaining() bounds any honest
  // count; a hostile prefix cannot force a giant up-front allocation.
  blocks.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, r.remaining())));
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto index = static_cast<std::size_t>(r.varint());
    blocks.emplace_back(index, r.bytes());
  }
  r.expect_done();
  std::unique_lock lock(mu_);
  // Validate every entry before applying any: a bad entry must not leave
  // the entries before it applied, nor drop the ones after it (the edge
  // cleared their dirty flags when it flushed the batch).
  for (const auto& [index, data] : blocks) {
    if (index >= store_.size() || data.size() != store_.block_size()) {
      throw ServiceError(Status::kInvalidArgument,
                         "write-back entry has a bad index or block size");
    }
  }
  for (auto& [index, data] : blocks) {
    store_.update_block(index, std::move(data));
  }
}

void CspService::on_set_key(net::Reader& r, net::Writer&) {
  PublicKey pk;
  pk.n = r.bigint();
  pk.g = r.bigint();
  const auto coeff_bits = static_cast<std::size_t>(r.varint());
  const auto key_bits = static_cast<std::size_t>(r.varint());
  r.expect_done();  // before the key is installed
  if (!plausible_public_key(pk)) {
    throw ServiceError(Status::kInvalidArgument, "implausible public key");
  }
  std::unique_lock lock(mu_);
  params_.coeff_bits = coeff_bits;
  params_.challenge_key_bits = key_bits;
  params_.modulus_bits = pk.n.bit_length();
  pk_ = std::move(pk);
}

void CspService::on_challenge(net::Reader& r, net::Writer& w) {
  Challenge chal;  // no ladder on 104 (c = 1)
  chal.e = r.bigint();
  chal.g_s = r.bigint();
  const std::vector<std::size_t> sample = read_index_list(r);
  r.expect_done();  // before the proof over the sampled blocks
  require_distinct(sample);  // so at most the file is copied
  PublicKey pk;
  ProtocolParams params;
  std::vector<Bytes> blocks;
  {
    std::shared_lock lock(mu_);
    if (!pk_) {
      throw ServiceError(Status::kFailedPrecondition, "set key first");
    }
    pk = *pk_;
    params = params_;
    blocks.reserve(sample.size());
    for (std::size_t index : sample) {
      blocks.push_back(store_.block(index));
    }
  }
  // Heavy proof computation runs with no lock held; the owner verifies
  // against its true tags, so there is no blinding.
  const Proof proof = make_proof(pk, params, blocks, chal, bn::BigInt(1));
  w.bigint(proof.p);
}

Bytes CspClient::fetch(std::size_t index) const {
  net::Writer w;
  w.varint(index);
  const net::PooledBytes raw = net::call_pooled(*channel_, kCspFetch, std::move(w));
  net::Reader r = unwrap(raw);
  return r.bytes();
}

void CspClient::write_back(
    const std::vector<std::pair<std::size_t, Bytes>>& blocks) const {
  net::Writer w;
  w.varint(blocks.size());
  for (const auto& [index, data] : blocks) {
    w.varint(index);
    w.bytes(data);
  }
  const net::PooledBytes raw = net::call_pooled(*channel_, kCspWriteBack, std::move(w));
  unwrap(raw);
}

void CspClient::set_key(const PublicKey& pk,
                        const ProtocolParams& params) const {
  net::Writer w;
  w.bigint(pk.n);
  w.bigint(pk.g);
  w.varint(params.coeff_bits);
  w.varint(params.challenge_key_bits);
  const net::PooledBytes raw = net::call_pooled(*channel_, kCspSetKey, std::move(w));
  unwrap(raw);
}

Proof CspClient::challenge(const bn::BigInt& e, const bn::BigInt& g_s,
                           const std::vector<std::size_t>& sample) const {
  net::Writer w;
  w.bigint(e);
  w.bigint(g_s);
  write_index_list(w, sample);
  const net::PooledBytes raw = net::call_pooled(*channel_, kCspChallenge, std::move(w));
  net::Reader r = unwrap(raw);
  Proof proof;
  proof.p = r.bigint();
  return proof;
}

}  // namespace ice::proto
