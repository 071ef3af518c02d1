#include "ice/tpa_service.h"

#include <string>

#include "bignum/fixed_base.h"
#include "bignum/montgomery.h"
#include "common/error.h"
#include "crypto/prf.h"
#include "ice/edge_service.h"
#include "ice/wire.h"

namespace ice::proto {

using net::ServiceError;
using net::Status;

namespace {

// A verdict needs the challenge and the tags under the key held now: a
// challenge or tags of a rotated key would fail an honest edge.
void require_generation(std::uint64_t challenged, std::uint64_t tags,
                        std::uint64_t current) {
  if (challenged != current) {
    throw ServiceError(Status::kFailedPrecondition,
                       "challenged under a replaced key");
  }
  if (tags != current) {
    throw ServiceError(Status::kFailedPrecondition,
                       "tags retrieved under another key");
  }
}

}  // namespace

TpaService::TpaService(std::size_t parallelism)
    : dispatch_("TpaService"),
      parallelism_(parallelism),
      worker_(pool_, rng_) {
  const auto bind = [this](void (TpaService::*fn)(net::Reader&,
                                                  net::Writer&)) {
    return [this, fn](net::Reader& r, net::Writer& w) { (this->*fn)(r, w); };
  };
  dispatch_.on(kTpaSetKey, "set_key", bind(&TpaService::on_set_key));
  dispatch_.on(kTpaStoreTags, "store_tags", bind(&TpaService::on_store_tags));
  dispatch_.on(kTpaStartAudit, "start_audit",
               bind(&TpaService::on_start_audit));
  dispatch_.on(kTpaSubmitRepacked, "submit_repacked",
               bind(&TpaService::on_submit_repacked));
  dispatch_.on(kTpaBatchBegin, "batch_begin",
               bind(&TpaService::on_batch_begin));
  dispatch_.on(kTpaSubmitProof, "submit_proof",
               bind(&TpaService::on_submit_proof));
  dispatch_.on(kTpaBatchFinish, "batch_finish",
               bind(&TpaService::on_batch_finish));
  dispatch_.on(kTpaUpdateTag, "update_tag",
               bind(&TpaService::on_update_tag));
  dispatch_.on(kTpaTagInfo, "tag_info", bind(&TpaService::on_tag_info));
  dispatch_.on(kTpaShardQuery, "tag_query", bind(&TpaService::on_tag_query));
  dispatch_.on(kTpaCloseEpoch, "close_epoch",
               bind(&TpaService::on_close_epoch));
}

Bytes TpaService::handle(std::uint16_t method, BytesView request) {
  return dispatch_.handle(method, request);
}

void TpaService::register_edge(std::uint32_t edge_id,
                               net::RpcChannel& channel) {
  std::unique_lock lock(edges_mu_);
  edges_[edge_id] = &channel;
}

bool TpaService::has_tags() const {
  std::shared_lock lock(store_mu_);
  return store_ != nullptr;
}

StoreEpochStats TpaService::epoch_stats() const {
  std::shared_lock lock(store_mu_);
  if (store_ == nullptr) return {};
  return store_->epoch_stats();
}

ChallengePool::MintSpec TpaService::key_snapshot() const {
  auto key = pool_.mint_spec();
  if (!key) {
    throw ServiceError(Status::kFailedPrecondition, "set key first");
  }
  return std::move(*key);
}

ChallengeBundle TpaService::next_challenge(const ChallengePool::MintSpec& key) {
  ChallengeBundle bundle;
  if (!pool_.try_acquire(key.generation, bundle)) {
    bundle = make_bundle(key.pk, key.params, rng_, key.rungs.get());
    bundle.generation = key.generation;
  }
  // The first challenge under a key starts the refills: the helper replica
  // receives set_key but never challenges, so it never mints and never
  // builds rungs.
  worker_.kick();
  return bundle;
}

void TpaService::on_set_key(net::Reader& r, net::Writer&) {
  PublicKey pk;
  pk.n = r.bigint();
  pk.g = r.bigint();
  const auto coeff_bits = static_cast<std::size_t>(r.varint());
  const auto key_bits = static_cast<std::size_t>(r.varint());
  const std::uint64_t block_bytes = r.varint();
  r.expect_done();  // before the store wipe below, not after it
  if (!plausible_public_key(pk)) {
    throw ServiceError(Status::kInvalidArgument, "implausible public key");
  }
  // The block size and the coefficient width set the rung width, and so
  // the length of the squaring chain the first challenge runs: refuse what
  // no honest file declares.
  if (block_bytes == 0 || block_bytes > kMaxBlockBytes) {
    throw ServiceError(Status::kInvalidArgument,
                       "block size outside (0, 1 MiB]");
  }
  if (coeff_bits == 0 || coeff_bits > crypto::CoefficientPrf::kMaxCoeffBits) {
    throw ServiceError(Status::kInvalidArgument,
                       "coefficient width outside the PRF's range");
  }
  // Every challenge draws e below 2^kappa and retries a zero: kappa = 0
  // would spin the challenging thread for good.
  if (key_bits == 0 || key_bits > kMaxChallengeKeyBits) {
    throw ServiceError(Status::kInvalidArgument,
                       "challenge key width outside [1, 256] bits");
  }
  ProtocolParams params;
  params.coeff_bits = coeff_bits;
  params.challenge_key_bits = key_bits;
  params.modulus_bits = pk.n.bit_length();
  params.block_bytes = static_cast<std::size_t>(block_bytes);
  params.parallelism = parallelism_;
  // Key, ladder holder and a new generation in one hold: a challenge read
  // under the old key keeps the old generation, and submit_repacked and
  // batch_finish refuse it. The fresh holder builds nothing until a
  // challenge asks (the helper replica never does).
  pool_.rekey(pk, params, std::make_shared<const RungBases>(pk, params));
  {
    std::unique_lock lock(store_mu_);
    store_.reset();  // tags from an old key are meaningless now
  }
  // So are sessions challenged under the old key.
  sessions_.clear();
  batches_.clear();
  // Eager comb warm-up: with a fresh modulus, the first challenge would
  // otherwise pay the whole Lim-Lee table build for g on its critical path
  // (tests/bignum/fixed_base_test.cpp pins the cliff). Keys change rarely;
  // pay it here, off every audit path.
  (void)bn::Montgomery::shared(pk.n)->fixed_base(pk.g, pk.n.bit_length());
}

void TpaService::on_store_tags(net::Reader& r, net::Writer&) {
  std::vector<bn::BigInt> tags = read_bigint_list(r);
  r.expect_done();
  if (tags.empty()) {
    throw ServiceError(Status::kInvalidArgument, "no tags");
  }
  const ChallengePool::MintSpec key = key_snapshot();
  // Build the store with no lock held (this is the expensive part), then
  // install it. The fused engine streams the rows, so no bitplane lists
  // are built here.
  auto store = std::make_unique<TagStore>(key.params, tags, key.generation);
  std::unique_lock lock(store_mu_);
  // set_key bumps the generation before it drops the store, so a key
  // rotated during the build is seen here: these tags belong to the old
  // key and must not stand under the new one.
  if (pool_.generation() != key.generation) {
    throw ServiceError(Status::kFailedPrecondition,
                       "key replaced while the tags were stored");
  }
  // One upload per key: a store's rows change only by staged updates and
  // closes, so a plan never meets rows of another upload under its pair.
  if (store_ != nullptr) {
    throw ServiceError(Status::kFailedPrecondition,
                       "tags already stored; set_key first");
  }
  store_ = std::move(store);
}

void TpaService::on_start_audit(net::Reader& r, net::Writer&) {
  const auto edge_id = static_cast<std::uint32_t>(r.varint());
  // Session id is a user-chosen nonce: the user already shared the
  // blinding s~ with the edge under this id, and the edge looks it up
  // when our challenge arrives.
  const std::uint64_t id = r.u64();
  r.expect_done();
  const ChallengePool::MintSpec key = key_snapshot();
  net::RpcChannel* edge_channel = nullptr;
  {
    std::shared_lock lock(edges_mu_);
    const auto it = edges_.find(edge_id);
    if (it == edges_.end()) {
      throw ServiceError(Status::kNotFound, "unknown edge");
    }
    edge_channel = it->second;
  }

  ChallengeBundle bundle = next_challenge(key);
  AuditSession session;
  session.edge_id = edge_id;
  session.generation = bundle.generation;
  session.challenge = std::move(bundle.challenge);
  session.secret = std::move(bundle.secret);
  const Challenge challenge = session.challenge;
  // Park the session in kChallenging state BEFORE the round trip so a
  // concurrent start_audit on the same nonce is refused, then challenge
  // the edge with no lock of ours held.
  sessions_.insert(id, std::move(session));
  Proof proof;
  try {
    proof = EdgeClient(*edge_channel).challenge(id, challenge);
    // Reject malformed proof values at the wire boundary: an honest edge
    // always returns an element of Z_N^*, so anything else is a protocol
    // violation, not a failed audit.
    validate_proof(key.pk, proof);
  } catch (...) {
    sessions_.erase(id);
    throw;
  }
  sessions_.with(id, [&](AuditSession& s) {
    s.proof = std::move(proof);
    s.state = AuditSession::State::kAwaitingTags;
  });
}

void TpaService::on_submit_repacked(net::Reader& r, net::Writer& w) {
  const std::uint64_t id = r.u64();
  const std::uint64_t tags_generation = r.varint();
  const std::vector<bn::BigInt> tags = read_bigint_list(r);
  r.expect_done();
  const ChallengePool::MintSpec key = key_snapshot();
  const AuditSession session = sessions_.take(id, [](const AuditSession& s) {
    return s.state == AuditSession::State::kAwaitingTags;
  });
  require_generation(session.generation, tags_generation, key.generation);
  const bool pass = verify_proof(key.pk, key.params, tags, session.challenge,
                                 session.secret, session.proof);
  {
    std::lock_guard lock(log_mu_);
    log_.append(id, session.edge_id, /*batch=*/false, pass);
  }
  w.u8(pass ? 1 : 0);
}

void TpaService::on_batch_begin(net::Reader& r, net::Writer& w) {
  // Batch id is a user-chosen nonce, mirroring start_audit: the user
  // quotes it to every edge it challenges, and each edge quotes it back
  // when submitting its proof.
  const std::uint64_t id = r.u64();
  const auto num_edges = static_cast<std::size_t>(r.varint());
  r.expect_done();  // before the batch id is taken
  if (num_edges == 0) {
    throw ServiceError(Status::kInvalidArgument, "empty batch");
  }
  // ICE-batch only needs (s, g^s, ladder) from the TPA — the per-edge
  // challenge keys are the user's (paper §V) — so the bundle's e goes
  // unused.
  ChallengeBundle bundle = next_challenge(key_snapshot());
  Challenge base;
  base.g_s = std::move(bundle.challenge.g_s);
  base.ladder = std::move(bundle.challenge.ladder);
  BatchSession batch;
  batch.generation = bundle.generation;
  batch.secret = std::move(bundle.secret);
  batch.expected_proofs = num_edges;
  batches_.insert(id, std::move(batch));
  w.bigint(base.g_s);
  write_ladder(w, base.ladder);
}

void TpaService::on_submit_proof(net::Reader& r, net::Writer&) {
  const std::uint64_t id = r.u64();
  Proof proof;
  proof.p = r.bigint();
  r.expect_done();
  validate_proof(key_snapshot().pk, proof);  // range/unit check at decode
  batches_.with(id, [&](BatchSession& batch) {
    if (batch.complete()) {
      throw ServiceError(Status::kFailedPrecondition, "batch already full");
    }
    batch.proofs.push_back(std::move(proof));
  });
}

void TpaService::on_batch_finish(net::Reader& r, net::Writer& w) {
  const std::uint64_t id = r.u64();
  const std::uint64_t tags_generation = r.varint();
  const std::vector<bn::BigInt> tags = read_bigint_list(r);
  r.expect_done();
  const ChallengePool::MintSpec key = key_snapshot();
  const BatchSession batch = batches_.take(
      id, [](const BatchSession& b) { return b.complete(); });
  require_generation(batch.generation, tags_generation, key.generation);
  const bool pass = verify_batch(key.pk, tags, batch.proofs, batch.secret,
                                 key.params.parallelism);
  {
    std::lock_guard lock(log_mu_);
    log_.append(id, /*edge_id=*/0, /*batch=*/true, pass);
  }
  w.u8(pass ? 1 : 0);
}

void TpaService::on_update_tag(net::Reader& r, net::Writer& w) {
  const auto index = static_cast<std::size_t>(r.varint());
  const bn::BigInt tag = r.bigint();
  r.expect_done();
  // SHARED service lock: the store pointer stays put, and TagStore::update
  // only stages into the delta plane — an update storm rides alongside
  // in-flight audits (snapshot isolation, DESIGN.md §15).
  std::shared_lock lock(store_mu_);
  if (store_ == nullptr) {
    throw ServiceError(Status::kFailedPrecondition, "no tags stored");
  }
  // Typed kInvalidArgument envelopes for hostile wire input: a caller must
  // never be able to turn a bad index or oversized tag into anything but a
  // clean refusal (ISSUE 9 hardening satellite).
  if (index >= store_->n()) {
    throw ServiceError(Status::kInvalidArgument, "tag index out of range");
  }
  if (tag.is_negative() || tag.bit_length() > store_->tag_bits()) {
    throw ServiceError(Status::kInvalidArgument, "tag out of range for K bits");
  }
  store_->update(index, tag);
  w.u64(store_->epoch());  // the epoch the update was staged under
}

void TpaService::on_tag_info(net::Reader& r, net::Writer& w) {
  r.expect_done();
  std::shared_lock lock(store_mu_);
  if (store_ == nullptr) {
    throw ServiceError(Status::kFailedPrecondition, "no tags stored");
  }
  write_tag_info(w, store_->info());
}

void TpaService::on_tag_query(net::Reader& r, net::Writer& w) {
  const TagQuery query = read_sharded_query(r);
  r.expect_done();  // before the sweep over all n rows
  std::shared_lock lock(store_mu_);
  if (store_ == nullptr) {
    throw ServiceError(Status::kFailedPrecondition, "no tags stored");
  }
  // A query planned under another key generation or content epoch throws
  // StaleEpochError (a ProtocolError), which the dispatcher maps to
  // kFailedPrecondition for the client's refresh-and-retry path; a point
  // of the wrong length throws ParamError (kInvalidArgument).
  if (query.generation != store_->generation()) {
    throw StaleEpochError("tag query planned under key generation " +
                          std::to_string(query.generation) +
                          ", tags stored under " +
                          std::to_string(store_->generation()));
  }
  pir::PirResponse out;
  store_->respond(query.epoch, query.query, out);
  write_pir_response(w, out);
}

void TpaService::on_close_epoch(net::Reader& r, net::Writer& w) {
  r.expect_done();
  std::shared_lock lock(store_mu_);
  if (store_ == nullptr) {
    throw ServiceError(Status::kFailedPrecondition, "no tags stored");
  }
  const pir::EpochMergeStats result = store_->close_epoch();
  w.u8(result.closed ? 1 : 0);
  w.u64(result.epoch);
  w.varint(result.rows_merged);
}

void TpaClient::set_key(const PublicKey& pk,
                        const ProtocolParams& params) const {
  net::Writer w;
  w.bigint(pk.n);
  w.bigint(pk.g);
  w.varint(params.coeff_bits);
  w.varint(params.challenge_key_bits);
  w.varint(params.block_bytes);
  const net::PooledBytes raw = net::call_pooled(*channel_, kTpaSetKey, std::move(w));
  unwrap(raw);
}

void TpaClient::store_tags(const std::vector<bn::BigInt>& tags) const {
  net::Writer w;
  write_bigint_list(w, tags);
  const net::PooledBytes raw = net::call_pooled(*channel_, kTpaStoreTags, std::move(w));
  unwrap(raw);
}

void TpaClient::start_audit(std::uint32_t edge_id,
                            std::uint64_t session_id) const {
  net::Writer w;
  w.varint(edge_id);
  w.u64(session_id);
  const net::PooledBytes raw = net::call_pooled(*channel_, kTpaStartAudit, std::move(w));
  unwrap(raw);
}

net::PendingReply<void> TpaClient::start_start_audit(
    std::uint32_t edge_id, std::uint64_t session_id) const {
  net::Writer w;
  w.varint(edge_id);
  w.u64(session_id);
  return {net::start_pooled(*channel_, kTpaStartAudit, std::move(w)),
          [](net::Reader&) {}};
}

bool TpaClient::submit_repacked(std::uint64_t session_id,
                                std::uint64_t generation,
                                const std::vector<bn::BigInt>& tags) const {
  net::Writer w;
  w.u64(session_id);
  w.varint(generation);
  write_bigint_list(w, tags);
  const net::PooledBytes raw = net::call_pooled(*channel_, kTpaSubmitRepacked, std::move(w));
  net::Reader r = unwrap(raw);
  return r.u8() == 1;
}

Challenge TpaClient::batch_begin(std::uint64_t batch_id,
                                 std::size_t num_edges) const {
  net::Writer w;
  w.u64(batch_id);
  w.varint(num_edges);
  const net::PooledBytes raw = net::call_pooled(*channel_, kTpaBatchBegin, std::move(w));
  net::Reader r = unwrap(raw);
  Challenge base;
  base.g_s = r.bigint();
  base.ladder = read_ladder(r);
  return base;
}

std::uint64_t TpaClient::update_tag(std::size_t index,
                                    const bn::BigInt& tag) const {
  net::Writer w;
  w.varint(index);
  w.bigint(tag);
  const net::PooledBytes raw = net::call_pooled(*channel_, kTpaUpdateTag, std::move(w));
  net::Reader r = unwrap(raw);
  return r.u64();
}

TpaClient::CloseEpochReply TpaClient::close_epoch() const {
  net::Writer w;
  const net::PooledBytes raw = net::call_pooled(*channel_, kTpaCloseEpoch, std::move(w));
  net::Reader r = unwrap(raw);
  CloseEpochReply reply;
  reply.closed = r.u8() == 1;
  reply.epoch = r.u64();
  reply.rows_merged = r.varint();
  return reply;
}

TagInfo TpaClient::tag_info() const {
  net::Writer w;
  const net::PooledBytes raw = net::call_pooled(*channel_, kTpaTagInfo, std::move(w));
  net::Reader r = unwrap(raw);
  return read_tag_info(r);
}

pir::PirResponse TpaClient::tag_query(const TagQuery& query,
                                      std::size_t tag_bits) const {
  const std::vector<gf::GF4Vector>& points = query.query.points;
  const pir::PirShape want{points.size(), tag_bits,
                           points.empty() ? 0 : points.front().size()};
  net::Writer w;
  write_sharded_query(w, query);
  const net::PooledBytes raw = net::call_pooled(*channel_, kTpaShardQuery, std::move(w));
  net::Reader r = unwrap(raw);
  pir::PirResponse resp = read_pir_response(r, want);
  r.expect_done();
  return resp;
}

net::PendingReply<pir::PirResponse> TpaClient::start_tag_query(
    const TagQuery& query, std::size_t tag_bits) const {
  const std::vector<gf::GF4Vector>& points = query.query.points;
  const pir::PirShape want{points.size(), tag_bits,
                           points.empty() ? 0 : points.front().size()};
  net::Writer w;
  write_sharded_query(w, query);
  return {net::start_pooled(*channel_, kTpaShardQuery, std::move(w)),
          [want](net::Reader& r) {
            pir::PirResponse resp = read_pir_response(r, want);
            r.expect_done();
            return resp;
          }};
}

bool TpaClient::batch_finish(std::uint64_t batch_id, std::uint64_t generation,
                             const std::vector<bn::BigInt>& tags) const {
  net::Writer w;
  w.u64(batch_id);
  w.varint(generation);
  write_bigint_list(w, tags);
  const net::PooledBytes raw = net::call_pooled(*channel_, kTpaBatchFinish, std::move(w));
  net::Reader r = unwrap(raw);
  return r.u8() == 1;
}

}  // namespace ice::proto
