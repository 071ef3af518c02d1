#include "ice/user_client.h"

#include <algorithm>
#include <string>

#include "common/error.h"
#include "common/stopwatch.h"
#include "ice/batch.h"

namespace ice::proto {

namespace {

/// Collects every call; where several fail, the first one's error
/// surfaces once the rest are collected.
void wait_all(std::vector<net::PendingReply<void>>& calls) {
  for (std::size_t j = 0; j < calls.size(); ++j) {
    try {
      calls[j].wait();
    } catch (...) {
      for (++j; j < calls.size(); ++j) {
        try {
          calls[j].wait();
        } catch (...) {
          // Superseded by the first failure, rethrown below.
        }
      }
      throw;
    }
  }
}

}  // namespace

UserClient::UserClient(const ProtocolParams& params, KeyPair keys,
                       net::RpcChannel& tpa0, net::RpcChannel& tpa1)
    : params_(params),
      keys_{std::move(keys)},
      tagger_(keys_.pk.pk),
      tpa0_(&tpa0),
      tpa1_(&tpa1) {}

double UserClient::setup_file(const std::vector<Bytes>& blocks) {
  if (blocks.empty()) throw ParamError("setup_file: no blocks");
  Stopwatch sw;
  const std::vector<bn::BigInt> tags =
      tagger_.tag_all(blocks, params_.parallelism);
  const double taggen_seconds = sw.seconds();
  // set_key drops the TPA's store, so the upload is accepted as the
  // store's one upload under the new key generation.
  for (net::RpcChannel* ch : {tpa0_, tpa1_}) {
    const TpaClient tpa(*ch);
    tpa.set_key(keys_.pk.pk, params_);
    tpa.store_tags(tags);
  }
  attach_file(blocks.size());
  return taggen_seconds;
}

void UserClient::attach_file(std::size_t n_blocks) {
  if (n_blocks == 0) throw ParamError("attach_file: no blocks");
  pir_.reset();  // before the embedding it points at is replaced
  embedding_.emplace(n_blocks);
  // K is the ACTUAL modulus width: N built from two b/2-bit primes can be
  // one bit short of the nominal params_.modulus_bits.
  pir_.emplace(*embedding_, keys_.pk.pk.modulus_bits());
  drop_plan();
  std::lock_guard lock(blocks_mu_);
  updated_blocks_.clear();
}

TagInfo UserClient::plan() {
  std::lock_guard lock(plan_mu_);
  if (!plan_) {
    const TagInfo info = TpaClient(*tpa0_).tag_info();
    // The user plans against the file it owns. A TPA reporting another row
    // count is faulty or hostile: its rows are not this file's.
    if (info.n != file_blocks()) {
      throw ProtocolError("retrieve_tags: tpa0 reports " +
                          std::to_string(info.n) + " rows, the file has " +
                          std::to_string(file_blocks()));
    }
    plan_ = info;
  }
  return *plan_;
}

void UserClient::drop_plan() {
  std::lock_guard lock(plan_mu_);
  plan_.reset();
}

std::vector<bn::BigInt> UserClient::retrieve_tags(
    const std::vector<std::size_t>& indices) {
  return retrieve(indices).tags;
}

UserClient::Retrieved UserClient::retrieve(
    const std::vector<std::size_t>& indices) {
  if (file_blocks() == 0) throw ProtocolError("retrieve_tags: no file");
  if (indices.empty()) return {};
  try {
    return retrieve_once(indices);
  } catch (const net::RemoteError& e) {
    // One retry: a key rotation or a merging close at the TPAs between our
    // planning and their evaluation is rejected remotely with
    // kFailedPrecondition; refresh the pair and re-plan once.
    if (e.status() != net::Status::kFailedPrecondition) throw;
  }
  drop_plan();
  return retrieve_once(indices);
}

UserClient::Retrieved UserClient::retrieve_once(
    const std::vector<std::size_t>& indices) {
  const TagInfo at = plan();
  pir::PirClient::EncodedQuery enc = pir_->encode(indices, rng_);
  const TagQuery q0{at.generation, at.epoch, std::move(enc.queries[0])};
  const TagQuery q1{at.generation, at.epoch, std::move(enc.queries[1])};
  // The two PIR servers are independent (that independence is the privacy
  // guarantee), so tpa1's query is on its way while tpa0's runs as a plain
  // call, instead of paying the WAN latency twice per retrieval. Where
  // both fail, tpa0's error wins: the started call is dropped, which
  // collects it (or, over TCP, discards its reply).
  net::PendingReply<pir::PirResponse> answer1 =
      TpaClient(*tpa1_).start_tag_query(q1, pir_->tag_bits());
  const pir::PirResponse r0 =
      TpaClient(*tpa0_).tag_query(q0, pir_->tag_bits());
  const pir::PirResponse r1 = answer1.wait();
  return {at.generation, pir_->decode(enc.secrets, r0, r1)};
}

void UserClient::forget_updated_block(std::size_t index) {
  std::lock_guard lock(blocks_mu_);
  std::erase_if(updated_blocks_,
                [index](const auto& e) { return e.first == index; });
}

std::uint64_t UserClient::update_block(std::size_t index, BytesView content) {
  if (index >= file_blocks()) {
    throw ParamError("update_block: bad index or no file");
  }
  const bn::BigInt tag = tagger_.tag(content);
  const std::uint64_t epoch0 = TpaClient(*tpa0_).update_tag(index, tag);
  const std::uint64_t epoch1 = TpaClient(*tpa1_).update_tag(index, tag);
  if (epoch0 != epoch1) {
    throw ProtocolError("update_block: TPA replicas disagree");
  }
  return epoch0;
}

bool UserClient::close_epochs() {
  // Exclusive gate: no audit of ours is mid-flight while the epoch moves.
  std::unique_lock gate(epoch_gate_);
  const auto r0 = TpaClient(*tpa0_).close_epoch();
  const auto r1 = TpaClient(*tpa1_).close_epoch();
  if (r0.closed != r1.closed || r0.epoch != r1.epoch) {
    throw ProtocolError("close_epochs: TPA replicas disagree");
  }
  if (r0.closed) {
    // The epoch moved; drop the pair now instead of paying a stale-query
    // round trip on the next retrieval.
    drop_plan();
  }
  return r0.closed;
}

void UserClient::commit_updated_block(std::size_t index, BytesView content) {
  if (index >= file_blocks()) {
    throw ParamError("commit_updated_block: bad index or no file");
  }
  update_block(index, content);
  close_epochs();
  // Only forget after the close: until the merge lands, audits must keep
  // repacking this block's tag from the note.
  forget_updated_block(index);
}

void UserClient::note_updated_block(std::size_t index, Bytes new_content) {
  std::lock_guard lock(blocks_mu_);
  std::erase_if(updated_blocks_,
                [index](const auto& e) { return e.first == index; });
  updated_blocks_.emplace_back(index, std::move(new_content));
}

bool UserClient::audit_edge(net::RpcChannel& edge_channel,
                            std::uint32_t edge_id) {
  if (file_blocks() == 0) throw ProtocolError("audit_edge: no file");
  // Shared epoch gate: close_epochs cannot land between our tag retrieval
  // and the verdict, so the whole audit reads one epoch snapshot.
  std::shared_lock gate(epoch_gate_);
  const EdgeClient edge(edge_channel);
  const TpaClient tpa(*tpa0_);

  // 1. IndexQuery: learn S_j over the fast local link.
  const std::vector<std::size_t> s_j = edge.index_query();
  if (s_j.empty()) return true;  // nothing pre-downloaded, nothing to audit

  // 2. The user picks the session nonce and shares the blinding s~ with
  //    the edge under it; the TPA's challenge quotes the same id so the
  //    edge can look the blinding up.
  const std::uint64_t session_id = rng_.next_u64();
  const bn::BigInt s_tilde = draw_blinding(keys_.pk.pk, rng_);
  edge.share_blinding(session_id, s_tilde);

  // 3+4. The TPA challenges the edge and parks the proof under the session
  //      id while the user privately retrieves the tags for S_j — the two
  //      round trips touch disjoint state (audit session vs tag store), so
  //      the 303 goes out first and the retrieval runs beside it.
  net::PendingReply<void> audit = tpa.start_start_audit(edge_id, session_id);
  Retrieved tags;
  try {
    tags = retrieve(s_j);
  } catch (...) {
    // The challenge is collected before a failure surfaces; where both
    // fail, its error wins.
    audit.wait();
    throw;
  }
  audit.wait();

  // 5. Repack: T~ = T^s~; updated blocks get fresh g^{m' s~} tags. Over
  //    TCP TPA0's answer arrives after the 303's reply anyway, and on an
  //    in-process channel a repack beside the proof contends with it for
  //    the shared pool.
  std::vector<bn::BigInt> repacked =
      repack_tags(keys_.pk.pk, tags.tags, s_tilde, params_.parallelism);
  for (const auto& [index, content] : updated_blocks()) {
    const auto it = std::find(s_j.begin(), s_j.end(), index);
    if (it == s_j.end()) continue;
    repacked[static_cast<std::size_t>(it - s_j.begin())] =
        tagger_.updated_tag(content, s_tilde);
  }

  // 6. Submit, naming the key generation of the tags (a rotation since the
  //    retrieval is refused, not verified), and receive the verdict.
  return tpa.submit_repacked(session_id, tags.generation, repacked);
}

LocalizationResult UserClient::localize_corruption(
    net::RpcChannel& edge_channel) {
  if (file_blocks() == 0) {
    throw ProtocolError("localize_corruption: no file");
  }
  std::shared_lock gate(epoch_gate_);
  const EdgeClient edge(edge_channel);
  const std::vector<std::size_t> s_j = edge.index_query();
  std::vector<bn::BigInt> tags = retrieve_tags(s_j);
  // Blocks updated this session have fresh expected tags.
  for (const auto& [index, content] : updated_blocks()) {
    const auto it = std::find(s_j.begin(), s_j.end(), index);
    if (it == s_j.end()) continue;
    tags[static_cast<std::size_t>(it - s_j.begin())] =
        tagger_.tag(content);
  }
  return proto::localize_corruption(keys_.pk.pk, params_, edge, s_j, tags,
                                    rng_);
}

bool UserClient::audit_edges_batch(
    const std::vector<net::RpcChannel*>& edge_channels) {
  if (file_blocks() == 0) throw ProtocolError("audit_edges_batch: no file");
  if (edge_channels.empty()) {
    throw ParamError("audit_edges_batch: no edges");
  }
  std::shared_lock gate(epoch_gate_);
  const TpaClient tpa(*tpa0_);

  // IndexQuery every edge (fast local links).
  std::vector<std::vector<std::size_t>> edge_sets;
  edge_sets.reserve(edge_channels.size());
  for (net::RpcChannel* ch : edge_channels) {
    edge_sets.push_back(EdgeClient(*ch).index_query());
    if (edge_sets.back().empty()) {
      throw ProtocolError("audit_edges_batch: edge with empty cache");
    }
  }

  // TPA opens the batch (draws s) under a user-chosen nonce; user draws
  // the per-edge keys e_j, which the TPA never sees.
  const std::uint64_t batch_id = rng_.next_u64();
  const Challenge base = tpa.batch_begin(batch_id, edge_channels.size());
  // The user forwards g_s's ladder to every edge: a malformed one is
  // refused here, with a typed error, instead of at J edges.
  validate_ladder(keys_.pk.pk, params_, base.ladder);
  const std::vector<bn::BigInt> keys =
      draw_challenge_keys(params_, edge_channels.size(), rng_);

  // Each edge computes its proof before replying and submits it to the TPA
  // itself, so the J challenges go out first and their proofs run while
  // the user retrieves the union and repacks it.
  std::vector<net::PendingReply<void>> challenges;
  challenges.reserve(edge_channels.size());
  for (std::size_t j = 0; j < edge_channels.size(); ++j) {
    challenges.push_back(EdgeClient(*edge_channels[j])
                             .start_batch_challenge(batch_id, keys[j],
                                                    base.g_s, base.ladder));
  }
  const std::vector<std::size_t> u = union_of_sets(edge_sets);
  Retrieved tags;
  std::vector<bn::BigInt> repacked;
  try {
    tags = retrieve(u);
    // Aggregated repacking over the union.
    repacked = batch_repack(keys_.pk.pk, params_, u, tags.tags, edge_sets,
                            keys);
  } catch (...) {
    // The challenges are collected before a failure surfaces; where both
    // branches fail, the edges' error wins.
    wait_all(challenges);
    throw;
  }
  wait_all(challenges);
  return tpa.batch_finish(batch_id, tags.generation, repacked);
}

}  // namespace ice::proto
