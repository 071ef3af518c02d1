// End-device actor: owns the keys, tags its file, and drives full audit
// rounds against edges through the TPAs.
//
// This composes the whole ICE information flow (paper Fig. 1):
//   setup:   KeyGen -> TagGen -> upload tags to both TPAs
//   audit:   IndexQuery (edge) -> share s~ (edge) -> start audit (303: the
//            TPA challenges the edge and parks the proof), then send the
//            private tag queries (310, both TPAs) -> decode the answers ->
//            collect the 303 -> repack -> submit (304) -> verdict
//   batch:   IndexQuery x J -> batch begin (TPA: g_s and its ladder) ->
//            send the challenge keys e_j, g_s and the ladder to each edge
//            (205, fast local links) -> union retrieval -> aggregated
//            repack while the proofs run -> collect the J 205s -> batch
//            finish (307) -> verdict
// Concurrent calls are started requests (RpcChannel::start) collected
// later, on the channels the client already holds: over TCP the client
// starts no thread. On TPA0's connection the 303 goes out before the 310,
// and replies come back in request order, so over TCP TPA0's tag answer
// follows the edge's proof.
// Thread safety: after the single-threaded setup phase (setup_file or
// attach_file), concurrent audit_edge / audit_edges_batch / retrieve_tags
// calls on one client are safe — randomness goes through a serialized
// SharedCsprng, the file's PIR embedding and client are read-only, and the
// cached (generation, epoch) pair and the updated-block notes sit behind
// their own mutexes.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <vector>

#include "bignum/random.h"
#include "crypto/csprng.h"
#include "ice/edge_service.h"
#include "ice/keys.h"
#include "ice/localize.h"
#include "ice/params.h"
#include "ice/tag.h"
#include "ice/tpa_service.h"
#include "pir/client.h"
#include "pir/embedding.h"

namespace ice::proto {

class UserClient {
 public:
  /// `tpa0` is the verifier replica, `tpa1` the second PIR replica.
  /// Channels are non-owning and must outlive the client.
  UserClient(const ProtocolParams& params, KeyPair keys,
             net::RpcChannel& tpa0, net::RpcChannel& tpa1);

  /// Tags all blocks, installs the key at both TPAs (which drops any
  /// stored tags) and uploads the tag set, then attaches the file.
  /// Returns the tag-generation time in seconds (paper Tab. III "TagGen").
  double setup_file(const std::vector<Bytes>& blocks);

  /// Adopts an already-uploaded file of `n_blocks` blocks without re-tagging
  /// or re-uploading: a second client holding the same key pair (e.g. one
  /// per concurrent session in the benchmarks) can audit the file some
  /// other client set up. Builds the file's PIR embedding and client, which
  /// then stay fixed until the next setup_file or attach_file.
  void attach_file(std::size_t n_blocks);

  /// Runs one complete ICE-basic audit of the edge behind `edge_channel`
  /// (registered at the TPA as `edge_id`). Returns the verdict.
  [[nodiscard]] bool audit_edge(net::RpcChannel& edge_channel,
                                std::uint32_t edge_id);

  /// Runs one ICE-batch audit across several edges. Returns the verdict.
  [[nodiscard]] bool audit_edges_batch(
      const std::vector<net::RpcChannel*>& edge_channels);

  /// Marks a block as updated in the current session: during the next
  /// audit_edge the corresponding repacked tag is regenerated from the new
  /// content (VerifyEdge step 2) instead of the stored tag.
  void note_updated_block(std::size_t index, Bytes new_content);

  /// Drops the update note for a block (the update was flushed, or it was
  /// lost to corruption and rolled back to the cloud version).
  void forget_updated_block(std::size_t index);

  /// Data dynamics, storm path: re-tags the block and STAGES the fresh tag
  /// at both TPAs under the current epoch (TagDatabase delta plane). The
  /// tag is invisible to retrievals until close_epochs() merges it — so an
  /// update storm never perturbs concurrent audits — and the session note
  /// must stay in place until then. Returns the epoch staged under; throws
  /// ProtocolError when the replicas disagree.
  std::uint64_t update_block(std::size_t index, BytesView content);

  /// Closes the epoch at BOTH TPAs in lockstep (the call excludes this
  /// client's own audits by taking its epoch gate exclusively). Returns
  /// true when staged rows merged; the cached (generation, epoch) pair is
  /// dropped in that case (the content epoch moved).
  bool close_epochs();

  /// Data dynamics, synchronous path: once an update has been written back
  /// to the CSP, stages its fresh tag at BOTH TPAs, closes the epoch, and
  /// drops the session note. Afterwards ordinary audits cover the new
  /// content with no special casing. Blocks until in-flight audits of this
  /// client release the epoch gate.
  void commit_updated_block(std::size_t index, BytesView content);

  /// Snapshot of the blocks updated this session and not yet committed.
  [[nodiscard]] std::vector<std::pair<std::size_t, Bytes>> updated_blocks()
      const {
    std::lock_guard lock(blocks_mu_);
    return updated_blocks_;
  }

  /// Privately retrieves tags for `indices` from the two TPAs: each gets
  /// one |indices|-point query over all n rows. The key generation and
  /// content epoch are fetched lazily from tpa0 and cached; when a key
  /// rotation or a merging close at the TPAs lands between planning and
  /// evaluation, the stale query is rejected remotely (kFailedPrecondition)
  /// and the client refreshes the pair and retries once. Throws
  /// ProtocolError, before any query is sent, when tpa0 reports a row
  /// count other than file_blocks().
  [[nodiscard]] std::vector<bn::BigInt> retrieve_tags(
      const std::vector<std::size_t>& indices);

  /// After a failed audit: pinpoints which of the edge's cached blocks are
  /// corrupted by bisection sub-audits over the fast local link (see
  /// ice/localize.h). Applies this session's noted block updates before
  /// comparing, so a freshly updated block is not misreported.
  [[nodiscard]] LocalizationResult localize_corruption(
      net::RpcChannel& edge_channel);

  [[nodiscard]] const PublicKey& pk() const { return keys_.pk.pk; }
  /// The file's protocol parameters (d, kappa, block size), as sent in
  /// set_key.
  [[nodiscard]] const ProtocolParams& params() const { return params_; }
  [[nodiscard]] std::size_t file_blocks() const {
    return embedding_ ? embedding_->n() : 0;
  }

 private:
  struct Keys {
    KeyPair pk;  // full pair; only pk leaves the device
  };

  ProtocolParams params_;
  Keys keys_;
  TagGenerator tagger_;
  net::RpcChannel* tpa0_;
  net::RpcChannel* tpa1_;
  /// Retrieved tags and the key generation they were stored under, which
  /// the verdict call names.
  struct Retrieved {
    std::uint64_t generation = 0;
    std::vector<bn::BigInt> tags;
  };
  [[nodiscard]] Retrieved retrieve(const std::vector<std::size_t>& indices);
  /// One attempt of retrieve: plans and encodes the query, starts tpa1's
  /// 310, calls tpa0's, and decodes the two answers.
  [[nodiscard]] Retrieved retrieve_once(
      const std::vector<std::size_t>& indices);
  /// The (generation, epoch) pair retrievals are planned against: tpa0's
  /// 309 reply, fetched on first use and dropped by any event that can
  /// move it (setup, attach, a merging close, a remote stale-plan refusal).
  [[nodiscard]] TagInfo plan();
  void drop_plan();

  /// The file's PIR state, built by setup_file and attach_file (the
  /// client points at the embedding) and read-only afterwards; the
  /// embedding's n is the file's block count.
  std::optional<pir::Embedding> embedding_;
  std::optional<pir::PirClient> pir_;
  /// Epoch gate (DESIGN.md §15): audit flows hold it shared for their full
  /// duration; close_epochs takes it exclusively. Replica epochs therefore
  /// never move mid-audit FOR THIS CLIENT's audits. Only top-level entry
  /// points lock it (shared_mutex is not recursive).
  mutable std::shared_mutex epoch_gate_;
  std::mutex plan_mu_;
  std::optional<TagInfo> plan_;
  crypto::SharedCsprng rng_;
  mutable std::mutex blocks_mu_;
  std::vector<std::pair<std::size_t, Bytes>> updated_blocks_;
};

}  // namespace ice::proto
