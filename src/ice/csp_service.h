// Cloud service provider actor: serves blocks and accepts write-backs.
//
// The paper assumes CSP-side integrity is already solved ([3], [5], [8]);
// this actor is the honest substrate edges pre-download from.
//
// Concurrency (DESIGN.md §10): a single reader/writer lock over the block
// store — fetches and PDP challenges read shared, write-backs and key
// installation take it exclusive. Proof computation runs on blocks copied
// out under the shared lock.
#pragma once

#include <optional>
#include <shared_mutex>

#include "ice/keys.h"
#include "ice/params.h"
#include "ice/protocol.h"
#include "mec/block_store.h"
#include "net/dispatch.h"
#include "net/rpc.h"

namespace ice::proto {

class CspService final : public net::RpcHandler {
 public:
  /// `parallelism` is the worker-task budget for PDP challenge proofs
  /// (ProtocolParams::parallelism convention; local knob, not wire state).
  explicit CspService(mec::BlockStore store, std::size_t parallelism = 0);

  Bytes handle(std::uint16_t method, BytesView request) override;

  /// Direct store access for test setup (single-threaded phases only).
  [[nodiscard]] const mec::BlockStore& store() const { return store_; }

  /// Fault-injection access for cloud-audit tests.
  [[nodiscard]] mec::BlockStore& store_for_corruption() { return store_; }

 private:
  void on_fetch(net::Reader& r, net::Writer& w);
  void on_write_back(net::Reader& r, net::Writer& w);
  void on_set_key(net::Reader& r, net::Writer& w);
  void on_challenge(net::Reader& r, net::Writer& w);

  net::Dispatcher dispatch_;
  mutable std::shared_mutex mu_;
  mec::BlockStore store_;
  std::optional<PublicKey> pk_;  // for answering PDP challenges
  ProtocolParams params_;
};

/// Client stub over any channel to a CspService.
class CspClient {
 public:
  explicit CspClient(net::RpcChannel& channel) : channel_(&channel) {}

  [[nodiscard]] Bytes fetch(std::size_t index) const;
  void write_back(
      const std::vector<std::pair<std::size_t, Bytes>>& blocks) const;
  /// Installs the public key the CSP needs to answer PDP challenges.
  void set_key(const PublicKey& pk, const ProtocolParams& params) const;
  /// Sampled PDP challenge over the given block indexes (cloud_audit.h).
  [[nodiscard]] Proof challenge(const bn::BigInt& e, const bn::BigInt& g_s,
                                const std::vector<std::size_t>& sample)
      const;

 private:
  net::RpcChannel* channel_;
};

}  // namespace ice::proto
