// In-process RPC channel.
//
// Calls the handler directly (no sockets, no copies beyond the payload) but
// counts bytes exactly like the TCP transport, so communication costs are
// measured in bytes on the wire whichever transport a deployment uses.
#pragma once

#include "net/rpc.h"

namespace ice::net {

class InMemoryChannel final : public RpcChannel {
 public:
  /// `handler` is non-owning and must outlive the channel.
  explicit InMemoryChannel(RpcHandler& handler) : handler_(&handler) {}

  Bytes call(std::uint16_t method, BytesView request) override {
    stats_.calls++;
    stats_.bytes_sent += request.size() + kRpcHeaderBytes;
    Bytes response = handler_->handle(method, request);
    stats_.bytes_received += response.size() + kRpcReplyHeaderBytes;
    return response;
  }

  [[nodiscard]] const ChannelStats& stats() const override { return stats_; }
  void reset_stats() override { stats_.reset(); }

 private:
  RpcHandler* handler_;
  ChannelStats stats_;
};

}  // namespace ice::net
