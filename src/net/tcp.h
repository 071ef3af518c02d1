// TCP transport (loopback or LAN) for the RPC layer.
//
// Frames are length-prefixed: a request is [u32 frame_len][u16 method]
// [payload]; a response is [u32 frame_len][payload]. The server is the
// epoll reactor (net/reactor.h): one I/O thread multiplexes every
// connection, requests pipeline per connection, and responses come back in
// request order — so a TPA serves thousands of concurrent sessions (the
// paper's multi-user experiment, Fig. 4) without a thread per client.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "net/conn_state.h"
#include "net/rpc.h"

namespace ice::net {

class Reactor;

/// RPC server listening on a TCP port. Lifetime: construct (binds and starts
/// serving) -> serve -> destroy (stops and joins all threads).
class TcpServer {
 public:
  /// Binds 127.0.0.1:`port` (0 picks an ephemeral port) and serves
  /// `handler` (non-owning; must outlive the server) through a reactor
  /// with `limits`. Throws TransportError, leaving no socket open.
  TcpServer(RpcHandler& handler, std::uint16_t port = 0,
            ReactorLimits limits = {});
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// The port actually bound.
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Stops accepting, closes connections, joins threads (idempotent).
  void stop();

 private:
  std::uint16_t port_ = 0;
  std::unique_ptr<Reactor> reactor_;
};

/// RPC client over one TCP connection. Thread-safe and pipelining: when
/// several threads call concurrently, requests are sent back-to-back on the
/// wire and each caller collects its own response in send order (the server
/// replies strictly in request order, so no request ids are needed). Any
/// transport failure — including a deadline expiry — poisons the channel;
/// every subsequent call throws TransportError.
class TcpChannel final : public RpcChannel {
 public:
  /// Connects to host:port. Throws TransportError on failure.
  TcpChannel(const std::string& host, std::uint16_t port);
  ~TcpChannel() override;

  TcpChannel(const TcpChannel&) = delete;
  TcpChannel& operator=(const TcpChannel&) = delete;

  Bytes call(std::uint16_t method, BytesView request) override;

  /// Per-call deadline covering the send and the response wait
  /// (0 = no deadline, the default). Applies to calls issued after the
  /// change. A dead or stalling peer then surfaces as a TransportError
  /// instead of hanging the caller forever; the expired channel is
  /// poisoned, since a late response would desynchronise the stream.
  void set_deadline(std::chrono::milliseconds deadline) {
    deadline_ms_.store(deadline.count(), std::memory_order_relaxed);
  }
  [[nodiscard]] std::chrono::milliseconds deadline() const {
    return std::chrono::milliseconds(
        deadline_ms_.load(std::memory_order_relaxed));
  }

  [[nodiscard]] const ChannelStats& stats() const override { return stats_; }
  void reset_stats() override { stats_.reset(); }

 private:
  void poison(const std::string& reason);

  int fd_ = -1;
  std::atomic<std::int64_t> deadline_ms_{0};

  std::mutex send_mu_;          // serializes sends; assigns tickets
  std::uint64_t next_ticket_ = 0;

  std::mutex recv_mu_;          // guards the turn-taking state below
  std::condition_variable recv_cv_;
  std::uint64_t recv_next_ = 0;  // ticket whose response is next on the wire
  bool reading_ = false;         // a caller is in recv() with recv_mu_ free
  bool broken_ = false;
  std::string broken_reason_;

  ChannelStats stats_;
};

}  // namespace ice::net
