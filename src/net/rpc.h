// Minimal request/response RPC used between User, Edge, TPA and CSP.
//
// A service implements RpcHandler; a client speaks through RpcChannel. Two
// channel families exist: in-process (channel.h) for simulations and exact
// byte accounting, and TCP on loopback (tcp.h) for the distributed
// end-to-end runs. The wire unit is (method id, payload bytes); every
// response opens with the status envelope (dispatch.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/error.h"

namespace ice::net {

/// Traffic counters for one endpoint; the communication-cost experiments
/// (paper Tab. I, Fig. 8) read these. Counters are atomic so concurrent
/// sessions sharing one channel keep the byte accounting exact (the counts
/// are identical to the single-threaded ones — atomicity changes nothing
/// about what is added, only makes the additions race-free).
struct ChannelStats {
  std::atomic<std::uint64_t> bytes_sent{0};
  std::atomic<std::uint64_t> bytes_received{0};
  std::atomic<std::uint64_t> calls{0};

  void reset() {
    bytes_sent.store(0, std::memory_order_relaxed);
    bytes_received.store(0, std::memory_order_relaxed);
    calls.store(0, std::memory_order_relaxed);
  }
};

/// Wire status codes carried by the response envelope (dispatch.h). The
/// numeric values are wire format — append, never renumber.
enum class Status : std::uint16_t {
  kOk = 0,
  kUnknownMethod = 1,     // method id not in the service's dispatch table
  kMalformed = 2,         // request bytes failed to decode (CodecError)
  kInvalidArgument = 3,   // decoded fine but a value is out of range
  kFailedPrecondition = 4,// valid request in the wrong service/session state
  kNotFound = 5,          // unknown session/batch/edge/block
  kAlreadyExists = 6,     // live session-id reuse refused
  kResourceExhausted = 7, // session table full
  kUnavailable = 8,       // an outbound call the handler depends on failed
  kInternal = 9,          // anything else; the server never crashes
};

/// Human-readable name for logs and error messages.
const char* status_name(Status s);

/// Server side: dispatches one method call to a response payload.
/// Implementations must be thread-safe if served by a concurrent transport.
class RpcHandler {
 public:
  virtual ~RpcHandler() = default;
  virtual Bytes handle(std::uint16_t method, BytesView request) = 0;
};

/// A call whose request is on its way; wait() collects the reply.
/// Move-only; RpcChannel::start makes one. Its channel must outlive it.
class PendingCall {
 public:
  /// How one channel family completes a started call. A state destroyed
  /// before its wait() ran must leave the channel in step for later calls.
  class State {
   public:
    virtual ~State() = default;
    virtual Bytes wait() = 0;
  };

  explicit PendingCall(std::unique_ptr<State> state)
      : state_(std::move(state)) {}
  PendingCall(PendingCall&&) noexcept = default;
  PendingCall& operator=(PendingCall&&) noexcept = default;

  /// Blocks until the reply is in and returns it, or throws exactly what
  /// RpcChannel::call would have thrown. Once per call: a second wait (or
  /// a wait on a moved-from call) throws Error.
  Bytes wait();

 private:
  std::unique_ptr<State> state_;
};

/// Client side of a connection to one service.
class RpcChannel {
 public:
  virtual ~RpcChannel() = default;

  /// Blocking call; throws TransportError on transport failure and
  /// rethrows nothing from the remote (errors travel as payloads).
  virtual Bytes call(std::uint16_t method, BytesView request) = 0;

  /// Sends `request` and returns without waiting for the reply, so a
  /// client can have several calls in flight and collect them later. This
  /// base form copies the request and runs call() on a thread of its own;
  /// TcpChannel overrides it with its wire tickets and starts no thread.
  /// A decorator that overrides only call() gets the base form even over a
  /// TcpChannel: its started calls each hold a thread and reach the wire
  /// in whatever order those threads do. To keep the TCP pipelining and
  /// the caller's order, a decorator forwards start() as well.
  virtual PendingCall start(std::uint16_t method, BytesView request);

  [[nodiscard]] virtual const ChannelStats& stats() const = 0;
  virtual void reset_stats() = 0;
};

/// Per-call framing overhead in bytes, counted identically by both channel
/// families so byte accounting is transport-independent: a request frame
/// opens with a u32 length and a u16 method id, a reply frame with the u32
/// length alone.
constexpr std::size_t kRpcHeaderBytes = 4 + 2;
constexpr std::size_t kRpcReplyHeaderBytes = 4;

/// Status envelope opening every response payload: a u16 status code,
/// followed by the reply on kOk or a utf-8 reason string otherwise.
/// Replaced the pre-session-core 1-byte status, so per-response byte
/// accounting in the Tab. I / Fig. 8 experiments grew by exactly
/// kStatusEnvelopeBytes - 1 = 1 byte per call.
constexpr std::size_t kStatusEnvelopeBytes = 2;

/// Raised by a typed handler (dispatch.h) to reject a request with a
/// specific status code; the dispatcher encodes it into the envelope.
class ServiceError : public Error {
 public:
  ServiceError(Status status, const std::string& reason)
      : Error(reason), status_(status) {}

  [[nodiscard]] Status status() const { return status_; }

 private:
  Status status_;
};

/// What a client stub throws when the remote replied with an error
/// envelope. Derives from ProtocolError so pre-envelope catch sites (a
/// failed precondition is a protocol-state violation) keep working.
class RemoteError : public ProtocolError {
 public:
  RemoteError(Status status, const std::string& reason)
      : ProtocolError(std::string("remote error [") + status_name(status) +
                      "]: " + reason),
        status_(status) {}

  [[nodiscard]] Status status() const { return status_; }

 private:
  Status status_;
};

}  // namespace ice::net
