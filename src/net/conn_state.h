// Per-connection framing and response-ordering state for the RPC plane.
//
// ConnState is the transport-agnostic core of the epoll reactor
// (net/reactor.h): a deterministic state machine that is fed raw bytes in
// whatever fragments the kernel (or a test) delivers and produces complete
// request frames on one side and an ordered stream of response bytes on the
// other. It performs no I/O, starts no threads and takes no locks — the
// reactor guards each instance with its connection mutex, and the
// deterministic transport harness (tests/support/fake_transport.h) drives it
// single-threaded — which is what makes split, stalled, truncated and
// pipelined frames testable without timing races.
//
// Wire format (net/tcp.h): a request is
// [u32 frame_len][u16 method][payload] with frame_len covering method +
// payload; a response is [u32 frame_len][payload]. Requests may be
// pipelined back-to-back on one connection; responses are always emitted in
// request order, even when handlers complete out of order.
//
// Buffer discipline: request payload buffers and fully-written response
// bodies are recycled through an internal spare list, so a long-lived
// connection parses and answers frames without allocating once buffers
// reach their working sizes (the reactor's workers balance their own
// thread-local BufferPool by releasing consumed request payloads there —
// see reactor.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "common/bytes.h"

namespace ice::net {

/// Tuning and admission-control knobs for the reactor transport. The
/// defaults serve the test/bench topologies; production deployments should
/// set max_connections explicitly.
struct ReactorLimits {
  /// Largest accepted frame length (method id + payload), matching
  /// TcpChannel's sanity cap on responses.
  std::uint32_t max_frame = 256u << 20;
  /// Requests parsed but not yet fully answered on one connection before
  /// the reactor stops reading from it (the pipelining window).
  std::size_t max_pipeline = 32;
  /// Staged-but-unsent response bytes on one connection before the reactor
  /// stops reading from it (a peer that never drains cannot pin memory).
  std::size_t max_write_queue_bytes = std::size_t{8} << 20;
  /// Live connections before new ones are admitted only to have every
  /// request answered with a kResourceExhausted envelope (0 = unlimited).
  std::size_t max_connections = 0;
  /// Handler worker threads kept alive (0 = a hardware-derived default).
  std::size_t base_workers = 0;
  /// Hard cap on workers, including overflow threads spawned when every
  /// base worker is blocked inside a nested outbound call.
  std::size_t max_workers = 1024;
};

/// One parsed request frame. `seq` is the arrival index on its connection;
/// responses must be completed under the same seq so the reactor can write
/// them back in request order.
struct RequestFrame {
  std::uint64_t seq = 0;
  std::uint16_t method = 0;
  Bytes payload;  // frame body without the method id
};

class ConnState {
 public:
  explicit ConnState(const ReactorLimits& limits) : limits_(limits) {}

  ConnState(const ConnState&) = delete;
  ConnState& operator=(const ConnState&) = delete;

  // --- read side -----------------------------------------------------------

  /// Parses `chunk` (any fragment of the byte stream, down to one byte) and
  /// queues every request frame it completes. Returns false on a framing
  /// violation (undersized or oversized frame length) — the connection is
  /// then broken(): no further bytes are accepted, but requests parsed
  /// before the violation stay pending so their responses can still be
  /// delivered: every complete frame read before the bad length is
  /// answered.
  bool feed(BytesView chunk);

  /// True once feed() hit a framing violation.
  [[nodiscard]] bool broken() const { return broken_; }
  [[nodiscard]] const std::string& error() const { return error_; }

  /// True while the stream position is inside a partially received frame —
  /// an EOF here is a truncation, not a clean close.
  [[nodiscard]] bool mid_frame() const {
    return read_state_ != ReadState::kLen || header_fill_ > 0;
  }

  /// Pops the next parsed request in arrival order. Returns false when none
  /// is pending. The popped request counts as in-flight until its response
  /// has been fully written.
  bool take_request(RequestFrame& out);

  [[nodiscard]] std::size_t pending_requests() const {
    return pending_.size();
  }

  // --- write side ----------------------------------------------------------

  /// Stages the response for request `seq`. Responses may complete in any
  /// order; bytes become writable strictly in seq order. The body is the
  /// raw response payload — the u32 length prefix is added here.
  void complete(std::uint64_t seq, Bytes&& body);

  /// True when ordered response bytes are ready to send.
  [[nodiscard]] bool has_writable() const { return !write_queue_.empty(); }

  /// The next contiguous span of response bytes to send (length prefix or
  /// body remainder of the head response). Only valid when has_writable().
  [[nodiscard]] BytesView next_chunk() const;

  /// Fills `out` with up to `max_spans` contiguous spans of sendable bytes
  /// in stream order, starting where the last advance() left off — the
  /// scatter list a writev-based flush sends in one syscall. Returns the
  /// number of spans written.
  std::size_t gather(BytesView* out, std::size_t max_spans) const;

  /// Consumes `n` sent bytes, crossing response boundaries as needed (n may
  /// cover several gathered spans). Fully written responses retire: their
  /// buffers go to the spare list and the request stops counting as
  /// in-flight.
  void advance(std::size_t n);

  [[nodiscard]] std::size_t queued_write_bytes() const {
    return queued_write_bytes_;
  }

  // --- flow control --------------------------------------------------------

  /// Whether the transport should keep reading from this connection: false
  /// once the pipelining window is full or the write queue is over budget
  /// (and permanently once broken). Reading resumes automatically as
  /// responses drain.
  [[nodiscard]] bool wants_read() const {
    return !broken_ &&
           pending_.size() + in_flight_ < limits_.max_pipeline &&
           queued_write_bytes_ <= limits_.max_write_queue_bytes;
  }

  /// Requests taken via take_request() whose responses are not yet fully
  /// written.
  [[nodiscard]] std::size_t in_flight() const { return in_flight_; }

  /// Nothing pending, executing or writable — the state a connection must
  /// reach before an EOF (or framing violation) lets it close.
  [[nodiscard]] bool drained() const {
    return pending_.empty() && in_flight_ == 0 && write_queue_.empty();
  }

  /// Spare (recycled) buffers currently held; exposed for tests that pin
  /// the allocation-free steady state.
  [[nodiscard]] std::size_t spare_buffers() const { return spare_.size(); }

 private:
  enum class ReadState { kLen, kMethod, kBody };

  struct StagedResponse {
    std::array<std::uint8_t, 4> header;
    Bytes body;
  };

  [[nodiscard]] Bytes acquire_buffer();
  void recycle_buffer(Bytes&& buf);
  void fail(const std::string& reason);

  ReactorLimits limits_;

  // Frame parser.
  ReadState read_state_ = ReadState::kLen;
  std::array<std::uint8_t, 4> header_{};  // len (4) or method (2) bytes
  std::size_t header_fill_ = 0;
  std::uint32_t body_len_ = 0;
  std::uint16_t method_ = 0;
  Bytes body_;  // frame body under assembly
  bool broken_ = false;
  std::string error_;

  // Parsed-but-undispatched requests, in arrival order.
  std::deque<RequestFrame> pending_;
  std::uint64_t next_seq_ = 0;

  // Response ordering: out-of-order completions wait in staged_ until every
  // earlier seq has been staged, then move to the in-order write queue.
  std::map<std::uint64_t, StagedResponse> staged_;
  std::uint64_t next_staged_seq_ = 0;
  std::deque<StagedResponse> write_queue_;
  std::size_t head_written_ = 0;  // bytes of write_queue_.front() sent
  std::size_t queued_write_bytes_ = 0;
  std::size_t in_flight_ = 0;

  // Recycled frame buffers (bounded like net::BufferPool).
  std::deque<Bytes> spare_;
};

}  // namespace ice::net
