// Deterministic transport harness for the reactor RPC plane.
//
// FakeTransport owns one end of an AF_UNIX socketpair whose other end is
// handed to Reactor::adopt(), so tests drive a real served connection with
// exact control over the byte stream: deliver a frame in arbitrary split
// points (down to one byte), stall mid-frame for as long as the test wants,
// close or half-close mid-call — all without a TCP stack or timing races.
// RawTcpClient provides the same sending/receiving vocabulary over a real
// TCP connection for tests that need the accept path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace ice::net::testing {

/// Little-endian u32, the wire's length-prefix encoding.
Bytes le32(std::uint32_t v);

/// Frames a request: [u32 frame_len][u16 method][payload].
Bytes frame_request(std::uint16_t method, BytesView payload);

/// Byte-stream driver shared by the socketpair and TCP harnesses.
class StreamPeer {
 public:
  virtual ~StreamPeer();

  StreamPeer(const StreamPeer&) = delete;
  StreamPeer& operator=(const StreamPeer&) = delete;

  /// Sends exactly these bytes (blocking; throws on error).
  void send(BytesView bytes);

  /// Sends `bytes` in `pieces` consecutive slices. The split points are
  /// deterministic: pieces of size ceil/floor(n / pieces). pieces >= n
  /// degenerates to one byte at a time.
  void send_split(BytesView bytes, std::size_t pieces);

  /// Frames and sends one request in a single write.
  void send_request(std::uint16_t method, BytesView payload);

  /// Receives exactly `n` bytes, waiting up to `timeout_ms` for each chunk.
  /// Throws on EOF or timeout.
  Bytes recv_exact(std::size_t n, int timeout_ms = 5000);

  /// Receives one [u32 len][payload] response frame.
  Bytes recv_response(int timeout_ms = 5000);

  /// True when the peer has closed: a blocking read yields EOF within
  /// `timeout_ms`. Any stray bytes before EOF fail the expectation.
  bool eof_within(int timeout_ms = 5000);

  /// Half-closes the write side; reads stay open.
  void shutdown_write();

  /// Closes the socket entirely (idempotent).
  void close();

  [[nodiscard]] int fd() const { return fd_; }

 protected:
  explicit StreamPeer(int fd) : fd_(fd) {}
  int fd_ = -1;
};

/// One end of a socketpair served by a Reactor.
class FakeTransport final : public StreamPeer {
 public:
  /// Creates the socketpair. server_end() must be adopted (exactly once).
  FakeTransport();
  ~FakeTransport() override;

  /// The fd to pass to Reactor::adopt(); ownership moves to the caller.
  [[nodiscard]] int release_server_end();

 private:
  int server_end_ = -1;
};

/// Raw TCP client for scripted wire exchanges against a live server port.
class RawTcpClient final : public StreamPeer {
 public:
  explicit RawTcpClient(std::uint16_t port);
};

/// One hostile byte stream plus what the server must do about it. Every
/// case ends with the server dropping the connection; before that it must
/// emit exactly `expected_responses` complete response frames (for the
/// valid frames that precede the violation).
struct AbuseCase {
  std::string name;
  Bytes stream;  // delivered as-is, then the sender half-closes
  std::size_t expected_responses = 0;
};

/// Shared corpus of malformed wire streams: oversized and undersized
/// length prefixes, truncated frames and headers. When `valid_frame` is
/// non-empty (a framed request the serving dispatch table can answer),
/// composed cases — valid frame then violation — are included. A server
/// answers each leading valid frame and then drops the connection.
std::vector<AbuseCase> wire_abuse_corpus(const Bytes& valid_frame = {});

}  // namespace ice::net::testing
