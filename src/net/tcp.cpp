#include "net/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <optional>
#include <utility>

#include "common/error.h"
#include "net/buffer_pool.h"
#include "net/reactor.h"

namespace ice::net {

namespace {

constexpr std::uint32_t kMaxFrame = 256u << 20;  // 256 MiB sanity cap

using Clock = std::chrono::steady_clock;
using Deadline = std::optional<Clock::time_point>;

[[noreturn]] void fail(const std::string& what) {
  throw TransportError(what + ": " + std::strerror(errno));
}

/// Blocks until `fd` is ready for `events` or the deadline passes (throws).
void io_wait(int fd, short events, const Deadline& deadline) {
  for (;;) {
    int timeout = -1;
    if (deadline) {
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(
                            *deadline - Clock::now())
                            .count();
      if (left <= 0) {
        throw TransportError("TcpChannel: call deadline exceeded");
      }
      timeout = static_cast<int>(std::min<std::int64_t>(
          left, std::numeric_limits<int>::max()));
    }
    pollfd p{fd, events, 0};
    const int r = ::poll(&p, 1, timeout);
    if (r < 0) {
      if (errno == EINTR) continue;
      fail("poll");
    }
    if (r == 0) throw TransportError("TcpChannel: call deadline exceeded");
    return;
  }
}

void write_all(int fd, const std::uint8_t* data, std::size_t len,
               const Deadline& deadline) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::send(fd, data + done, len - done,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        io_wait(fd, POLLOUT, deadline);
        continue;
      }
      fail("send");
    }
    done += static_cast<std::size_t>(n);
  }
}

/// Returns false on clean EOF at the first byte; throws on errors/short read.
bool read_all(int fd, std::uint8_t* data, std::size_t len,
              const Deadline& deadline) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::recv(fd, data + done, len - done, MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        io_wait(fd, POLLIN, deadline);
        continue;
      }
      fail("recv");
    }
    if (n == 0) {
      if (done == 0) return false;
      throw TransportError("recv: peer closed mid-frame");
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

std::uint32_t decode_u32(const std::uint8_t* b) {
  return std::uint32_t{b[0]} | (std::uint32_t{b[1]} << 8) |
         (std::uint32_t{b[2]} << 16) | (std::uint32_t{b[3]} << 24);
}

void encode_u32(std::uint8_t* b, std::uint32_t v) {
  b[0] = static_cast<std::uint8_t>(v);
  b[1] = static_cast<std::uint8_t>(v >> 8);
  b[2] = static_cast<std::uint8_t>(v >> 16);
  b[3] = static_cast<std::uint8_t>(v >> 24);
}

/// Reads one [u32 frame_len][payload] reply frame.
Bytes read_reply(int fd, const Deadline& deadline) {
  std::uint8_t header[4];
  if (!read_all(fd, header, 4, deadline)) {
    throw TransportError("TcpChannel: server closed connection");
  }
  const std::uint32_t len = decode_u32(header);
  if (len > kMaxFrame) {
    throw TransportError("TcpChannel: bad frame length");
  }
  Bytes reply(len);
  if (len > 0 && !read_all(fd, reply.data(), len, deadline)) {
    throw TransportError("TcpChannel: truncated response");
  }
  return reply;
}

}  // namespace

TcpServer::TcpServer(RpcHandler& handler, std::uint16_t port,
                     ReactorLimits limits) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("socket");
  try {
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      fail("bind");
    }
    socklen_t len = sizeof addr;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
      fail("getsockname");
    }
    port_ = ntohs(addr.sin_port);
    if (::listen(fd, 256) < 0) fail("listen");
    reactor_ = std::make_unique<Reactor>(handler, limits);
  } catch (...) {
    ::close(fd);  // no destructor runs for a throwing constructor
    throw;
  }
  reactor_->listen(fd);  // the reactor owns the fd from here
}

TcpServer::~TcpServer() = default;  // the reactor stops itself

void TcpServer::stop() { reactor_->stop(); }

TcpChannel::TcpChannel(const std::string& host, std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) fail("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    throw TransportError("TcpChannel: bad host address " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    const int saved = errno;
    ::close(fd_);
    errno = saved;
    fail("connect");
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

TcpChannel::~TcpChannel() {
  if (fd_ >= 0) ::close(fd_);
}

/// One started call: its ticket once the request is on the wire. Dropped
/// before wait(), it abandons the ticket, so whoever reads that reply
/// discards it and no destructor blocks.
class TcpChannel::Pending final : public PendingCall::State {
 public:
  Pending(TcpChannel& channel, Deadline deadline)
      : channel_(&channel), deadline_(deadline) {}
  ~Pending() override {
    if (ticket_) channel_->abandon(*ticket_);
  }
  Pending(const Pending&) = delete;
  Pending& operator=(const Pending&) = delete;

  void sent(std::uint64_t ticket) { ticket_ = ticket; }

  Bytes wait() override {
    const std::uint64_t ticket = *std::exchange(ticket_, std::nullopt);
    return channel_->collect(ticket, deadline_);
  }

 private:
  TcpChannel* channel_;
  Deadline deadline_;
  std::optional<std::uint64_t> ticket_;
};

void TcpChannel::poison_locked(const std::string& reason) {
  if (broken_) return;
  broken_ = true;
  broken_reason_ = reason;
  // Wakes a waiter blocked reading the socket under a later deadline (or
  // none): no reply can be delivered in step any more.
  ::shutdown(fd_, SHUT_RDWR);
}

void TcpChannel::poison(const std::string& reason) {
  {
    std::lock_guard lock(recv_mu_);
    poison_locked(reason);
  }
  recv_cv_.notify_all();
}

Bytes TcpChannel::call(std::uint16_t method, BytesView request) {
  return start(method, request).wait();
}

PendingCall TcpChannel::start(std::uint16_t method, BytesView request) {
  const auto ms = deadline_ms_.load(std::memory_order_relaxed);
  Deadline deadline;
  if (ms > 0) deadline = Clock::now() + std::chrono::milliseconds(ms);
  // Allocated before the send: once a request is on the wire its ticket
  // must reach a Pending, which waits for it or abandons it.
  auto pending = std::make_unique<Pending>(*this, deadline);

  // Sends are serialized and assign the wire-order ticket the reply will
  // arrive under.
  std::lock_guard lock(send_mu_);
  {
    std::lock_guard rlock(recv_mu_);
    if (broken_) {
      throw TransportError("TcpChannel: channel poisoned: " + broken_reason_);
    }
  }
  // RAII holder: the frame's capacity goes back to the pool even when
  // write_all throws, so transient send errors don't degrade pooling.
  PooledBytes holder(BufferPool::local().acquire());
  Bytes& frame = holder.mut();
  frame.resize(kRpcHeaderBytes + request.size());
  encode_u32(frame.data(), static_cast<std::uint32_t>(2 + request.size()));
  frame[4] = static_cast<std::uint8_t>(method);
  frame[5] = static_cast<std::uint8_t>(method >> 8);
  std::copy(request.begin(), request.end(), frame.begin() + 6);
  try {
    write_all(fd_, frame.data(), frame.size(), deadline);
  } catch (const std::exception& e) {
    poison(e.what());
    throw;
  }
  pending->sent(next_ticket_++);
  stats_.calls++;
  stats_.bytes_sent += frame.size();
  return PendingCall(std::move(pending));
}

Bytes TcpChannel::collect(std::uint64_t ticket, const Deadline& deadline) {
  std::unique_lock lock(recv_mu_);
  for (;;) {
    if (const auto it = kept_.find(ticket); it != kept_.end()) {
      Bytes reply = std::move(it->second);
      kept_.erase(it);
      return reply;
    }
    if (broken_) {
      throw TransportError("TcpChannel: channel poisoned: " + broken_reason_);
    }
    if (reading_) {
      // Another waiter is reading; if the reply is ours it keeps it.
      const auto moved = [&] {
        return !reading_ || broken_ || kept_.contains(ticket);
      };
      if (!deadline) {
        recv_cv_.wait(lock, moved);
      } else if (!recv_cv_.wait_until(lock, *deadline, moved)) {
        // An earlier reply is stalled past our deadline.
        poison_locked("call deadline exceeded");
        lock.unlock();
        recv_cv_.notify_all();
        throw TransportError("TcpChannel: call deadline exceeded");
      }
      continue;
    }
    // Read the next reply with recv_mu_ free, so senders and the other
    // waiters are not blocked behind the read.
    reading_ = true;
    lock.unlock();
    Bytes reply;
    std::optional<std::string> err;
    try {
      reply = read_reply(fd_, deadline);
    } catch (const std::exception& e) {
      err = e.what();
    }
    lock.lock();
    reading_ = false;
    const std::uint64_t owner = recv_next_++;
    if (err) {
      poison_locked(*err);
      lock.unlock();
      recv_cv_.notify_all();
      throw TransportError(*err);
    }
    stats_.bytes_received += kRpcReplyHeaderBytes + reply.size();
    if (owner == ticket) {
      lock.unlock();
      recv_cv_.notify_all();  // the next reader may go
      return reply;
    }
    if (abandoned_.erase(owner) == 0) kept_.emplace(owner, std::move(reply));
    recv_cv_.notify_all();
  }
}

void TcpChannel::abandon(std::uint64_t ticket) {
  std::lock_guard lock(recv_mu_);
  if (broken_) return;
  // Already read for us: drop it. Otherwise its reader discards it.
  if (kept_.erase(ticket) == 0) abandoned_.insert(ticket);
}

}  // namespace ice::net
