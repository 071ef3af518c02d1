#include "net/reactor.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/error.h"
#include "net/buffer_pool.h"
#include "net/dispatch.h"

namespace ice::net {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;
constexpr int kEpollBatch = 128;
constexpr int kTickMs = 20;  // starvation-check cadence
constexpr auto kOverflowIdle = std::chrono::seconds(1);

[[noreturn]] void fail(const std::string& what) {
  throw TransportError(what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    fail("fcntl(O_NONBLOCK)");
  }
}

}  // namespace

Reactor::Conn::~Conn() {
  if (fd >= 0) ::close(fd);  // backstop; normal teardown closes in finalize
}

Reactor::Reactor(RpcHandler& handler, ReactorLimits limits)
    : handler_(&handler), limits_(limits) {
  if (limits_.base_workers == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    limits_.base_workers = std::max<std::size_t>(4, 2 * (hw ? hw : 1));
  }
  if (limits_.max_workers < limits_.base_workers) {
    limits_.max_workers = limits_.base_workers;
  }
  base_workers_ = limits_.base_workers;
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) fail("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    fail("eventfd");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    ::close(wake_fd_);
    ::close(epoll_fd_);
    fail("epoll_ctl(wake)");
  }
  read_chunk_.resize(kReadChunk);
  loop_thread_ = std::thread([this] { loop(); });
}

Reactor::~Reactor() { stop(); }

void Reactor::listen(int listen_fd) {
  set_nonblocking(listen_fd);
  listen_fd_ = listen_fd;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd, &ev) < 0) {
    fail("epoll_ctl(listen)");
  }
}

void Reactor::adopt(int fd) {
  if (stopping_.load(std::memory_order_relaxed)) {
    ::close(fd);
    return;
  }
  set_nonblocking(fd);
  const int one = 1;
  // No-op (ENOTSUP/EOPNOTSUPP) on AF_UNIX socketpairs from the test harness.
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  {
    std::lock_guard lock(retire_mu_);
    adopt_list_.push_back(fd);
  }
  wake_loop();
}

void Reactor::wake_loop() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

std::size_t Reactor::workers() const {
  std::lock_guard lock(pool_mu_);
  return total_workers_;
}

void Reactor::stop() {
  if (stopping_.exchange(true)) return;
  wake_loop();
  if (loop_thread_.joinable()) loop_thread_.join();
  std::vector<std::thread> workers;
  {
    std::lock_guard lock(pool_mu_);
    workers_stopping_ = true;
    workers.swap(worker_threads_);
  }
  pool_cv_.notify_all();
  for (auto& w : workers) {
    if (w.joinable()) w.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
}

void Reactor::loop() {
  epoll_event events[kEpollBatch];
  auto last_tick = std::chrono::steady_clock::now();
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int n = ::epoll_wait(epoll_fd_, events, kEpollBatch, kTickMs);
    if (stopping_.load(std::memory_order_relaxed)) break;

    // Mail from workers (retires) and other threads (adoptions).
    std::vector<std::shared_ptr<Conn>> retires;
    std::vector<int> adopts;
    {
      std::lock_guard lock(retire_mu_);
      retires.swap(retire_list_);
      adopts.swap(adopt_list_);
    }
    for (const auto& conn : retires) finalize(conn);
    for (int fd : adopts) add_conn(fd);

    std::vector<Task> tasks;
    std::vector<std::shared_ptr<Conn>> to_finalize;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drain = 0;
        while (::read(wake_fd_, &drain, sizeof drain) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_) {
        handle_accept();
        continue;
      }
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // closed earlier this batch
      const std::shared_ptr<Conn>& conn = it->second;
      bool hard_error = false;
      {
        std::lock_guard lock(conn->mu);
        if (conn->dead) continue;
        if (conn->state.has_writable() && !flush_locked(conn)) {
          hard_error = true;
        }
        if (!hard_error && (events[i].events & (EPOLLIN | EPOLLHUP))) {
          on_readable(conn, tasks);
          if (conn->dead) hard_error = true;  // read error teardown
        }
        if (!hard_error) {
          update_interest_locked(conn);
          if (should_retire_locked(*conn)) conn->retiring = true;
          if (conn->retiring) hard_error = true;  // finalize below
        }
      }
      if (hard_error) to_finalize.push_back(conn);
    }
    for (const auto& conn : to_finalize) finalize(conn);
    if (!tasks.empty()) enqueue_tasks(std::move(tasks));

    const auto now = std::chrono::steady_clock::now();
    if (now - last_tick >= std::chrono::milliseconds(kTickMs)) {
      check_starvation();
      last_tick = now;
    }
  }

  // Teardown: close every connection so blocked peers observe EOF, and
  // close any sockets mailed to us that never got registered.
  std::vector<int> adopts;
  {
    std::lock_guard lock(retire_mu_);
    adopts.swap(adopt_list_);
    retire_list_.clear();
  }
  for (int fd : adopts) ::close(fd);
  for (auto& [fd, conn] : conns_) {
    std::lock_guard lock(conn->mu);
    conn->dead = true;
    if (conn->fd >= 0) {
      ::close(conn->fd);
      conn->fd = -1;
    }
  }
  conns_.clear();
  connection_count_.store(0, std::memory_order_relaxed);
}

void Reactor::handle_accept() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or the listener died
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    add_conn(fd);
  }
}

void Reactor::add_conn(int fd) {
  auto conn = std::make_shared<Conn>(fd, limits_);
  if (limits_.max_connections > 0 &&
      connection_count_.load(std::memory_order_relaxed) >=
          limits_.max_connections) {
    conn->rejected = true;
  }
  conn->events = EPOLLIN;
  epoll_event ev{};
  ev.events = conn->events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    return;  // fd closed by Conn destructor
  }
  conns_.emplace(fd, std::move(conn));
  connection_count_.fetch_add(1, std::memory_order_relaxed);
}

void Reactor::on_readable(const std::shared_ptr<Conn>& conn,
                          std::vector<Task>& tasks) {
  while (conn->state.wants_read() && !conn->eof) {
    const ssize_t n = ::recv(conn->fd, read_chunk_.data(),
                             read_chunk_.size(), MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      // Hard socket error: responses are undeliverable, drop the client.
      conn->dead = true;
      return;
    }
    if (n == 0) {
      conn->eof = true;
      break;
    }
    const bool ok = conn->state.feed(
        BytesView(read_chunk_.data(), static_cast<std::size_t>(n)));
    RequestFrame rf;
    while (conn->state.take_request(rf)) {
      if (conn->rejected) {
        // Admission control: over the connection limit every request is
        // answered with a kResourceExhausted envelope, then the
        // connection closes once the reply has flushed.
        conn->state.complete(
            rf.seq, encode_error(Status::kResourceExhausted,
                                 "TcpServer: connection limit reached"));
        conn->close_after_flush = true;
        rf.payload = Bytes();
      } else {
        tasks.push_back(Task{conn, std::move(rf)});
      }
    }
    if (!ok) break;  // framing violation; parsed requests still answer
    if (static_cast<std::size_t>(n) < read_chunk_.size()) break;
  }
  if (conn->state.has_writable()) (void)flush_locked(conn);
}

bool Reactor::flush_locked(const std::shared_ptr<Conn>& conn) {
  if (conn->dead || conn->fd < 0) return false;
  BytesView spans[16];
  iovec iov[16];
  while (conn->state.has_writable()) {
    const std::size_t k = conn->state.gather(spans, 16);
    std::size_t total = 0;
    for (std::size_t i = 0; i < k; ++i) {
      iov[i].iov_base = const_cast<std::uint8_t*>(spans[i].data());
      iov[i].iov_len = spans[i].size();
      total += spans[i].size();
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = k;
    const ssize_t n = ::sendmsg(conn->fd, &msg,
                                MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      conn->dead = true;
      return false;
    }
    conn->state.advance(static_cast<std::size_t>(n));
    if (static_cast<std::size_t>(n) < total) return true;  // kernel full
  }
  return true;
}

void Reactor::update_interest_locked(const std::shared_ptr<Conn>& conn) {
  if (conn->dead || conn->fd < 0) return;
  std::uint32_t desired = 0;
  if (!conn->eof && !conn->close_after_flush && conn->state.wants_read()) {
    desired |= EPOLLIN;
  }
  if (conn->state.has_writable()) desired |= EPOLLOUT;
  if (desired == conn->events) return;
  epoll_event ev{};
  ev.events = desired;
  ev.data.fd = conn->fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev) == 0) {
    conn->events = desired;
  }
}

bool Reactor::should_retire_locked(const Conn& conn) {
  if (conn.retiring || conn.dead) return false;
  if (!conn.state.drained()) return false;
  return conn.eof || conn.state.broken() || conn.close_after_flush;
}

void Reactor::request_retire_locked(const std::shared_ptr<Conn>& conn) {
  conn->retiring = true;
  {
    std::lock_guard lock(retire_mu_);
    retire_list_.push_back(conn);
  }
  wake_loop();
}

void Reactor::finalize(const std::shared_ptr<Conn>& conn) {
  int key = -1;
  {
    std::lock_guard lock(conn->mu);
    conn->dead = true;
    if (conn->fd >= 0) {
      key = conn->fd;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
      ::close(conn->fd);
      conn->fd = -1;
    }
  }
  if (key >= 0) {
    conns_.erase(key);
    connection_count_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Reactor::enqueue_tasks(std::vector<Task>&& tasks) {
  std::size_t added = tasks.size();
  {
    std::lock_guard lock(pool_mu_);
    for (auto& t : tasks) tasks_.push_back(std::move(t));
    while (idle_workers_ < tasks_.size() &&
           total_workers_ < base_workers_ && !workers_stopping_) {
      spawn_worker_locked();
    }
  }
  if (added == 1) {
    pool_cv_.notify_one();
  } else {
    pool_cv_.notify_all();
  }
}

void Reactor::spawn_worker_locked() {
  ++total_workers_;
  worker_threads_.emplace_back([this] { worker_loop(); });
}

void Reactor::check_starvation() {
  std::lock_guard lock(pool_mu_);
  const bool starved = !tasks_.empty() && idle_workers_ == 0 &&
                       dequeue_count_ == last_tick_dequeues_;
  if (starved && total_workers_ < limits_.max_workers &&
      !workers_stopping_) {
    // Every worker is blocked (nested outbound calls) while work queues:
    // add an overflow worker so a service call cycle cannot deadlock.
    spawn_worker_locked();
  }
  last_tick_dequeues_ = dequeue_count_;
}

void Reactor::worker_loop() {
  for (;;) {
    Task task;
    {
      std::unique_lock lock(pool_mu_);
      while (tasks_.empty()) {
        if (workers_stopping_) {
          --total_workers_;
          return;
        }
        ++idle_workers_;
        const bool timed_out =
            pool_cv_.wait_for(lock, kOverflowIdle) ==
            std::cv_status::timeout;
        --idle_workers_;
        if (timed_out && tasks_.empty() && !workers_stopping_ &&
            total_workers_ > base_workers_) {
          --total_workers_;  // overflow worker idled out
          return;
        }
      }
      task = std::move(tasks_.front());
      tasks_.pop_front();
      ++dequeue_count_;
    }

    Bytes response;
    bool ok = true;
    try {
      response = handler_->handle(task.req.method, task.req.payload);
    } catch (const std::exception&) {
      ok = false;  // drop this client, keep serving the others
    }
    // The consumed request payload refills this worker's BufferPool,
    // balancing the pooled Writer its handler response was built from.
    BufferPool::local().release(std::move(task.req.payload));

    const std::shared_ptr<Conn>& conn = task.conn;
    std::lock_guard lock(conn->mu);
    if (conn->dead) {
      BufferPool::local().release(std::move(response));
      continue;
    }
    if (!ok) {
      request_retire_locked(conn);
      continue;
    }
    conn->state.complete(task.req.seq, std::move(response));
    if (!flush_locked(conn)) {
      request_retire_locked(conn);
      continue;
    }
    update_interest_locked(conn);
    if (should_retire_locked(*conn)) request_retire_locked(conn);
  }
}

}  // namespace ice::net
