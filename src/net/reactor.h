// Epoll reactor serving the RPC plane.
//
// Threading model (DESIGN.md §12): ONE I/O loop thread owns the epoll set,
// all socket reads, frame parsing (ConnState) and connection lifecycle; an
// elastic pool of handler workers executes dispatch-table calls and stages
// responses. Idle connections cost a few KB of state and zero threads, so
// one reactor serves tens of thousands of concurrent sessions without a
// thread per connection.
//
// Request pipelining: many requests may be in flight per connection (up to
// ReactorLimits::max_pipeline); handlers run concurrently and may finish in
// any order, but responses are written back strictly in request order
// (ConnState's staging), which is what the frame format — no request ids —
// requires and what a multiplexing TcpChannel relies on.
//
// Backpressure and admission control: a connection whose pipelining window
// is full or whose write queue is over budget stops being read (EPOLLIN is
// dropped and restored as responses drain); beyond max_connections, new
// connections have every request answered with a kResourceExhausted status
// envelope and are closed after the first response flushes.
//
// Worker elasticity: base_workers threads are kept alive. Handlers may
// block inside nested outbound RPCs (a TPA challenging an edge mid-audit),
// and service call graphs contain cycles (edge → TPA proof submission while
// the TPA waits on that edge), so a fixed pool can starve or even deadlock.
// The loop therefore watches for starvation — queued requests, no idle
// worker, and no task dequeued for a whole tick — and spawns an overflow
// worker (bounded by max_workers); overflow workers retire after ~1s idle.
// Steady-state thread count tracks handler concurrency, never connection
// count.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/conn_state.h"
#include "net/rpc.h"

namespace ice::net {

class Reactor {
 public:
  /// `handler` is non-owning and must outlive the reactor. The loop thread
  /// starts immediately; sockets arrive via listen() / adopt().
  explicit Reactor(RpcHandler& handler, ReactorLimits limits = {});
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Takes ownership of a bound+listening socket and accepts from it.
  void listen(int listen_fd);

  /// Takes ownership of an already-connected socket and serves it — the
  /// accept path uses this internally; tests drive the reactor through a
  /// socketpair end (tests/support/fake_transport.h).
  void adopt(int fd);

  /// Stops accepting, closes every connection, drains workers (idempotent).
  void stop();

  /// Live connections (admitted + rejected, still open).
  [[nodiscard]] std::size_t connections() const {
    return connection_count_.load(std::memory_order_relaxed);
  }

  /// Current worker thread count (base + overflow).
  [[nodiscard]] std::size_t workers() const;

  [[nodiscard]] const ReactorLimits& limits() const { return limits_; }

 private:
  struct Conn {
    Conn(int fd, const ReactorLimits& limits) : fd(fd), state(limits) {}
    ~Conn();

    std::mutex mu;
    int fd;                       // -1 once closed (under mu)
    ConnState state;
    bool dead = false;            // no further I/O; fd closed or closing
    bool eof = false;             // peer half-closed; drain then retire
    bool rejected = false;        // over max_connections: kResourceExhausted
    bool close_after_flush = false;
    bool retiring = false;        // queued on the retire list already
    std::uint32_t events = 0;     // current epoll interest mask
  };

  struct Task {
    std::shared_ptr<Conn> conn;
    RequestFrame req;
  };

  void loop();
  void handle_accept();
  void add_conn(int fd);
  void on_readable(const std::shared_ptr<Conn>& conn,
                   std::vector<Task>& tasks);
  /// Sends as much staged output as the socket accepts. Called with
  /// conn->mu held, from the loop or a worker. Returns false when the
  /// connection broke mid-write.
  bool flush_locked(const std::shared_ptr<Conn>& conn);
  /// Recomputes the epoll interest mask. Called with conn->mu held.
  void update_interest_locked(const std::shared_ptr<Conn>& conn);
  /// True when the connection has nothing left to do and should close.
  static bool should_retire_locked(const Conn& conn);
  /// Queues the connection for loop-thread teardown and wakes the loop.
  /// Called with conn->mu held.
  void request_retire_locked(const std::shared_ptr<Conn>& conn);
  /// Loop thread: closes the fd and forgets the connection.
  void finalize(const std::shared_ptr<Conn>& conn);
  void wake_loop();

  void enqueue_tasks(std::vector<Task>&& tasks);
  void spawn_worker_locked();
  void worker_loop();
  void check_starvation();

  RpcHandler* handler_;
  ReactorLimits limits_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;    // eventfd: retire requests, stop
  int listen_fd_ = -1;  // owned once listen() is called
  std::atomic<bool> stopping_{false};
  std::thread loop_thread_;

  // Loop-thread state.
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;  // by fd
  Bytes read_chunk_;  // reused recv scratch
  std::atomic<std::size_t> connection_count_{0};

  // Mail to the loop: retire requests from workers (and the loop itself)
  // and adopted sockets awaiting registration.
  std::mutex retire_mu_;
  std::vector<std::shared_ptr<Conn>> retire_list_;
  std::vector<int> adopt_list_;

  // Worker pool.
  mutable std::mutex pool_mu_;
  std::condition_variable pool_cv_;
  std::deque<Task> tasks_;
  std::vector<std::thread> worker_threads_;
  std::size_t total_workers_ = 0;
  std::size_t idle_workers_ = 0;
  std::size_t base_workers_ = 0;
  bool workers_stopping_ = false;
  std::uint64_t dequeue_count_ = 0;        // guarded by pool_mu_
  std::uint64_t last_tick_dequeues_ = 0;   // loop thread only
};

}  // namespace ice::net
