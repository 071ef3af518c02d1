// Span recorder for the end-to-end audit benchmark.
//
// Spans are taken only from the benchmark's own code, at public boundaries
// of the system under test:
//   - TracedHandler decorates a service's RpcHandler::handle,
//   - TracedChannel decorates a client's RpcChannel::call,
//   - the workload loops time the UserClient entry points they call.
// A call made from inside a traced handler (the TPA challenging an edge,
// an edge submitting a batch proof) records that handler as its parent.
// Spans stay in memory and are written out when the run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "net/rpc.h"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kHandle,      // server side of one RPC
  kCall,        // client side of one RPC
  kAudit,       // UserClient::audit_edge
  kBatchAudit,  // UserClient::audit_edges_batch
  kRetrieve,    // UserClient::retrieve_tags
  kUpdate,      // UserClient::update_block
  kClose,       // UserClient::close_epochs
};

const char* kind_name(SpanKind kind);

/// Status recorded for a call whose channel threw TransportError, or a
/// handle whose service threw.
inline constexpr std::uint16_t kTransportFailed = 0xffff;

struct Span {
  std::int32_t id = -1;
  std::int32_t parent = -1;  // enclosing handle span on the same thread
  SpanKind kind = SpanKind::kHandle;
  std::uint16_t method = 0;  // wire method (kHandle / kCall)
  std::uint16_t site = 0;    // Tracer::site id: service, channel or client
  std::uint16_t status = 0;  // response status envelope (kHandle / kCall)
  std::uint32_t points = 0;  // PIR query points (kTpaShardQuery calls)
  std::uint32_t thread = 0;
  std::int64_t t0 = 0;  // ns since the tracer was created
  std::int64_t t1 = 0;
  std::uint64_t bytes_out = 0;  // request payload (calls) / response (handles)
  std::uint64_t bytes_in = 0;

  [[nodiscard]] double ms() const { return static_cast<double>(t1 - t0) / 1e6; }
};

class Tracer {
 public:
  Tracer();

  /// Nanoseconds since construction (steady clock).
  [[nodiscard]] std::int64_t now() const;

  /// Registers a named site (a service, a channel or a client) and returns
  /// its id. Not thread-safe: register every site during set-up.
  std::uint16_t add_site(std::string name);

  [[nodiscard]] std::int32_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void record(Span span);

  [[nodiscard]] std::vector<Span> spans() const;

  /// Writes every span as one CSV row. Returns false if the file could not
  /// be written.
  bool dump(const std::string& path) const;

 private:
  std::int64_t origin_;
  std::vector<std::string> sites_;
  std::atomic<std::int32_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Small integer naming the calling thread (stable for the thread's life).
std::uint32_t thread_tag();

/// Decorates a service: one kHandle span per request.
class TracedHandler final : public ice::net::RpcHandler {
 public:
  TracedHandler(ice::net::RpcHandler& inner, Tracer& tracer,
                std::uint16_t site)
      : inner_(&inner), tracer_(&tracer), site_(site) {}

  ice::Bytes handle(std::uint16_t method, ice::BytesView request) override;

 private:
  ice::net::RpcHandler* inner_;
  Tracer* tracer_;
  std::uint16_t site_;
};

/// Decorates a client channel: one kCall span per call. Byte accounting is
/// the inner channel's.
class TracedChannel final : public ice::net::RpcChannel {
 public:
  TracedChannel(ice::net::RpcChannel& inner, Tracer& tracer,
                std::uint16_t site)
      : inner_(&inner), tracer_(&tracer), site_(site) {}

  ice::Bytes call(std::uint16_t method, ice::BytesView request) override;

  [[nodiscard]] const ice::net::ChannelStats& stats() const override {
    return inner_->stats();
  }
  void reset_stats() override { inner_->reset_stats(); }

 private:
  ice::net::RpcChannel* inner_;
  Tracer* tracer_;
  std::uint16_t site_;
};

}  // namespace perfbench
