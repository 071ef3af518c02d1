#include "trace.h"

#include <chrono>
#include <cstdio>

#include "common/error.h"
#include "ice/wire.h"
#include "net/serde.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

std::int64_t clock_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// The handle span running on this thread, parent of the calls it makes.
thread_local std::int32_t current_handle = -1;

std::uint16_t response_status(const ice::Bytes& response) {
  if (response.size() < 2) return kTransportFailed;
  ice::net::Reader r(response);
  return r.u16();
}

}  // namespace

const char* kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kHandle: return "handle";
    case SpanKind::kCall: return "call";
    case SpanKind::kAudit: return "audit";
    case SpanKind::kBatchAudit: return "batch_audit";
    case SpanKind::kRetrieve: return "retrieve";
    case SpanKind::kUpdate: return "update";
    case SpanKind::kClose: return "close";
  }
  return "?";
}

std::uint32_t thread_tag() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t tag = next.fetch_add(1);
  return tag;
}

Tracer::Tracer() : origin_(clock_ns()) { spans_.reserve(1 << 16); }

std::int64_t Tracer::now() const { return clock_ns() - origin_; }

std::uint16_t Tracer::add_site(std::string name) {
  sites_.push_back(std::move(name));
  return static_cast<std::uint16_t>(sites_.size() - 1);
}

void Tracer::record(Span span) {
  span.thread = thread_tag();
  std::lock_guard lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

bool Tracer::dump(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "id,parent,kind,site,method,status,points,thread,t0_ns,t1_ns,"
               "bytes_out,bytes_in\n");
  for (const Span& s : spans()) {
    std::fprintf(f, "%d,%d,%s,%s,%u,%u,%u,%u,%lld,%lld,%llu,%llu\n", s.id,
                 s.parent, kind_name(s.kind), sites_[s.site].c_str(),
                 s.method, s.status, s.points, s.thread,
                 static_cast<long long>(s.t0), static_cast<long long>(s.t1),
                 static_cast<unsigned long long>(s.bytes_out),
                 static_cast<unsigned long long>(s.bytes_in));
  }
  return std::fclose(f) == 0;
}

ice::Bytes TracedHandler::handle(std::uint16_t method,
                                 ice::BytesView request) {
  Span span;
  span.kind = SpanKind::kHandle;
  span.id = tracer_->next_id();
  span.parent = current_handle;
  span.method = method;
  span.site = site_;
  span.bytes_in = request.size();
  const std::int32_t outer = current_handle;
  current_handle = span.id;
  span.t0 = tracer_->now();
  ice::Bytes response;
  try {
    response = inner_->handle(method, request);
  } catch (...) {
    current_handle = outer;
    span.t1 = tracer_->now();
    span.status = kTransportFailed;
    tracer_->record(span);
    throw;
  }
  span.t1 = tracer_->now();
  current_handle = outer;
  span.status = response_status(response);
  span.bytes_out = response.size();
  tracer_->record(span);
  return response;
}

ice::Bytes TracedChannel::call(std::uint16_t method, ice::BytesView request) {
  Span span;
  span.kind = SpanKind::kCall;
  span.id = tracer_->next_id();
  span.parent = current_handle;
  span.method = method;
  span.site = site_;
  span.bytes_out = request.size();
  if (method == ice::proto::kTpaShardQuery) {
    ice::net::Reader r(request);
    span.points = static_cast<std::uint32_t>(
        ice::proto::read_sharded_query(r).total_points());
  }
  span.t0 = tracer_->now();
  ice::Bytes response;
  try {
    response = inner_->call(method, request);
  } catch (const ice::TransportError&) {
    span.t1 = tracer_->now();
    span.status = kTransportFailed;
    tracer_->record(span);
    throw;
  }
  span.t1 = tracer_->now();
  span.status = response_status(response);
  span.bytes_in = response.size();
  tracer_->record(span);
  return response;
}

}  // namespace perfbench
