#include "net/tenant.h"

#include "common/error.h"
#include "net/buffer_pool.h"

namespace ice::net {

namespace {

std::uint64_t read_tenant_prefix(BytesView request) {
  if (request.size() < 8) {
    throw CodecError("MultiTenantHandler: missing tenant prefix");
  }
  std::uint64_t id = 0;
  for (int i = 7; i >= 0; --i) {
    id = (id << 8) | request[static_cast<std::size_t>(i)];
  }
  return id;
}

}  // namespace

MultiTenantHandler::MultiTenantHandler(Factory factory)
    : factory_(std::move(factory)) {
  if (!factory_) {
    throw ParamError("MultiTenantHandler: null factory");
  }
}

RpcHandler& MultiTenantHandler::tenant_locked(std::uint64_t id) {
  auto it = tenants_.find(id);
  if (it == tenants_.end()) {
    it = tenants_.emplace(id, factory_(id)).first;
    if (it->second == nullptr) {
      tenants_.erase(it);
      throw ParamError("MultiTenantHandler: factory returned null");
    }
  }
  return *it->second;
}

RpcHandler& MultiTenantHandler::tenant(std::uint64_t id) {
  std::lock_guard lock(mu_);
  return tenant_locked(id);
}

std::size_t MultiTenantHandler::tenant_count() const {
  std::lock_guard lock(mu_);
  return tenants_.size();
}

Bytes MultiTenantHandler::handle(std::uint16_t method, BytesView request) {
  const std::uint64_t id = read_tenant_prefix(request);
  RpcHandler* handler;
  {
    std::lock_guard lock(mu_);
    handler = &tenant_locked(id);
  }
  // Dispatch outside the registry lock: tenants serve concurrently.
  return handler->handle(method, request.subspan(8));
}

Bytes TenantChannel::call(std::uint16_t method, BytesView request) {
  // The prefixed frame is leased from the thread's BufferPool: steady-state
  // tenant calls reuse one buffer instead of allocating per call. The RAII
  // holder returns the capacity even when the inner call throws.
  PooledBytes holder(BufferPool::local().acquire());
  Bytes& prefixed = holder.mut();
  prefixed.resize(8 + request.size());
  for (int i = 0; i < 8; ++i) {
    prefixed[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(tenant_id_ >> (8 * i));
  }
  std::copy(request.begin(), request.end(), prefixed.begin() + 8);
  const Bytes response = inner_->call(method, prefixed);
  stats_.calls++;
  stats_.bytes_sent += prefixed.size() + kRpcHeaderBytes;
  stats_.bytes_received += response.size() + kRpcReplyHeaderBytes;
  return response;
}

}  // namespace ice::net
