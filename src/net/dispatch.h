// Typed RPC dispatch and the response status envelope.
//
// Every response opens with a u16 status code (rpc.h Status). On kOk the
// reply payload follows; on any other status a utf-8 reason string follows.
// A Dispatcher maps method ids to typed handlers: it decodes nothing itself
// but guarantees that whatever a handler throws is turned into a well-formed
// error envelope — a malformed or hostile request can never crash a server.
// The client-side `unwrap` turns an error envelope into a typed RemoteError.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "net/buffer_pool.h"
#include "net/rpc.h"
#include "net/serde.h"

namespace ice::net {

/// Wraps a reply payload with the kOk envelope.
Bytes encode_ok(Writer&& payload);
/// kOk envelope with an empty reply.
Bytes encode_ok_empty();
/// Error envelope carrying a status code and a reason string.
Bytes encode_error(Status status, std::string_view reason);

/// Client-side unwrap: returns a reader positioned past the envelope, or
/// throws RemoteError carrying the remote status and reason (CodecError if
/// the envelope itself is unparseable). The reader views `response`, so the
/// buffer must stay alive — the rvalue overload is deleted to make
/// `unwrap(channel.call(...))` a compile error.
Reader unwrap(const Bytes& response);
Reader unwrap(Bytes&& response) = delete;
/// PooledBytes overload: the usual holder a stub keeps a response in.
inline Reader unwrap(const PooledBytes& response) {
  return unwrap(response.get());
}

/// One pooled request/response round trip: sends the writer's frame,
/// returns the request buffer's capacity to the thread's BufferPool, and
/// hands back the response in a PooledBytes so its storage is recycled when
/// the stub finishes decoding. Steady-state stub calls allocate nothing on
/// the client side.
PooledBytes call_pooled(RpcChannel& channel, std::uint16_t method,
                        Writer&& request);
/// Empty-request variant.
PooledBytes call_pooled(RpcChannel& channel, std::uint16_t method);
/// start() counterpart of call_pooled: starts the call and returns the
/// request buffer's capacity to the thread's BufferPool (a started request
/// has been sent or copied).
PendingCall start_pooled(RpcChannel& channel, std::uint16_t method,
                         Writer&& request);

/// A stub call in flight: wait() collects the reply, opens its envelope
/// (RemoteError on an error status) and decodes the payload. Move-only.
/// A stub's blocking form stays a plain call rather than its start form's
/// wait(): on a channel that takes the base RpcChannel::start, a started
/// call holds a thread of its own.
template <typename T>
class PendingReply {
 public:
  using Decode = std::function<T(Reader& reply)>;

  PendingReply(PendingCall call, Decode decode)
      : call_(std::move(call)), decode_(std::move(decode)) {}

  /// Throws what the call threw, RemoteError, or what `decode` throws.
  T wait() {
    const PooledBytes reply(call_.wait());
    Reader r = unwrap(reply);
    return decode_(r);
  }

 private:
  PendingCall call_;
  Decode decode_;
};

/// Method table for one service. Built once at service construction, then
/// immutable — handle() is const and safe to call from any number of
/// transport threads concurrently (the handlers themselves must be
/// thread-safe; the table is).
class Dispatcher {
 public:
  /// `service` prefixes every error reason ("TpaService.start_audit: ...").
  explicit Dispatcher(std::string service) : service_(std::move(service)) {}

  /// A handler reads its arguments from `r` and writes its reply to `w`.
  /// Reporting an error is throwing: ServiceError picks the exact status;
  /// library errors are mapped by handle() (see below).
  using Handler = std::function<void(Reader& r, Writer& w)>;

  /// Registers `method` under `name` (used in error messages). Call only
  /// during construction, before the first handle(). Throws ParamError on a
  /// duplicate id or a null handler.
  void on(std::uint16_t method, std::string_view name, Handler handler);

  /// Decodes nothing, crashes never: looks the method up (miss ->
  /// kUnknownMethod), runs the handler, requires the request to be fully
  /// consumed (trailing bytes -> kMalformed), and maps exceptions to
  /// statuses: ServiceError -> its own status, CodecError -> kMalformed,
  /// ParamError -> kInvalidArgument, TransportError -> kUnavailable,
  /// ProtocolError (incl. RemoteError from a nested outbound call) ->
  /// kFailedPrecondition, anything else -> kInternal.
  [[nodiscard]] Bytes handle(std::uint16_t method, BytesView request) const;

 private:
  struct Entry {
    std::string name;
    std::string where;  // "Service.method", built once at registration
    Handler handler;
  };

  std::string service_;
  std::unordered_map<std::uint16_t, Entry> methods_;
};

}  // namespace ice::net
