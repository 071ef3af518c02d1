#include "net/dispatch.h"

namespace ice::net {

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kUnknownMethod: return "unknown_method";
    case Status::kMalformed: return "malformed";
    case Status::kInvalidArgument: return "invalid_argument";
    case Status::kFailedPrecondition: return "failed_precondition";
    case Status::kNotFound: return "not_found";
    case Status::kAlreadyExists: return "already_exists";
    case Status::kResourceExhausted: return "resource_exhausted";
    case Status::kUnavailable: return "unavailable";
    case Status::kInternal: return "internal";
  }
  return "invalid_status";
}

Bytes encode_ok(Writer&& payload) {
  Writer w;
  w.u16(static_cast<std::uint16_t>(Status::kOk));
  const Bytes body = payload.take();
  Bytes out = w.take();
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

Bytes encode_ok_empty() {
  Writer w;
  w.u16(static_cast<std::uint16_t>(Status::kOk));
  return w.take();
}

Bytes encode_error(Status status, std::string_view reason) {
  Writer w;
  w.u16(static_cast<std::uint16_t>(status));
  w.str(reason);
  return w.take();
}

Reader unwrap(const Bytes& response) {
  Reader r(response);
  const std::uint16_t code = r.u16();
  if (code == static_cast<std::uint16_t>(Status::kOk)) return r;
  if (code > static_cast<std::uint16_t>(Status::kInternal)) {
    throw CodecError("unwrap: unknown status code");
  }
  throw RemoteError(static_cast<Status>(code), r.str());
}

PooledBytes call_pooled(RpcChannel& channel, std::uint16_t method,
                        Writer&& request) {
  Bytes frame = request.take();
  Bytes response = channel.call(method, frame);
  BufferPool::local().release(std::move(frame));
  return PooledBytes(std::move(response));
}

PooledBytes call_pooled(RpcChannel& channel, std::uint16_t method) {
  return PooledBytes(channel.call(method, {}));
}

PendingCall start_pooled(RpcChannel& channel, std::uint16_t method,
                         Writer&& request) {
  Bytes frame = request.take();
  PendingCall call = channel.start(method, frame);
  BufferPool::local().release(std::move(frame));
  return call;
}

void Dispatcher::on(std::uint16_t method, std::string_view name,
                    Handler handler) {
  if (!handler) {
    throw ParamError("Dispatcher: null handler for " + std::string(name));
  }
  const auto [it, inserted] = methods_.emplace(
      method, Entry{std::string(name), service_ + "." + std::string(name),
                    std::move(handler)});
  if (!inserted) {
    throw ParamError("Dispatcher: duplicate method id " +
                     std::to_string(method));
  }
}

Bytes Dispatcher::handle(std::uint16_t method, BytesView request) const {
  const auto it = methods_.find(method);
  if (it == methods_.end()) {
    return encode_error(Status::kUnknownMethod,
                        service_ + ": unknown method " +
                            std::to_string(method));
  }
  const std::string& where = it->second.where;
  try {
    // The kOk envelope is written into the SAME pooled frame the handler
    // appends its payload to — one buffer per response, no stitching copy.
    // Error paths below rebuild the frame from scratch; they are cold.
    Reader r(request);
    Writer w;
    w.u16(static_cast<std::uint16_t>(Status::kOk));
    it->second.handler(r, w);
    r.expect_done();  // a handler that leaves trailing bytes mis-parsed
    return w.take();
  } catch (const ServiceError& e) {
    return encode_error(e.status(), where + ": " + e.what());
  } catch (const CodecError& e) {
    return encode_error(Status::kMalformed, where + ": " + e.what());
  } catch (const ParamError& e) {
    return encode_error(Status::kInvalidArgument, where + ": " + e.what());
  } catch (const TransportError& e) {
    return encode_error(Status::kUnavailable, where + ": " + e.what());
  } catch (const ProtocolError& e) {
    // Includes RemoteError: a nested outbound call rejected by its server
    // surfaces to OUR caller as a precondition failure of this method.
    return encode_error(Status::kFailedPrecondition, where + ": " + e.what());
  } catch (const std::exception& e) {
    return encode_error(Status::kInternal, where + ": " + e.what());
  }
}

}  // namespace ice::net
