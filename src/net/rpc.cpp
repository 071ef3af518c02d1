#include "net/rpc.h"

#include <future>

namespace ice::net {

namespace {

/// The base path: call() on a thread of its own. The future's destructor
/// joins that thread, so a call dropped without wait() still ends before
/// its channel can go.
class ThreadedCall final : public PendingCall::State {
 public:
  explicit ThreadedCall(std::future<Bytes> reply) : reply_(std::move(reply)) {}

  Bytes wait() override { return reply_.get(); }

 private:
  std::future<Bytes> reply_;
};

}  // namespace

Bytes PendingCall::wait() {
  if (state_ == nullptr) throw Error("PendingCall: no call to wait for");
  const std::unique_ptr<State> state = std::move(state_);
  return state->wait();
}

PendingCall RpcChannel::start(std::uint16_t method, BytesView request) {
  return PendingCall(std::make_unique<ThreadedCall>(std::async(
      std::launch::async,
      [this, method, copy = Bytes(request.begin(), request.end())] {
        return call(method, copy);
      })));
}

}  // namespace ice::net
