// A channel that forwards every call and keeps a copy, so a test can read
// what an owner-driven audit asked (207 to an edge, 103 and 104 to the CSP)
// and what came back.
#pragma once

#include <cstdint>
#include <vector>

#include "bignum/bigint.h"
#include "common/bytes.h"
#include "ice/wire.h"
#include "net/rpc.h"
#include "net/serde.h"

namespace ice::testing {

/// One decoded (e, g_s, [index]...) -> (proof) call; `proof` is 0 when the
/// reply was an error envelope.
struct OwnerChallenge {
  bn::BigInt e;
  bn::BigInt g_s;
  std::vector<std::size_t> indices;
  bn::BigInt proof;
};

class RecordingChannel final : public net::RpcChannel {
 public:
  /// `inner` is non-owning and must outlive the recorder.
  explicit RecordingChannel(net::RpcChannel& inner) : inner_(&inner) {}

  Bytes call(std::uint16_t method, BytesView request) override {
    Bytes reply = inner_->call(method, request);
    calls_.push_back({method, Bytes(request.begin(), request.end()), reply});
    return reply;
  }
  [[nodiscard]] const net::ChannelStats& stats() const override {
    return inner_->stats();
  }
  void reset_stats() override { inner_->reset_stats(); }

  /// The raw requests of `method`, in call order.
  [[nodiscard]] std::vector<Bytes> requests(std::uint16_t method) const {
    std::vector<Bytes> out;
    for (const Call& c : calls_) {
      if (c.method == method) out.push_back(c.request);
    }
    return out;
  }

  /// The recorded calls of `method` (kEdgeSubsetProof or kCspChallenge),
  /// decoded, in call order.
  [[nodiscard]] std::vector<OwnerChallenge> challenges(
      std::uint16_t method) const {
    std::vector<OwnerChallenge> out;
    for (const Call& c : calls_) {
      if (c.method != method) continue;
      OwnerChallenge oc;
      net::Reader req(c.request);
      oc.e = req.bigint();
      oc.g_s = req.bigint();
      oc.indices = proto::read_index_list(req);
      net::Reader rep(c.reply);
      if (static_cast<net::Status>(rep.u16()) == net::Status::kOk) {
        oc.proof = rep.bigint();
      }
      out.push_back(std::move(oc));
    }
    return out;
  }

 private:
  struct Call {
    std::uint16_t method;
    Bytes request;
    Bytes reply;
  };
  net::RpcChannel* inner_;
  std::vector<Call> calls_;
};

}  // namespace ice::testing
