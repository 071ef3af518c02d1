// Differential transport test: identical fresh service deployments, one
// served through reactor-backed TcpServers and one answered in-process by
// calling the handlers directly, driven with scripted wire corpora
// (method-id sweep x payload variants, a pipelined stream). The two must
// produce byte-for-byte identical responses — the transport frames and
// orders calls, it does not reinterpret the protocol. The shared abuse
// corpus has no in-process form, so it runs against the served deployment
// alone.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "ice/wire.h"
#include "sim/deployment.h"
#include "support/fake_transport.h"
#include "support/ice_fixtures.h"

namespace ice::proto {
namespace {

using net::testing::AbuseCase;
using net::testing::frame_request;
using net::testing::RawTcpClient;
using net::testing::wire_abuse_corpus;

/// A fresh deployment (no tags stored) with one edge. When `served`,
/// every service sits behind its own TcpServer and every channel is TCP;
/// otherwise callers use handler_for(). The service state is constructed
/// identically either way, and each corpus is replayed in the same order,
/// so state evolution matches too.
struct Deployment : sim::Deployment {
  explicit Deployment(bool served)
      : sim::Deployment(ice::testing::test_params(64),
                        ice::testing::test_keypair_256(), 16, 1, 8, 31337,
                        served ? sim::Transport::kTcp
                               : sim::Transport::kInProcess) {}

  /// The service a method id belongs to (by the wire.h numbering bands).
  net::RpcHandler& handler_for(std::uint16_t method) {
    if (method < 200) return csp();
    if (method < 300) return edge(0);
    return tpa(0);
  }
  std::uint16_t port_for(std::uint16_t method) const {
    if (method < 200) return csp_port();
    if (method < 300) return edge_port(0);
    return tpa_port(0);
  }
};

struct WireCase {
  std::uint16_t method;
  Bytes payload;
};

/// Method-id sweep x payload variants. Every case must behave
/// deterministically (success with deterministic output, or a decode /
/// unknown-method / state error envelope) — payloads are crafted so no
/// variant accidentally forms a valid randomized call (e.g. kTpaBatchBegin
/// returns a random blind, so nothing here decodes as its two varints).
std::vector<WireCase> scripted_corpus() {
  const std::vector<Bytes> payloads = {
      {},                                            // truncated args
      {0x00},                                        // one varint: index 0
      Bytes(8, 0xff),                                // overlong varint
      {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b,
       0x0c, 0x0d, 0x0e, 0x0f, 0x10},                // trailing garbage
  };
  // Every registered method plus unknown ids inside each band.
  const std::vector<std::uint16_t> methods = {
      90,  99,  100,             kCspFetch,       kCspWriteBack,
      kCspSetKey,   kCspChallenge, 150, kEdgeRead, kEdgeWrite,
      kEdgeIndexQuery, kEdgeShareBlind, kEdgeChallenge, kEdgeBatchChallenge,
      kEdgeFlush,   kEdgeSubsetProof, 250, kTpaSetKey, kTpaStoreTags,
      kTpaShardQuery, kTpaStartAudit, kTpaSubmitRepacked, kTpaSubmitProof,
      kTpaBatchFinish, kTpaUpdateTag, 320,
  };
  std::vector<WireCase> corpus;
  for (const auto method : methods) {
    for (const auto& payload : payloads) {
      corpus.push_back({method, payload});
    }
  }
  return corpus;
}

std::string hex(const Bytes& b) {
  std::ostringstream out;
  for (const auto byte : b) {
    out << std::hex << (byte >> 4) << (byte & 0xf);
  }
  return out.str();
}

/// Replays the scripted corpus against the served deployment, one
/// connection per case, and returns the transcript of response frames.
std::vector<Bytes> replay_scripted_tcp(Deployment& d) {
  std::vector<Bytes> transcript;
  for (const WireCase& c : scripted_corpus()) {
    RawTcpClient client(d.port_for(c.method));
    client.send_request(c.method, c.payload);
    transcript.push_back(client.recv_response());
  }
  return transcript;
}

/// The same corpus answered in-process.
std::vector<Bytes> replay_scripted_direct(Deployment& d) {
  std::vector<Bytes> transcript;
  for (const WireCase& c : scripted_corpus()) {
    transcript.push_back(d.handler_for(c.method).handle(c.method, c.payload));
  }
  return transcript;
}

TEST(TransportDiffTest, ScriptedCorpusMatchesByteForByte) {
  Deployment direct(/*served=*/false);
  Deployment served(/*served=*/true);
  const auto expected = replay_scripted_direct(direct);
  const auto actual = replay_scripted_tcp(served);
  ASSERT_EQ(expected.size(), actual.size());
  const auto corpus = scripted_corpus();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(hex(expected[i]), hex(actual[i]))
        << "method " << corpus[i].method << " payload "
        << hex(corpus[i].payload);
  }
}

/// Deterministic CSP requests, pipelined on one connection when served.
std::vector<WireCase> pipelined_cases() {
  return {
      {kCspFetch, {0x02}}, {kCspFetch, {0x00}}, {kCspFetch, {0x05}},
      {kCspFetch, {0x02}}, {999, {}},  // unknown method mid-pipeline
      {kCspFetch, {0x01}},
  };
}

std::vector<Bytes> replay_pipelined_tcp(Deployment& d) {
  const std::vector<WireCase> cases = pipelined_cases();
  Bytes stream;
  for (const WireCase& c : cases) {
    const Bytes f = frame_request(c.method, c.payload);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  RawTcpClient client(d.csp_port());
  client.send(stream);
  std::vector<Bytes> transcript;
  transcript.reserve(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    transcript.push_back(client.recv_response());
  }
  return transcript;
}

std::vector<Bytes> replay_pipelined_direct(Deployment& d) {
  std::vector<Bytes> transcript;
  for (const WireCase& c : pipelined_cases()) {
    transcript.push_back(d.csp().handle(c.method, c.payload));
  }
  return transcript;
}

TEST(TransportDiffTest, PipelinedStreamMatchesByteForByte) {
  Deployment direct(/*served=*/false);
  Deployment served(/*served=*/true);
  const auto expected = replay_pipelined_direct(direct);
  const auto actual = replay_pipelined_tcp(served);
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(hex(expected[i]), hex(actual[i])) << "response " << i;
  }
}

// Every abuse case answers its leading valid frames and then drops the
// connection with nothing further, against the real services.
TEST(TransportDiffTest, AbuseCorpusDropsConnectionsAtTheServices) {
  Deployment served(/*served=*/true);
  const Bytes valid = frame_request(kCspFetch, Bytes{0x00});
  for (const AbuseCase& abuse : wire_abuse_corpus(valid)) {
    SCOPED_TRACE(abuse.name);
    RawTcpClient client(served.csp_port());
    client.send(abuse.stream);
    client.shutdown_write();
    for (std::size_t i = 0; i < abuse.expected_responses; ++i) {
      EXPECT_GE(client.recv_response().size(), net::kStatusEnvelopeBytes);
    }
    EXPECT_TRUE(client.eof_within()) << "connection not dropped";
  }
}

}  // namespace
}  // namespace ice::proto
