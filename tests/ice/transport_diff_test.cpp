// Differential transport test: identical fresh service deployments behind
// the legacy blocking TcpServer and the epoll reactor, driven with scripted
// wire corpuses (method-id sweep x payload variants, pipelined streams, the
// shared abuse corpus). The two paths must produce byte-for-byte identical
// response streams and identical connection fates — the reactor is a
// drop-in replacement, not a reinterpretation of the protocol.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "ice/csp_service.h"
#include "ice/edge_service.h"
#include "ice/tpa_service.h"
#include "ice/wire.h"
#include "mec/block_store.h"
#include "mec/edge_cache.h"
#include "net/tcp.h"
#include "support/fake_transport.h"
#include "support/ice_fixtures.h"

namespace ice::proto {
namespace {

using net::testing::AbuseCase;
using net::testing::frame_request;
using net::testing::RawTcpClient;
using net::testing::wire_abuse_corpus;

/// One CSP + edge + TPA deployment with every server in the given mode.
/// The service state is constructed identically on both sides, and the
/// corpus is replayed in the same order, so state evolution matches too.
struct Deployment {
  explicit Deployment(bool use_reactor)
      : params(ice::testing::test_params(64)),
        keys(ice::testing::test_keypair_256()),
        csp(mec::BlockStore::synthetic(16, 64, 31337)),
        options{use_reactor, {}},
        csp_server(csp, 0, options),
        tpa_server(tpa, 0, options),
        csp_channel("127.0.0.1", csp_server.port()),
        edge(0, params, keys.pk, mec::EdgeCache(8, mec::EvictionPolicy::kLru),
             csp_channel, nullptr),
        edge_server(edge, 0, options) {}

  /// The server a method id belongs to (by the wire.h numbering bands).
  net::TcpServer& server_for(std::uint16_t method) {
    if (method < 200) return csp_server;
    if (method < 300) return edge_server;
    return tpa_server;
  }

  ProtocolParams params;
  KeyPair keys;
  CspService csp;
  TpaService tpa;
  net::TcpServerOptions options;
  net::TcpServer csp_server;
  net::TcpServer tpa_server;
  net::TcpChannel csp_channel;
  EdgeService edge;
  net::TcpServer edge_server;
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
      90,  99,  kCspInfo,        kCspFetch,       kCspWriteBack,
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

/// Replays the scripted corpus against one deployment, one connection per
/// case, and returns the transcript of response frames.
std::vector<Bytes> replay_scripted(Deployment& d) {
  std::vector<Bytes> transcript;
  for (const WireCase& c : scripted_corpus()) {
    RawTcpClient client(d.server_for(c.method).port());
    client.send_request(c.method, c.payload);
    transcript.push_back(client.recv_response());
  }
  return transcript;
}

TEST(TransportDiffTest, ScriptedCorpusMatchesByteForByte) {
  Deployment blocking(false);
  Deployment reactor(true);
  const auto expected = replay_scripted(blocking);
  const auto actual = replay_scripted(reactor);
  ASSERT_EQ(expected.size(), actual.size());
  const auto corpus = scripted_corpus();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(hex(expected[i]), hex(actual[i]))
        << "method " << corpus[i].method << " payload "
        << hex(corpus[i].payload);
  }
}

/// Pipelined stream of deterministic requests on a single connection.
std::vector<Bytes> replay_pipelined(Deployment& d) {
  Bytes stream;
  const std::vector<WireCase> cases = {
      {kCspInfo, {}}, {kCspFetch, {0x00}}, {kCspFetch, {0x05}},
      {kCspInfo, {}}, {999, {}},  // unknown method mid-pipeline
      {kCspFetch, {0x01}},
  };
  for (const WireCase& c : cases) {
    const Bytes f = frame_request(c.method, c.payload);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  RawTcpClient client(d.csp_server.port());
  client.send(stream);
  std::vector<Bytes> transcript;
  transcript.reserve(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    transcript.push_back(client.recv_response());
  }
  return transcript;
}

TEST(TransportDiffTest, PipelinedStreamMatchesByteForByte) {
  Deployment blocking(false);
  Deployment reactor(true);
  const auto expected = replay_pipelined(blocking);
  const auto actual = replay_pipelined(reactor);
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(hex(expected[i]), hex(actual[i])) << "response " << i;
  }
}

/// The abuse corpus must produce the same responses and the same dropped
/// connections on both paths.
void replay_abuse(Deployment& d, const std::string& mode) {
  const Bytes valid = frame_request(kCspInfo, {});
  for (const AbuseCase& abuse : wire_abuse_corpus(valid)) {
    SCOPED_TRACE(mode + ": " + abuse.name);
    RawTcpClient client(d.csp_server.port());
    client.send(abuse.stream);
    client.shutdown_write();
    std::vector<Bytes> responses;
    for (std::size_t i = 0; i < abuse.expected_responses; ++i) {
      responses.push_back(client.recv_response());
    }
    // Any leading valid frames got real responses on both paths...
    for (const auto& r : responses) {
      EXPECT_GE(r.size(), net::kStatusEnvelopeBytes);
    }
    // ...then the violation closes the connection with nothing further.
    EXPECT_TRUE(client.eof_within()) << "connection not dropped";
  }
}

TEST(TransportDiffTest, AbuseCorpusDropsIdenticallyOnBothPaths) {
  Deployment blocking(false);
  Deployment reactor(true);
  replay_abuse(blocking, "blocking");
  replay_abuse(reactor, "reactor");
}

}  // namespace
}  // namespace ice::proto
