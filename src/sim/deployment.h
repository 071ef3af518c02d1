// The paper's Fig. 1 system in one process: a CSP over a synthetic n-block
// file, the verifier TPA and the helper TPA (the two non-colluding PIR
// replicas), J edges with LRU caches, and a user. The simulator scenarios,
// the protocol-level benches and the end-to-end tests all build this one
// deployment (DESIGN.md §16).
//
// Wiring: every edge has its own channels to the CSP (misses, write-backs)
// and to the verifier TPA (ICE-batch proofs); the verifier has a challenge
// channel to every edge; the user has its own channel to every edge, to
// each TPA and to the CSP. One channel per direction keeps the byte counts
// per direction (Tab. I). With Transport::kTcp every service sits behind
// its own reactor TcpServer on loopback and every channel is a TcpChannel;
// with kInProcess every channel is an InMemoryChannel calling the handler.
//
// Construction wires the services and stores nothing at the TPAs; setup()
// tags the CSP's file and uploads the tags. A caller that wants fresh
// services (the transport differential) skips it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ice/csp_service.h"
#include "ice/edge_service.h"
#include "ice/keys.h"
#include "ice/params.h"
#include "ice/tpa_service.h"
#include "ice/user_client.h"
#include "net/rpc.h"
#include "net/tcp.h"

namespace ice::sim {

enum class Transport { kInProcess, kTcp };

class Deployment {
 public:
  /// `params` (including its thread budget) configures every service and
  /// the user. Edge j has id j and an LRU cache of `cache_capacity` blocks.
  /// The file is mec::BlockStore::synthetic(n_blocks, params.block_bytes,
  /// file_seed).
  Deployment(const proto::ProtocolParams& params, proto::KeyPair keys,
             std::size_t n_blocks, std::size_t num_edges,
             std::size_t cache_capacity, std::uint64_t file_seed,
             Transport transport = Transport::kInProcess);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Tags the CSP's current file and uploads the tags to both TPAs.
  void setup();

  [[nodiscard]] const proto::ProtocolParams& params() const {
    return params_;
  }
  [[nodiscard]] const proto::KeyPair& keys() const { return keys_; }
  [[nodiscard]] proto::CspService& csp() { return csp_; }
  /// 0 is the verifier, 1 the helper replica.
  [[nodiscard]] proto::TpaService& tpa(std::size_t i) {
    return i == 0 ? tpa0_ : tpa1_;
  }
  [[nodiscard]] proto::EdgeService& edge(std::size_t j) {
    return *edges_.at(j).service;
  }
  [[nodiscard]] proto::UserClient& user() { return user_; }

  /// The user's channels.
  [[nodiscard]] net::RpcChannel& user_edge(std::size_t j) {
    return *edges_.at(j).from_user;
  }
  /// user_edge(0..J-1), the argument of UserClient::audit_edges_batch.
  [[nodiscard]] std::vector<net::RpcChannel*> user_edges();
  [[nodiscard]] net::RpcChannel& user_tpa(std::size_t i) {
    return i == 0 ? *user_tpa0_ : *user_tpa1_;
  }
  [[nodiscard]] net::RpcChannel& user_csp() { return *user_csp_; }
  /// The verifier's challenge channel to edge j.
  [[nodiscard]] net::RpcChannel& tpa_edge(std::size_t j) {
    return *edges_.at(j).from_tpa;
  }
  /// Zeroes the byte counters of every channel.
  void reset_traffic();

  /// Loopback ports of the services (Transport::kTcp; 0 in-process).
  [[nodiscard]] std::uint16_t csp_port() const { return port(csp_server_); }
  [[nodiscard]] std::uint16_t tpa_port(std::size_t i) const {
    return port(i == 0 ? tpa0_server_ : tpa1_server_);
  }
  [[nodiscard]] std::uint16_t edge_port(std::size_t j) const {
    return port(edges_.at(j).server);
  }

 private:
  // Members are destroyed bottom-up: channels close before the server
  // they reach stops, and a server stops before its service goes.
  struct Edge {
    std::unique_ptr<net::RpcChannel> to_csp;
    std::unique_ptr<net::RpcChannel> to_tpa;
    std::unique_ptr<proto::EdgeService> service;
    std::unique_ptr<net::TcpServer> server;
    std::unique_ptr<net::RpcChannel> from_tpa;
    std::unique_ptr<net::RpcChannel> from_user;
  };

  static std::uint16_t port(const std::unique_ptr<net::TcpServer>& server) {
    return server != nullptr ? server->port() : 0;
  }

  proto::ProtocolParams params_;
  proto::KeyPair keys_;
  proto::CspService csp_;
  proto::TpaService tpa0_;
  proto::TpaService tpa1_;
  std::unique_ptr<net::TcpServer> csp_server_;
  std::unique_ptr<net::TcpServer> tpa0_server_;
  std::unique_ptr<net::TcpServer> tpa1_server_;
  std::vector<Edge> edges_;
  std::unique_ptr<net::RpcChannel> user_csp_;
  std::unique_ptr<net::RpcChannel> user_tpa0_;
  std::unique_ptr<net::RpcChannel> user_tpa1_;
  proto::UserClient user_;
};

}  // namespace ice::sim
