#include "sim/deployment.h"

#include <utility>

#include "mec/block_store.h"
#include "mec/edge_cache.h"
#include "net/channel.h"

namespace ice::sim {

namespace {

/// Serves `handler` on loopback for kTcp; no server in-process.
std::unique_ptr<net::TcpServer> serve(net::RpcHandler& handler,
                                      Transport transport) {
  return transport == Transport::kTcp
             ? std::make_unique<net::TcpServer>(handler)
             : nullptr;
}

/// A channel to `handler`: through its server when it has one.
std::unique_ptr<net::RpcChannel> connect(
    net::RpcHandler& handler, const std::unique_ptr<net::TcpServer>& server) {
  if (server == nullptr) return std::make_unique<net::InMemoryChannel>(handler);
  return std::make_unique<net::TcpChannel>("127.0.0.1", server->port());
}

}  // namespace

Deployment::Deployment(const proto::ProtocolParams& params,
                       proto::KeyPair keys, std::size_t n_blocks,
                       std::size_t num_edges, std::size_t cache_capacity,
                       std::uint64_t file_seed, Transport transport)
    : params_(params),
      keys_(std::move(keys)),
      csp_(mec::BlockStore::synthetic(n_blocks, params.block_bytes,
                                      file_seed),
           params.parallelism),
      tpa0_(params.parallelism),
      tpa1_(params.parallelism),
      csp_server_(serve(csp_, transport)),
      tpa0_server_(serve(tpa0_, transport)),
      tpa1_server_(serve(tpa1_, transport)),
      user_csp_(connect(csp_, csp_server_)),
      user_tpa0_(connect(tpa0_, tpa0_server_)),
      user_tpa1_(connect(tpa1_, tpa1_server_)),
      user_(params_, keys_, *user_tpa0_, *user_tpa1_) {
  edges_.reserve(num_edges);
  for (std::size_t j = 0; j < num_edges; ++j) {
    const auto id = static_cast<std::uint32_t>(j);
    Edge& e = edges_.emplace_back();
    e.to_csp = connect(csp_, csp_server_);
    e.to_tpa = connect(tpa0_, tpa0_server_);
    e.service = std::make_unique<proto::EdgeService>(
        id, params_, keys_.pk,
        mec::EdgeCache(cache_capacity, mec::EvictionPolicy::kLru), *e.to_csp,
        e.to_tpa.get());
    e.server = serve(*e.service, transport);
    e.from_tpa = connect(*e.service, e.server);
    e.from_user = connect(*e.service, e.server);
    tpa0_.register_edge(id, *e.from_tpa);
  }
}

Deployment::~Deployment() = default;

void Deployment::setup() {
  std::vector<Bytes> blocks;
  blocks.reserve(csp_.store().size());
  for (std::size_t i = 0; i < csp_.store().size(); ++i) {
    blocks.push_back(csp_.store().block(i));
  }
  user_.setup_file(blocks);
}

std::vector<net::RpcChannel*> Deployment::user_edges() {
  std::vector<net::RpcChannel*> out;
  out.reserve(edges_.size());
  for (const Edge& e : edges_) out.push_back(e.from_user.get());
  return out;
}

void Deployment::reset_traffic() {
  for (net::RpcChannel* ch : {user_csp_.get(), user_tpa0_.get(),
                              user_tpa1_.get()}) {
    ch->reset_stats();
  }
  for (const Edge& e : edges_) {
    for (net::RpcChannel* ch : {e.to_csp.get(), e.to_tpa.get(),
                                e.from_tpa.get(), e.from_user.get()}) {
      ch->reset_stats();
    }
  }
}

}  // namespace ice::sim
