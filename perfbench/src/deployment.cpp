#include "deployment.h"

#include <algorithm>
#include <set>

#include "bignum/random.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "ice/keys.h"
#include "ice/tag.h"
#include "mec/block_store.h"
#include "mec/edge_cache.h"

namespace perfbench {
namespace {

using namespace ice;

// A pre-generated pair of 512-bit safe primes (|N| = 1024, the paper's
// modulus). Live safe-prime search at this size takes minutes.
constexpr const char* kPrime512[2] = {
    "d910e3b27182e2137ffbfd0e6f56239142fafeb64c4f170e9dece7710ec4f42c"
    "dc229f9f270e7c22cdf6d8ed9670743597c151bfbbed1f34984f1e922bf94c83",
    "8f3958def5298492ece4f64345f6c1343a288a0d73a2b5176227dc0d1139f094"
    "18ac4922c01812b1f16d330fe318395756c486893d865d430a2ed110c6bafe3f"};

constexpr const char* kLoopback = "127.0.0.1";

// Stream tags for mix_seed.
enum : std::uint64_t { kKeyStream = 1, kHeldStream = 2, kFillerStream = 3 };

}  // namespace

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
  SplitMix64 rng(seed ^ (tag * 0xd1b54a32d192ed03ULL));
  rng();
  return rng();
}

Bytes block_content(std::uint64_t seed, std::size_t index,
                    std::uint64_t version, std::size_t bytes) {
  SplitMix64 rng(mix_seed(mix_seed(seed, index), version + 0x100));
  Bytes out(bytes);
  for (std::size_t i = 0; i < bytes; i += 8) {
    std::uint64_t word = rng();
    for (std::size_t b = i; b < std::min(bytes, i + 8); ++b) {
      out[b] = static_cast<std::uint8_t>(word);
      word >>= 8;
    }
  }
  return out;
}

Deployment::Deployment(const DeploymentConfig& config, Tracer* tracer)
    : config_(config), tracer_(tracer) {
  Stopwatch phase;
  const auto end_phase = [&](const char* name) {
    phases_.emplace_back(name, phase.seconds());
    phase.reset();
  };
  params_.block_bytes = config.block_bytes;
  {
    SplitMix64 gen(mix_seed(mix_seed(config.seed, kKeyStream), config.key_variant));
    bn::Rng64Adapter rng(gen);
    keys_ = proto::keygen_from_primes(bn::BigInt::from_hex(kPrime512[0]),
                                      bn::BigInt::from_hex(kPrime512[1]), rng,
                                      /*validate_primality=*/false);
  }
  // S_j: disjoint seed-derived index sets.
  {
    SplitMix64 rng(mix_seed(config.seed, kHeldStream));
    std::set<std::size_t> taken;
    held_.resize(kEdges);
    for (auto& s : held_) {
      while (s.size() < kHeldPerEdge) {
        const std::size_t i = rng.below(config.n);
        if (taken.insert(i).second) s.push_back(i);
      }
      std::sort(s.begin(), s.end());
    }
  }

  // Tag the held blocks; every other row is a random residue below N.
  std::vector<std::size_t> held_index;
  std::vector<Bytes> held_blocks;
  for (const auto& s : held_) {
    for (std::size_t i : s) {
      held_index.push_back(i);
      held_blocks.push_back(block_content(config.seed, i, 0, config.block_bytes));
    }
  }
  {
    const proto::TagGenerator tagger(keys_.pk);
    const std::vector<bn::BigInt> held_tags = tagger.tag_all(held_blocks);
    for (std::size_t k = 0; k < held_index.size(); ++k) {
      uploaded_.emplace(held_index[k], held_tags[k]);
    }
  }
  end_phase("taggen");

  // Services and their servers.
  csp_ = std::make_unique<proto::CspService>(mec::BlockStore(config.block_bytes));
  csp_server_ = serve(*csp_, "csp");
  for (int r = 0; r < 2; ++r) {
    tpa_.push_back(std::make_unique<proto::TpaService>());
    tpa_servers_.push_back(serve(*tpa_.back(), "tpa" + std::to_string(r)));
  }

  // Clients first, so the tag upload can use user 0's channels.
  const std::size_t clients = config.users + (config.owner ? 1 : 0);
  users_.resize(clients);
  for (std::size_t u = 0; u < clients; ++u) {
    const bool is_owner = config.owner && u == config.users;
    const std::string name = is_owner ? "owner" : "u" + std::to_string(u);
    const Role role = is_owner ? Role::kOwnerTpa : Role::kUserTpa;
    Client& c = users_[u];
    if (tracer_ != nullptr) {
      c.site = tracer_->add_site(name);
      sites_.push_back({Role::kClient, static_cast<int>(u), -1});
    }
    c.tpa0 = connect(tpa_servers_[0], name, "tpa0", role, static_cast<int>(u));
    c.tpa1 = connect(tpa_servers_[1], name, "tpa1", role, static_cast<int>(u));
    c.client = std::make_unique<proto::UserClient>(params_, keys_,
                                                   c.tpa0.channel(),
                                                   c.tpa1.channel());
  }

  {
    std::vector<bn::BigInt> tags(config.n);
    parallel_chunks(config.n, 0,
                    [&](std::size_t, std::size_t begin, std::size_t end) {
                      for (std::size_t i = begin; i < end; ++i) {
                        const auto it = uploaded_.find(i);
                        if (it != uploaded_.end()) {
                          tags[i] = it->second;
                          continue;
                        }
                        SplitMix64 gen(mix_seed(
                            mix_seed(config.seed, kFillerStream), i));
                        bn::Rng64Adapter rng(gen);
                        tags[i] = bn::random_below(rng, keys_.pk.n);
                      }
                    });
    end_phase("filler");
    for (Link* link : {&users_[0].tpa0, &users_[0].tpa1}) {
      const proto::TpaClient tpa(link->channel());
      tpa.set_key(keys_.pk, params_);
      tpa.store_tags(tags);
    }
  }
  for (Client& c : users_) c.client->attach_file(config.n);
  end_phase("upload");

  // Edges: J honest ones plus the copy of edge 0.
  for (std::size_t j = 0; j <= kEdges; ++j) {
    const std::string name = "edge" + std::to_string(j);
    const std::vector<std::size_t>& s = held_[j < kEdges ? j : 0];
    mec::EdgeCache cache(s.size(), mec::EvictionPolicy::kLru);
    for (std::size_t i : s) {
      cache.admit(i, block_content(config.seed, i, 0, config.block_bytes));
    }
    // Channels live on the heap, so these references survive the vectors
    // growing.
    net::RpcChannel& to_csp =
        edge_links_.emplace_back(connect(csp_server_, name, "csp", Role::kEdgeCsp, -1))
            .channel();
    net::RpcChannel& to_tpa =
        edge_links_.emplace_back(connect(tpa_servers_[0], name, "tpa0", Role::kEdgeTpa, -1))
            .channel();
    edges_.push_back(std::make_unique<proto::EdgeService>(
        static_cast<std::uint32_t>(j), params_, keys_.pk, std::move(cache),
        to_csp, &to_tpa));
    edge_servers_.push_back(serve(*edges_.back(), name));
    net::RpcChannel& challenge =
        tpa_edge_.emplace_back(connect(edge_servers_.back(), "tpa0", name, Role::kTpaEdge, -1))
            .channel();
    tpa_[0]->register_edge(static_cast<std::uint32_t>(j), challenge);
    for (std::size_t u = 0; u < clients; ++u) {
      const std::string from =
          config.owner && u == config.users ? "owner" : "u" + std::to_string(u);
      users_[u].edges.push_back(connect(edge_servers_.back(), from, name,
                                        Role::kUserEdge, static_cast<int>(u)));
    }
  }
  end_phase("edges");
}

Deployment::~Deployment() {
  // Stop every server before anything a handler might touch goes away.
  csp_server_.tcp->stop();
  for (Server& s : tpa_servers_) s.tcp->stop();
  for (Server& s : edge_servers_) s.tcp->stop();
}

Deployment::Server Deployment::serve(net::RpcHandler& handler,
                                     const std::string& name) {
  Server server;
  net::RpcHandler* target = &handler;
  if (tracer_ != nullptr) {
    const std::uint16_t site = tracer_->add_site(name);
    sites_.push_back({Role::kService, -1, -1});
    service_sites_[name] = site;
    server.traced = std::make_unique<TracedHandler>(handler, *tracer_, site);
    target = server.traced.get();
  }
  server.tcp = std::make_unique<net::TcpServer>(*target);
  return server;
}

Deployment::Link Deployment::connect(const Server& server,
                                     const std::string& from,
                                     const std::string& to, Role role,
                                     int client) {
  Link link;
  link.tcp = std::make_unique<net::TcpChannel>(kLoopback, server.tcp->port());
  if (tracer_ != nullptr) {
    const std::uint16_t site = tracer_->add_site(from + ">" + to);
    sites_.push_back({role, client, service_sites_.at(to)});
    link.traced = std::make_unique<TracedChannel>(*link.tcp, *tracer_, site);
  }
  return link;
}

std::vector<net::RpcChannel*> Deployment::user_edges(std::size_t u) {
  std::vector<net::RpcChannel*> out;
  for (std::size_t j = 0; j < kEdges; ++j) {
    out.push_back(&users_[u].edges[j].channel());
  }
  return out;
}

Traffic Deployment::traffic() const {
  Traffic t;
  const auto both = [](const Link& l) {
    const net::ChannelStats& s = l.tcp->stats();
    return s.bytes_sent.load() + s.bytes_received.load();
  };
  for (std::size_t u = 0; u < config_.users; ++u) {
    const Client& c = users_[u];
    for (const Link* l : {&c.tpa0, &c.tpa1}) {
      t.user_tpa += l->tcp->stats().bytes_sent.load();
      t.tpa_user += l->tcp->stats().bytes_received.load();
      t.calls += l->tcp->stats().calls.load();
    }
    for (const Link& l : c.edges) {
      t.user_edge += both(l);
      t.calls += l.tcp->stats().calls.load();
    }
  }
  for (const Link& l : tpa_edge_) {
    t.tpa_edge += both(l);
    t.calls += l.tcp->stats().calls.load();
  }
  for (std::size_t k = 1; k < edge_links_.size(); k += 2) {  // edge -> TPA0
    t.tpa_edge += both(edge_links_[k]);
    t.calls += edge_links_[k].tcp->stats().calls.load();
  }
  return t;
}

std::uint64_t Deployment::tpa_to_user_bytes(std::size_t u) const {
  return users_[u].tpa0.tcp->stats().bytes_received.load() +
         users_[u].tpa1.tcp->stats().bytes_received.load();
}

}  // namespace perfbench
