// One ICE deployment in one process, every service behind its own reactor
// TCP server on loopback: a CSP, the two TPA replicas, J honest edges plus
// one spare "copy" edge (edge J, holding edge 0's blocks, used only by the
// tamper gate), the auditing users and optionally a data owner.
//
// Every service runs its shipped default configuration. The file of n
// blocks is never materialized: each edge's cache is filled with its S_j
// blocks (content derived from the seed), only those blocks are tagged, and
// every other tag row is a random residue below N. Verification only ever
// touches the S_j tags, so verdicts are real while the PIR database has its
// full size.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ice/csp_service.h"
#include "ice/edge_service.h"
#include "ice/tpa_service.h"
#include "ice/user_client.h"
#include "net/tcp.h"
#include "trace.h"

namespace perfbench {

inline constexpr std::size_t kHeldPerEdge = 10;  // |S_j|
inline constexpr std::size_t kEdges = 4;         // J honest edges

struct DeploymentConfig {
  std::size_t block_bytes = 4096;
  std::size_t n = 1000;             // file blocks (tag rows at each TPA)
  std::size_t users = 1;            // auditing clients
  bool owner = false;               // a separate updating client
  std::uint64_t seed = 1;
  /// Selects the generator g. Set-ups in one process that differ here do
  /// not share the comb tables TagGen caches per (N, g), so each pays a
  /// fresh user's cost.
  std::uint64_t key_variant = 0;
};

/// What a traced site is, for the span analysis.
enum class Role : std::uint8_t {
  kService,   // a server
  kClient,    // a UserClient (user or owner) timer site
  kUserTpa,   // user -> TPA channel
  kUserEdge,  // user -> edge channel
  kOwnerTpa,  // owner -> TPA channel
  kTpaEdge,   // TPA -> edge channel (challenges)
  kEdgeTpa,   // edge -> TPA channel (batch proof submission)
  kEdgeCsp,   // edge -> CSP channel (cache misses; idle here)
};

struct SiteInfo {
  Role role = Role::kService;
  int client = -1;  // user index (the owner is index `users`), else -1
  int target = -1;  // service site a channel talks to, else -1
};

/// Bytes and calls on the audit channels (the owner's are excluded).
struct Traffic {
  std::uint64_t user_tpa = 0;   // users -> TPAs
  std::uint64_t tpa_user = 0;   // TPAs -> users
  std::uint64_t user_edge = 0;  // both directions
  std::uint64_t tpa_edge = 0;   // challenges and batch proofs, both ways
  std::uint64_t calls = 0;

  [[nodiscard]] std::uint64_t total() const {
    return user_tpa + tpa_user + user_edge + tpa_edge;
  }
  Traffic operator-(const Traffic& o) const {
    return {user_tpa - o.user_tpa, tpa_user - o.tpa_user,
            user_edge - o.user_edge, tpa_edge - o.tpa_edge, calls - o.calls};
  }
};

/// Deterministic block content for (seed, index, version).
ice::Bytes block_content(std::uint64_t seed, std::size_t index,
                         std::uint64_t version, std::size_t bytes);

/// SplitMix64-style mixing of a seed with a stream tag.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag);

class Deployment {
 public:
  /// Builds, tags and uploads. `tracer` may be null (untraced run).
  Deployment(const DeploymentConfig& config, Tracer* tracer);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  [[nodiscard]] const DeploymentConfig& config() const { return config_; }
  /// Seconds spent in each set-up phase, in order.
  [[nodiscard]] const std::vector<std::pair<std::string, double>>& phases()
      const {
    return phases_;
  }
  [[nodiscard]] const ice::proto::ProtocolParams& params() const {
    return params_;
  }
  [[nodiscard]] const ice::proto::PublicKey& pk() const { return keys_.pk; }

  [[nodiscard]] ice::proto::UserClient& user(std::size_t u) {
    return *users_[u].client;
  }
  [[nodiscard]] ice::proto::UserClient& owner() { return *users_.back().client; }
  /// User u's channel to edge j; j == kEdges is the copy edge.
  [[nodiscard]] ice::net::RpcChannel& user_edge(std::size_t u, std::size_t j) {
    return users_[u].edges[j].channel();
  }
  /// User u's channels to the J honest edges, in edge order.
  [[nodiscard]] std::vector<ice::net::RpcChannel*> user_edges(std::size_t u);
  [[nodiscard]] std::uint16_t client_site(std::size_t u) const {
    return users_[u].site;
  }
  [[nodiscard]] std::uint16_t owner_site() const { return users_.back().site; }

  [[nodiscard]] static std::uint32_t copy_edge_id() {
    return static_cast<std::uint32_t>(kEdges);
  }
  [[nodiscard]] ice::proto::EdgeService& copy_edge() { return *edges_.back(); }
  [[nodiscard]] ice::proto::TpaService& tpa(std::size_t r) { return *tpa_[r]; }

  /// Sorted S_j of honest edge j.
  [[nodiscard]] const std::vector<std::size_t>& held(std::size_t j) const {
    return held_[j];
  }
  [[nodiscard]] bool is_held(std::size_t index) const {
    return uploaded_.count(index) != 0;
  }
  /// The tag uploaded for a held block.
  [[nodiscard]] const ice::bn::BigInt& uploaded_tag(std::size_t index) const {
    return uploaded_.at(index);
  }

  [[nodiscard]] Traffic traffic() const;
  /// Bytes user u received from both TPAs.
  [[nodiscard]] std::uint64_t tpa_to_user_bytes(std::size_t u) const;

  /// Site metadata indexed by site id (empty when untraced).
  [[nodiscard]] const std::vector<SiteInfo>& sites() const { return sites_; }
  [[nodiscard]] std::uint16_t service_site(const std::string& name) const {
    return service_sites_.at(name);
  }

 private:
  struct Link {
    std::unique_ptr<ice::net::TcpChannel> tcp;
    std::unique_ptr<TracedChannel> traced;
    ice::net::RpcChannel& channel() {
      return traced ? static_cast<ice::net::RpcChannel&>(*traced) : *tcp;
    }
  };
  struct Server {
    std::unique_ptr<TracedHandler> traced;
    std::unique_ptr<ice::net::TcpServer> tcp;
  };
  struct Client {
    Link tpa0;
    Link tpa1;
    std::vector<Link> edges;  // J honest edges, then the copy edge
    std::unique_ptr<ice::proto::UserClient> client;
    std::uint16_t site = 0;
  };

  Server serve(ice::net::RpcHandler& handler, const std::string& name);
  Link connect(const Server& server, const std::string& from,
               const std::string& to, Role role, int client);

  DeploymentConfig config_;
  Tracer* tracer_;
  std::vector<std::pair<std::string, double>> phases_;
  ice::proto::ProtocolParams params_;
  ice::proto::KeyPair keys_;

  std::vector<SiteInfo> sites_;
  std::map<std::string, std::uint16_t> service_sites_;

  std::vector<std::vector<std::size_t>> held_;
  std::map<std::size_t, ice::bn::BigInt> uploaded_;

  std::unique_ptr<ice::proto::CspService> csp_;
  std::vector<std::unique_ptr<ice::proto::TpaService>> tpa_;
  std::vector<std::unique_ptr<ice::proto::EdgeService>> edges_;
  Server csp_server_;
  std::vector<Server> tpa_servers_;
  std::vector<Server> edge_servers_;
  std::vector<Link> edge_links_;  // edge -> CSP and edge -> TPA0
  std::vector<Link> tpa_edge_;    // TPA0 -> edge j
  std::vector<Client> users_;     // auditing users, then the owner
};

}  // namespace perfbench
