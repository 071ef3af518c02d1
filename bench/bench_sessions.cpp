// Concurrent-session throughput of the per-session services.
//
// K user threads each run independent ICE-basic audits against ONE shared
// TPA/edge deployment: per-session state in session tables (one
// short-held mutex each), config behind shared_mutexes, and no lock ever
// held across a channel call. Two channel families:
//   in-process — calls traverse a channel wrapper that really sleeps the
//                modeled one-way WAN latency each direction, so K sessions
//                overlap their WAN waits. (CPU work still contends for
//                real cores, so multi-core hosts additionally overlap
//                compute.)
//   tcp        — the real loopback transport (TcpServer's epoll reactor),
//                no injected latency; reported as measured.
//
// A third sweep scales one reactor-served deployment to 10,000 sessions.
//
// Writes BENCH_sessions.json. `--smoke` shrinks everything to seconds and
// skips the JSON (this is the ctest `stress` label entry).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <thread>

#include "ice/csp_service.h"
#include "ice/edge_service.h"
#include "ice/tpa_service.h"
#include "ice/user_client.h"
#include "net/channel.h"
#include "net/tcp.h"
#include "support.h"

namespace ice::bench {
namespace {

struct Cfg {
  std::vector<std::size_t> session_counts;
  int audits_per_session;
  std::size_t modulus_bits;
  std::size_t n_blocks;
  double one_way_latency_s;
};

constexpr std::size_t kBlockBytes = 64;

/// In-process channel that really sleeps the modeled one-way latency on each
/// direction of every call (unlike InMemoryChannel, which only accounts it).
class SleepingChannel final : public net::RpcChannel {
 public:
  SleepingChannel(net::RpcHandler& handler, double one_way_seconds)
      : handler_(&handler),
        one_way_(std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::duration<double>(one_way_seconds))) {}

  Bytes call(std::uint16_t method, BytesView request) override {
    std::this_thread::sleep_for(one_way_);
    Bytes response = handler_->handle(method, request);
    std::this_thread::sleep_for(one_way_);
    stats_.calls++;
    stats_.bytes_sent += request.size() + net::kRpcHeaderBytes;
    stats_.bytes_received += response.size() + net::kRpcReplyHeaderBytes;
    return response;
  }

  [[nodiscard]] const net::ChannelStats& stats() const override {
    return stats_;
  }
  void reset_stats() override { stats_.reset(); }

 private:
  net::RpcHandler* handler_;
  std::chrono::nanoseconds one_way_;
  net::ChannelStats stats_;
};

/// One in-process deployment (CSP + 2 TPAs + 1 edge + owner).
class Arm {
 public:
  explicit Arm(const Cfg& cfg)
      : cfg_(cfg),
        params_(make_params(cfg)),
        keys_(bench_keypair(cfg.modulus_bits)),
        csp_(mec::BlockStore::synthetic(cfg.n_blocks, kBlockBytes, 7)),
        edge_csp_(csp_),
        edge_tpa_(tpa0_),
        edge_(0, params_, keys_.pk,
              mec::EdgeCache(cfg.n_blocks, mec::EvictionPolicy::kLru),
              edge_csp_, &edge_tpa_),
        tpa_edge_(edge_, cfg.one_way_latency_s),
        owner_tpa0_(tpa0_),
        owner_tpa1_(tpa1_),
        owner_(params_, keys_, owner_tpa0_, owner_tpa1_) {
    tpa0_.register_edge(0, tpa_edge_);
    std::vector<Bytes> blocks;
    for (std::size_t i = 0; i < cfg.n_blocks; ++i) {
      blocks.push_back(csp_.store().block(i));
    }
    owner_.setup_file(blocks);
    std::vector<std::size_t> warm;
    for (std::size_t i = 0; i < cfg.n_blocks / 2; ++i) warm.push_back(i);
    edge_.pre_download(warm);
  }

  static proto::ProtocolParams make_params(const Cfg& cfg) {
    proto::ProtocolParams p = proto::ProtocolParams::test();
    p.modulus_bits = cfg.modulus_bits;
    p.block_bytes = kBlockBytes;
    return p;
  }

  /// Aggregate audits/second with `sessions` concurrent user threads.
  double run(std::size_t sessions) {
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    threads.reserve(sessions);
    Stopwatch sw;
    for (std::size_t k = 0; k < sessions; ++k) {
      threads.emplace_back([this, &failures] {
        try {
          SleepingChannel tpa0(tpa0_, cfg_.one_way_latency_s);
          SleepingChannel tpa1(tpa1_, cfg_.one_way_latency_s);
          SleepingChannel edge(edge_, cfg_.one_way_latency_s);
          proto::UserClient user(params_, keys_, tpa0, tpa1);
          user.attach_file(cfg_.n_blocks);
          for (int i = 0; i < cfg_.audits_per_session; ++i) {
            if (!user.audit_edge(edge, 0)) failures.fetch_add(1);
          }
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) t.join();
    const double wall = sw.seconds();
    if (failures.load() != 0) {
      std::fprintf(stderr, "bench_sessions: %d failed audits\n",
                   failures.load());
      std::exit(1);
    }
    return static_cast<double>(sessions) * cfg_.audits_per_session / wall;
  }

 private:
  Cfg cfg_;
  proto::ProtocolParams params_;
  proto::KeyPair keys_;
  proto::CspService csp_;
  proto::TpaService tpa0_;
  proto::TpaService tpa1_;
  net::InMemoryChannel edge_csp_;
  net::InMemoryChannel edge_tpa_;
  proto::EdgeService edge_;
  SleepingChannel tpa_edge_;
  net::InMemoryChannel owner_tpa0_;
  net::InMemoryChannel owner_tpa1_;
  proto::UserClient owner_;
};

/// Same deployment over the loopback TCP transport; no injected latency.
class TcpArm {
 public:
  explicit TcpArm(const Cfg& cfg)
      : cfg_(cfg),
        params_(Arm::make_params(cfg)),
        keys_(bench_keypair(cfg.modulus_bits)),
        csp_(mec::BlockStore::synthetic(cfg.n_blocks, kBlockBytes, 7)),
        csp_srv_(csp_),
        tpa0_srv_(tpa0_),
        tpa1_srv_(tpa1_),
        edge_csp_("127.0.0.1", csp_srv_.port()),
        edge_tpa_("127.0.0.1", tpa0_srv_.port()),
        edge_(0, params_, keys_.pk,
              mec::EdgeCache(cfg.n_blocks, mec::EvictionPolicy::kLru),
              edge_csp_, &edge_tpa_),
        edge_srv_(edge_),
        tpa_edge_("127.0.0.1", edge_srv_.port()),
        owner_tpa0_("127.0.0.1", tpa0_srv_.port()),
        owner_tpa1_("127.0.0.1", tpa1_srv_.port()),
        owner_(params_, keys_, owner_tpa0_, owner_tpa1_) {
    tpa0_.register_edge(0, tpa_edge_);
    std::vector<Bytes> blocks;
    for (std::size_t i = 0; i < cfg.n_blocks; ++i) {
      blocks.push_back(csp_.store().block(i));
    }
    owner_.setup_file(blocks);
    std::vector<std::size_t> warm;
    for (std::size_t i = 0; i < cfg.n_blocks / 2; ++i) warm.push_back(i);
    edge_.pre_download(warm);
  }

  double run(std::size_t sessions) {
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    threads.reserve(sessions);
    Stopwatch sw;
    for (std::size_t k = 0; k < sessions; ++k) {
      threads.emplace_back([this, &failures] {
        try {
          net::TcpChannel tpa0("127.0.0.1", tpa0_srv_.port());
          net::TcpChannel tpa1("127.0.0.1", tpa1_srv_.port());
          net::TcpChannel edge("127.0.0.1", edge_srv_.port());
          proto::UserClient user(params_, keys_, tpa0, tpa1);
          user.attach_file(cfg_.n_blocks);
          for (int i = 0; i < cfg_.audits_per_session; ++i) {
            if (!user.audit_edge(edge, 0)) failures.fetch_add(1);
          }
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) t.join();
    const double wall = sw.seconds();
    if (failures.load() != 0) {
      std::fprintf(stderr, "bench_sessions(tcp): %d failed audits\n",
                   failures.load());
      std::exit(1);
    }
    return static_cast<double>(sessions) * cfg_.audits_per_session / wall;
  }

 private:
  Cfg cfg_;
  proto::ProtocolParams params_;
  proto::KeyPair keys_;
  proto::CspService csp_;
  proto::TpaService tpa0_;
  proto::TpaService tpa1_;
  net::TcpServer csp_srv_;
  net::TcpServer tpa0_srv_;
  net::TcpServer tpa1_srv_;
  net::TcpChannel edge_csp_;
  net::TcpChannel edge_tpa_;
  proto::EdgeService edge_;
  net::TcpServer edge_srv_;
  net::TcpChannel tpa_edge_;
  net::TcpChannel owner_tpa0_;
  net::TcpChannel owner_tpa1_;
  proto::UserClient owner_;
};

/// Sleeps a modeled per-request service time before delegating. The scale
/// sweep injects this on every server so the transport topology — not raw
/// handler CPU — dominates: the reactor overlaps the sleeps of pipelined
/// requests on shared connections across its worker pool.
class ServiceDelay final : public net::RpcHandler {
 public:
  ServiceDelay(net::RpcHandler& inner, double seconds)
      : inner_(&inner),
        delay_(std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::duration<double>(seconds))) {}

  Bytes handle(std::uint16_t method, BytesView request) override {
    std::this_thread::sleep_for(delay_);
    return inner_->handle(method, request);
  }

 private:
  net::RpcHandler* inner_;
  std::chrono::nanoseconds delay_;
};

/// Fleet-scale arm: K logical sessions multiplexed over a bounded lane pool
/// of client threads against one reactor-served deployment. Lanes share a
/// small pool of pipelined channel triples, so 10,000 sessions ride on a
/// few hundred sockets. Every session is a live UserClient with an attached
/// file for the whole measurement.
class ScaleArm {
 public:
  /// Client threads actually driving audits; sessions beyond this interleave
  /// round-major so all of them stay active across the run. Bounded so the
  /// 10k-session point respects fd/thread limits on small hosts.
  static constexpr std::size_t kMaxLanes = 256;
  /// Channel triples shared by the lanes.
  static constexpr std::size_t kSharedTriples = 64;

  explicit ScaleArm(const Cfg& cfg)
      : cfg_(cfg),
        params_(Arm::make_params(cfg)),
        keys_(bench_keypair(cfg.modulus_bits)),
        csp_(mec::BlockStore::synthetic(cfg.n_blocks, kBlockBytes, 7)),
        csp_wrap_(csp_, cfg.one_way_latency_s),
        tpa0_wrap_(tpa0_, cfg.one_way_latency_s),
        tpa1_wrap_(tpa1_, cfg.one_way_latency_s) {
    // The TPA handler parks a worker across its nested edge-challenge call,
    // so provision the base pool for a full lane fleet in flight and let
    // deep pipelines through the shared connections.
    net::ReactorLimits limits;
    limits.base_workers = kMaxLanes + 32;
    limits.max_workers = 4 * kMaxLanes;
    limits.max_pipeline = 2 * kMaxLanes;
    csp_srv_ = std::make_unique<net::TcpServer>(csp_wrap_, 0, limits);
    tpa0_srv_ = std::make_unique<net::TcpServer>(tpa0_wrap_, 0, limits);
    tpa1_srv_ = std::make_unique<net::TcpServer>(tpa1_wrap_, 0, limits);
    edge_csp_ =
        std::make_unique<net::TcpChannel>("127.0.0.1", csp_srv_->port());
    edge_tpa_ =
        std::make_unique<net::TcpChannel>("127.0.0.1", tpa0_srv_->port());
    edge_ = std::make_unique<proto::EdgeService>(
        0, params_, keys_.pk,
        mec::EdgeCache(cfg.n_blocks, mec::EvictionPolicy::kLru), *edge_csp_,
        edge_tpa_.get());
    edge_wrap_ = std::make_unique<ServiceDelay>(*edge_, cfg.one_way_latency_s);
    edge_srv_ = std::make_unique<net::TcpServer>(*edge_wrap_, 0, limits);
    tpa_edge_ =
        std::make_unique<net::TcpChannel>("127.0.0.1", edge_srv_->port());
    tpa0_.register_edge(0, *tpa_edge_);
    owner_tpa0_ =
        std::make_unique<net::TcpChannel>("127.0.0.1", tpa0_srv_->port());
    owner_tpa1_ =
        std::make_unique<net::TcpChannel>("127.0.0.1", tpa1_srv_->port());
    owner_ = std::make_unique<proto::UserClient>(params_, keys_, *owner_tpa0_,
                                                 *owner_tpa1_);
    std::vector<Bytes> blocks;
    for (std::size_t i = 0; i < cfg.n_blocks; ++i) {
      blocks.push_back(csp_.store().block(i));
    }
    owner_->setup_file(blocks);
    std::vector<std::size_t> warm;
    for (std::size_t i = 0; i < cfg.n_blocks / 2; ++i) warm.push_back(i);
    edge_->pre_download(warm);
  }

  double run(std::size_t sessions, int audits_per_session) {
    const std::size_t lanes = std::min(sessions, kMaxLanes);
    const std::size_t triples = std::min(sessions, kSharedTriples);
    struct Triple {
      std::unique_ptr<net::TcpChannel> tpa0, tpa1, edge;
    };
    std::vector<Triple> chans(triples);
    for (auto& t : chans) {
      t.tpa0 =
          std::make_unique<net::TcpChannel>("127.0.0.1", tpa0_srv_->port());
      t.tpa1 =
          std::make_unique<net::TcpChannel>("127.0.0.1", tpa1_srv_->port());
      t.edge =
          std::make_unique<net::TcpChannel>("127.0.0.1", edge_srv_->port());
    }
    struct Session {
      std::unique_ptr<proto::UserClient> user;
      std::size_t triple;
    };
    std::vector<std::vector<Session>> lane_sessions(lanes);
    for (std::size_t s = 0; s < sessions; ++s) {
      const std::size_t lane = s % lanes;
      const std::size_t triple = lane % triples;
      auto user = std::make_unique<proto::UserClient>(
          params_, keys_, *chans[triple].tpa0, *chans[triple].tpa1);
      user->attach_file(cfg_.n_blocks);
      lane_sessions[lane].push_back(Session{std::move(user), triple});
    }
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(lanes);
    Stopwatch sw;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      threads.emplace_back([&failures, &chans, &lane_sessions, lane,
                            audits_per_session] {
        try {
          // Round-major: all of the lane's sessions stay concurrently
          // active across the run instead of completing one by one.
          for (int round = 0; round < audits_per_session; ++round) {
            for (auto& session : lane_sessions[lane]) {
              if (!session.user->audit_edge(*chans[session.triple].edge, 0)) {
                failures.fetch_add(1);
              }
            }
          }
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) t.join();
    const double wall = sw.seconds();
    if (failures.load() != 0) {
      std::fprintf(stderr, "bench_sessions(scale): %d failures\n",
                   failures.load());
      std::exit(1);
    }
    return static_cast<double>(sessions) * audits_per_session / wall;
  }

 private:
  Cfg cfg_;
  proto::ProtocolParams params_;
  proto::KeyPair keys_;
  proto::CspService csp_;
  proto::TpaService tpa0_;
  proto::TpaService tpa1_;
  ServiceDelay csp_wrap_;
  ServiceDelay tpa0_wrap_;
  ServiceDelay tpa1_wrap_;
  std::unique_ptr<net::TcpServer> csp_srv_;
  std::unique_ptr<net::TcpServer> tpa0_srv_;
  std::unique_ptr<net::TcpServer> tpa1_srv_;
  std::unique_ptr<net::TcpChannel> edge_csp_;
  std::unique_ptr<net::TcpChannel> edge_tpa_;
  std::unique_ptr<proto::EdgeService> edge_;
  std::unique_ptr<ServiceDelay> edge_wrap_;
  std::unique_ptr<net::TcpServer> edge_srv_;
  std::unique_ptr<net::TcpChannel> tpa_edge_;
  std::unique_ptr<net::TcpChannel> owner_tpa0_;
  std::unique_ptr<net::TcpChannel> owner_tpa1_;
  std::unique_ptr<proto::UserClient> owner_;
};

/// Audits per session for a scale point: fewer at the big counts so wall
/// time stays bounded while every session still runs at least one audit.
int scale_audits(std::size_t sessions) {
  if (sessions <= 300) return 3;
  if (sessions <= 1000) return 2;
  return 1;
}

void scale_sweep(const Cfg& cfg, const std::vector<std::size_t>& counts,
                 std::vector<double>& out) {
  for (const std::size_t k : counts) {
    // Fresh deployment per point so session tables and caches start equal.
    ScaleArm arm(cfg);
    const double thr = arm.run(k, scale_audits(k));
    out.push_back(thr);
    std::printf("scale      K=%-5zu %10.2f audits/s\n", k, thr);
    std::fflush(stdout);
  }
}

template <typename ArmT>
void sweep(const char* family, const Cfg& cfg,
           std::vector<double>& session_thr) {
  for (const std::size_t k : cfg.session_counts) {
    // A fresh deployment per point so session tables and caches start
    // equal.
    ArmT arm(cfg);
    const double thr = arm.run(k);
    session_thr.push_back(thr);
    std::printf("%-10s K=%-3zu per-session %8.2f audits/s\n", family, k,
                thr);
    std::fflush(stdout);
  }
}

}  // namespace
}  // namespace ice::bench

int main(int argc, char** argv) {
  using namespace ice::bench;
  const bool smoke = smoke_mode(argc, argv);
  double latency_override = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a(argv[i]);
    if (a.rfind("--latency-ms=", 0) == 0) {
      latency_override = std::atof(a.substr(13).data()) * 1e-3;
    }
  }
  Cfg cfg;
  if (smoke) {
    cfg = {.session_counts = {1, 2},
           .audits_per_session = 1,
           .modulus_bits = 256,
           .n_blocks = 12,
           .one_way_latency_s = 0.001};
  } else {
    // 6 ms one-way is a mid-range WAN figure (same ballpark as the paper's
    // edge-to-cloud setting).
    cfg = {.session_counts = {1, 2, 4, 8},
           .audits_per_session = 3,
           .modulus_bits = 512,
           .n_blocks = 24,
           .one_way_latency_s = 0.006};
  }
  if (latency_override > 0) cfg.one_way_latency_s = latency_override;

  print_header("concurrent audit sessions: per-session services");
  std::printf("modulus %zu bits, %zu blocks x %zu B, %d audits/session, "
              "modeled one-way latency %.1f ms, %u hardware threads\n",
              cfg.modulus_bits, cfg.n_blocks, kBlockBytes,
              cfg.audits_per_session, cfg.one_way_latency_s * 1e3,
              std::thread::hardware_concurrency());

  std::vector<double> inproc_session, tcp_session;
  sweep<Arm>("inproc", cfg, inproc_session);
  sweep<TcpArm>("tcp", cfg, tcp_session);

  // Scale sweep on the epoll reactor. Lighter crypto than the lock-scope
  // sweep — the transport plane, not bignum arithmetic, is what this arm
  // measures.
  Cfg scale_cfg = cfg;
  std::vector<std::size_t> reactor_counts;
  if (smoke) {
    reactor_counts = {2, 4};
  } else {
    scale_cfg.modulus_bits = 256;
    scale_cfg.n_blocks = 16;
    reactor_counts = {100, 300, 1000, 3000, 10000};
  }
  print_header("session scale: epoll reactor");
  std::printf("modulus %zu bits, %zu blocks, %.1f ms modeled service time, "
              "lanes <= %zu, reactor shares %zu channel triples\n",
              scale_cfg.modulus_bits, scale_cfg.n_blocks,
              scale_cfg.one_way_latency_s * 1e3, ScaleArm::kMaxLanes,
              ScaleArm::kSharedTriples);
  std::vector<double> scale_reactor;
  scale_sweep(scale_cfg, reactor_counts, scale_reactor);

  if (!smoke) {
    std::ofstream out("BENCH_sessions.json", std::ios::trunc);
    out << "{\n"
        << "  \"sessions\": " << json_array(cfg.session_counts) << ",\n"
        << "  \"audits_per_session\": " << cfg.audits_per_session << ",\n"
        << "  \"modulus_bits\": " << cfg.modulus_bits << ",\n"
        << "  \"modeled_one_way_latency_s\": " << cfg.one_way_latency_s
        << ",\n"
        << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
        << ",\n"
        << "  \"inproc_per_session_audits_per_s\": "
        << json_array(inproc_session)
        << ",\n"
        << "  \"tcp_per_session_audits_per_s\": " << json_array(tcp_session)
        << ",\n"
        << "  \"scale_modulus_bits\": " << scale_cfg.modulus_bits << ",\n"
        << "  \"scale_lanes\": " << ScaleArm::kMaxLanes << ",\n"
        << "  \"scale_reactor_sessions\": " << json_array(reactor_counts)
        << ",\n"
        << "  \"scale_reactor_audits_per_s\": " << json_array(scale_reactor)
        << "\n}\n";
    std::printf("[wrote BENCH_sessions.json]\n");
  }
  return 0;
}
