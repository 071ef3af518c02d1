// End-to-end ICE audit-round benchmark.
//
// Stands up a whole deployment in one process (deployment.h), drives full
// audit rounds through proto::UserClient for a fixed time, checks the
// outputs, and prints every metric by name with its unit and sample count.
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics from
// a traced run (--trace 1). See NOTES.md for the workloads and metrics.
//
// Usage: perfbench --workload <edge-64k|pir-1m|owner-storm> --seed <n>
//                  --seconds <s> --trace <0|1> [--out-dir <dir>]
//                  [--commit <id>]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "analysis.h"
#include "common/rng.h"
#include "common/simd.h"
#include "deployment.h"
#include "ice/tag.h"
#include "mec/corruption.h"
#include "pir/embedding.h"
#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace ice;

struct Workload {
  const char* name;
  DeploymentConfig config;
  bool batch = false;        // end each cycle with an ICE-batch round
  int setups = 3;            // set-ups per run; setup_s is their median
  double update_rate = 0;    // owner updates per second (open loop)
  std::size_t close_every = 0;
};

std::vector<Workload> workloads() {
  std::vector<Workload> w;
  {
    Workload e{"edge-64k", {}};
    e.config.block_bytes = 64 * 1024;
    e.config.n = 1000;
    e.batch = true;
    w.push_back(e);
  }
  {
    Workload p{"pir-1m", {}};
    p.config.block_bytes = 4096;
    p.config.n = 1000000;
    p.batch = true;
    p.setups = 2;  // each set-up peaks at about 5 GB and takes about 11 s
    w.push_back(p);
  }
  {
    Workload o{"owner-storm", {}};
    o.config.block_bytes = 4096;
    o.config.n = 100000;
    o.config.users = 3;
    o.config.owner = true;
    o.update_rate = 20;
    o.close_every = 20;
    w.push_back(o);
  }
  return w;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string commit = "unknown";
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value != "0";
    } else if (flag == "--out-dir") {
      a.out_dir = value;
    } else if (flag == "--commit") {
      a.commit = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

// ---------------------------------------------------------------- host ---

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

bool cpu_has(int ebx_bit) {
#if defined(__x86_64__)
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return false;
  return ((b >> ebx_bit) & 1U) != 0;
#else
  (void)ebx_bit;
  return false;
#endif
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

// --------------------------------------------------------------- stats ---

/// Nearest-rank percentile p (0 < p <= 100) of `v`; 0 when empty.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Highest of a few standard percentiles with at least ten samples beyond
/// it; nullopt when there are fewer than 20 samples.
std::optional<std::pair<double, double>> tail(const std::vector<double>& v) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(v.size()) * (1 - p / 100) >= 10) {
      return std::make_pair(p, percentile(v, p));
    }
  }
  return std::nullopt;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
  std::size_t samples;
};

void print_metric(const Metric& m) {
  std::printf("metric %-34s %14.4f %-6s (n=%zu)\n", m.name.c_str(), m.value,
              m.unit, m.samples);
}

void print_latency(const char* name, const std::vector<double>& v) {
  print_metric({std::string(name) + "_p50_ms", median(v), "ms", v.size()});
  if (const auto t = tail(v)) {
    std::printf("metric %-34s %14.4f %-6s (n=%zu, p%g)\n",
                (std::string(name) + "_tail_ms").c_str(), t->second, "ms",
                v.size(), t->first);
  } else {
    std::printf("metric %-34s %14s %-6s (n=%zu, fewer than 20 samples)\n",
                (std::string(name) + "_tail_ms").c_str(), "-", "ms", v.size());
  }
}

// ------------------------------------------------------------- driving ---

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Outcome counters shared by the load threads.
struct Tally {
  std::mutex mu;
  std::vector<double> basic_ms;
  std::vector<double> batch_ms;
  std::vector<double> commit_ms;    // update due time -> visible
  std::vector<double> lateness_ms;  // update due time -> issued
  std::vector<double> drain_ms;     // close waiting for in-flight audits
  double gate_held_ms = 0;          // new audits held back by the close gate
  std::size_t audits = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t wrong_verdicts = 0;
  std::vector<std::string> errors;
  Clock::time_point last_audit_end;

  void fail(const std::string& what) {
    std::lock_guard lock(mu);
    ++attempted;
    ++failed;
    if (errors.size() < 5) errors.push_back(what);
  }
};

/// Runs `op`, records its span when tracing, and returns its result.
template <typename Op>
auto timed(Tracer& tracer, bool trace, SpanKind kind, std::uint16_t site,
           double& elapsed_ms, Op&& op) {
  Span span;
  span.kind = kind;
  span.site = site;
  span.t0 = tracer.now();
  const auto begin = Clock::now();
  auto result = op();
  elapsed_ms = ms_between(begin, Clock::now());
  span.t1 = tracer.now();
  if (trace) tracer.record(span);
  return result;
}

/// One audit (basic or batch); records the outcome in `tally`.
void audit_once(Deployment& d, Tracer& tracer, bool trace, std::size_t u,
                std::optional<std::size_t> edge, Tally& tally) {
  proto::UserClient& user = d.user(u);
  double elapsed = 0;
  bool pass = false;
  try {
    if (edge) {
      pass = timed(tracer, trace, SpanKind::kAudit, d.client_site(u), elapsed,
                   [&] {
                     return user.audit_edge(d.user_edge(u, *edge),
                                            static_cast<std::uint32_t>(*edge));
                   });
    } else {
      const std::vector<net::RpcChannel*> channels = d.user_edges(u);
      pass = timed(tracer, trace, SpanKind::kBatchAudit, d.client_site(u),
                   elapsed, [&] { return user.audit_edges_batch(channels); });
    }
  } catch (const std::exception& e) {
    tally.fail(std::string(edge ? "basic" : "batch") + " audit: " + e.what());
    return;
  }
  std::lock_guard lock(tally.mu);
  ++tally.attempted;
  tally.last_audit_end = Clock::now();
  if (!pass) {
    ++tally.failed;
    ++tally.wrong_verdicts;
    if (tally.errors.size() < 5) tally.errors.push_back("honest edge FAILED");
    return;
  }
  ++tally.audits;
  (edge ? tally.basic_ms : tally.batch_ms).push_back(elapsed);
}

/// Deployment-level epoch gate between the owner and the file's auditing
/// users. The two TPA replicas close one after the other; an audit whose
/// stale-plan retry lands between the two closes fails (see NOTES.md,
/// about one close in ten without this gate). So the owner closes only
/// while no audit is in flight: a pending close stops new audits from
/// starting (writer preference, so it cannot starve), waits for the running
/// ones, closes, and lets the users resume. The gate is the benchmark's,
/// not the program's: its time is reported (`close_gate_share`) so that
/// owner-storm throughput is not read as the program's alone.
class CloseGate {
 public:
  void enter_audit() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return !closing_; });
    ++active_;
  }
  void leave_audit() {
    {
      std::lock_guard lock(mu_);
      --active_;
    }
    cv_.notify_all();
  }
  struct Hold {
    double drain_ms;  // waiting for the audits in flight
    double held_ms;   // new audits held back: drain plus the close
  };

  /// Runs `close` with no audit in flight.
  template <typename F>
  Hold exclusive(F&& close) {
    const auto begin = Clock::now();
    {
      std::unique_lock lock(mu_);
      closing_ = true;
      cv_.wait(lock, [&] { return active_ == 0; });
    }
    const double drain_ms = ms_between(begin, Clock::now());
    try {
      close();
    } catch (...) {
      reopen();
      throw;
    }
    reopen();
    return {drain_ms, ms_between(begin, Clock::now())};
  }

 private:
  void reopen() {
    {
      std::lock_guard lock(mu_);
      closing_ = false;
    }
    cv_.notify_all();
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t active_ = 0;
  bool closing_ = false;
};

/// Owner open loop: update_block on a fixed schedule for blocks no edge
/// holds, close_epochs through the gate every `close_every` updates.
/// Returns the last update (index, content) for the visibility gate.
std::pair<std::size_t, Bytes> owner_loop(Deployment& d, const Workload& w,
                                         Tracer& tracer, bool trace,
                                         Clock::time_point start,
                                         Clock::time_point deadline,
                                         CloseGate& gate, Tally& tally) {
  proto::UserClient& owner = d.owner();
  SplitMix64 rng(mix_seed(d.config().seed, 0x0a11ce));
  std::vector<Clock::time_point> pending;
  std::pair<std::size_t, Bytes> last{0, {}};
  const auto close = [&] {
    double elapsed = 0;
    CloseGate::Hold hold{};
    try {
      hold = gate.exclusive([&] {
        timed(tracer, trace, SpanKind::kClose, d.owner_site(), elapsed,
              [&] { return owner.close_epochs(); });
      });
    } catch (const std::exception& e) {
      tally.fail(std::string("close_epochs: ") + e.what());
      pending.clear();
      return;
    }
    const auto done = Clock::now();
    std::lock_guard lock(tally.mu);
    ++tally.attempted;
    tally.drain_ms.push_back(hold.drain_ms);
    tally.gate_held_ms += hold.held_ms;
    for (const auto due : pending) tally.commit_ms.push_back(ms_between(due, done));
    pending.clear();
  };
  for (std::size_t i = 0;; ++i) {
    const auto due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(i / w.update_rate));
    if (due >= deadline) break;
    std::this_thread::sleep_until(due);
    std::size_t index = 0;
    do {
      index = rng.below(d.config().n);
    } while (d.is_held(index));
    Bytes content = block_content(d.config().seed, index, i + 1,
                                  d.config().block_bytes);
    const auto issued = Clock::now();
    double elapsed = 0;
    try {
      timed(tracer, trace, SpanKind::kUpdate, d.owner_site(), elapsed,
            [&] { return owner.update_block(index, content); });
    } catch (const std::exception& e) {
      tally.fail(std::string("update_block: ") + e.what());
      continue;
    }
    {
      std::lock_guard lock(tally.mu);
      ++tally.attempted;
      tally.lateness_ms.push_back(ms_between(due, issued));
    }
    pending.push_back(due);
    last = {index, std::move(content)};
    if (pending.size() == w.close_every) close();
  }
  if (!pending.empty()) close();
  return last;
}

// --------------------------------------------------------------- gates ---

struct Gates {
  bool ok = true;
  void check(bool pass, const std::string& what) {
    std::printf("gate %-52s %s\n", what.c_str(), pass ? "PASS" : "FAIL");
    ok = ok && pass;
  }
};

/// Correctness gates outside the timed window (see NOTES.md).
void run_gates(Deployment& d, Gates& gates) {
  proto::UserClient& user = d.user(0);
  const std::size_t before = d.tpa_to_user_bytes(0);
  bool honest = false;
  try {
    honest = user.audit_edge(d.user_edge(0, 0), 0);
  } catch (const std::exception& e) {
    std::printf("honest audit threw: %s\n", e.what());
  }
  gates.check(honest, "honest ICE-basic audit PASSes");

  // Tab. I: TPAs -> User carries 2 replicas x 2 bits per GF(4) element x
  // |S| points x (1 + gamma) vectors x K elements. Framing and envelopes
  // add a little; anything below the closed form means a weaker response.
  const double measured = 8.0 * static_cast<double>(d.tpa_to_user_bytes(0) - before);
  const double k = static_cast<double>(d.pk().modulus_bits());
  const double s = static_cast<double>(d.held(0).size());
  const double gamma = static_cast<double>(pir::gamma_for(d.config().n));
  const double predicted = 2 * 2 * s * (1 + gamma) * k;
  constexpr double kWireMargin = 0.03;
  std::printf("wire TPAs->User %.0f bits, closed form %.0f bits (ratio %.4f, "
              "allowed 1..%.2f)\n",
              measured, predicted, measured / predicted, 1 + kWireMargin);
  gates.check(measured >= predicted && measured <= predicted * (1 + kWireMargin),
              "Tab. I TPAs->User bytes within margin of closed form");

  std::vector<std::size_t> all;
  for (std::size_t j = 0; j < kEdges; ++j) {
    all.insert(all.end(), d.held(j).begin(), d.held(j).end());
  }
  std::sort(all.begin(), all.end());
  bool tags_equal = false;
  try {
    const std::vector<bn::BigInt> got = user.retrieve_tags(all);
    tags_equal = got.size() == all.size();
    for (std::size_t i = 0; tags_equal && i < all.size(); ++i) {
      tags_equal = got[i] == d.uploaded_tag(all[i]);
    }
  } catch (const std::exception& e) {
    std::printf("retrieve_tags threw: %s\n", e.what());
  }
  gates.check(tags_equal, "retrieve_tags(S) equals the uploaded tags");

  SplitMix64 rng(mix_seed(d.config().seed, 0x7a3e));
  mec::corrupt_random_blocks(d.copy_edge().cache_for_corruption(), 1,
                             mec::CorruptionKind::kBitFlip, rng);
  bool tampered_pass = true;
  try {
    tampered_pass = user.audit_edge(d.user_edge(0, kEdges), d.copy_edge_id());
  } catch (const std::exception& e) {
    std::printf("tampered audit threw: %s\n", e.what());
  }
  gates.check(!tampered_pass, "audit of the tampered copy edge FAILs");
}

// ------------------------------------------------------------- output ---

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int run(const Args& args) {
  const std::vector<Workload> all = workloads();
  const auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return args.workload == w.name;
  });
  if (it == all.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Workload w = *it;
  w.config.seed = args.seed;
  const std::size_t nproc = std::max(1U, std::thread::hardware_concurrency());
  // One load thread per user plus the owner, never more than nproc.
  if (w.config.owner) {
    w.config.users = std::max<std::size_t>(1, std::min(w.config.users, nproc - 1));
  }

  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n", w.name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("# host cpu=\"%s\" nproc=%zu simd=%s adx=%d bmi2=%d build=%s "
              "commit=%s\n",
              cpu_model().c_str(), nproc,
              simd::tier_name(simd::best_supported_tier()), cpu_has(19) ? 1 : 0,
              cpu_has(8) ? 1 : 0, PERFBENCH_BUILD_TYPE, args.commit.c_str());
  std::printf("# config block_bytes=%zu n=%zu |S_j|=%zu J=%zu users=%zu owner=%d "
              "batch=%d update_rate=%g close_every=%zu\n",
              w.config.block_bytes, w.config.n, kHeldPerEdge, kEdges,
              w.config.users, w.config.owner ? 1 : 0,
              w.batch ? 1 : 0, w.update_rate, w.close_every);
  std::fflush(stdout);

  // Set-up: build, tag, upload, one warm-up audit. Repeated and reported as
  // the median; the last deployment is the one measured.
  Tracer tracer;
  std::unique_ptr<Deployment> d;
  std::vector<double> setup_s;
  const int setups = args.trace ? 1 : w.setups;
  for (int rep = 0; rep < setups; ++rep) {
    d.reset();
    const auto begin = Clock::now();
    DeploymentConfig config = w.config;
    config.key_variant = static_cast<std::uint64_t>(rep);
    d = std::make_unique<Deployment>(config, args.trace ? &tracer : nullptr);
    if (!d->user(0).audit_edge(d->user_edge(0, 0), 0)) {
      std::printf("warm-up audit FAILED\n");
      return 1;
    }
    setup_s.push_back(ms_between(begin, Clock::now()) / 1e3);
    std::printf("setup %d: %.3f s (", rep, setup_s.back());
    for (const auto& [phase, seconds] : d->phases()) {
      std::printf("%s %.3f s, ", phase.c_str(), seconds);
    }
    std::printf("warm-up audit)\n");
    std::fflush(stdout);
  }

  Gates gates;
  run_gates(*d, gates);

  // Timed window.
  Tally tally;
  const Traffic traffic_before = d->traffic();
  const proto::StoreEpochStats epoch_before = d->tpa(0).epoch_stats();
  const std::int64_t window_begin = tracer.now();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  std::optional<std::pair<std::size_t, Bytes>> last_update;
  std::size_t throughput_audits = 0;
  Clock::time_point throughput_end = start;
  Traffic throughput_traffic = traffic_before;
  if (!w.config.owner) {
    // One user, closed loop. A cycle audits each edge alone (ICE-basic,
    // round-robin), then all of them together (ICE-batch) when the
    // workload has batch rounds. Throughput counts whole cycles only, so it
    // always covers the same mix; latency samples include the last,
    // partial cycle.
    bool whole = true;
    while (whole) {
      for (std::size_t j = 0; whole && j < kEdges; ++j) {
        whole = Clock::now() < deadline;
        if (whole) audit_once(*d, tracer, args.trace, 0, j, tally);
      }
      if (whole && w.batch) {
        whole = Clock::now() < deadline;
        if (whole) audit_once(*d, tracer, args.trace, 0, std::nullopt, tally);
      }
      if (whole) {
        throughput_audits = tally.audits;
        throughput_end = Clock::now();
        throughput_traffic = d->traffic();
      }
    }
  } else {
    CloseGate gate;
    std::vector<std::thread> load;
    for (std::size_t u = 0; u < w.config.users; ++u) {
      load.emplace_back([&, u] {
        std::vector<std::size_t> mine;
        for (std::size_t j = u; j < kEdges; j += w.config.users) {
          mine.push_back(j);
        }
        for (std::size_t k = 0; Clock::now() < deadline; ++k) {
          gate.enter_audit();
          audit_once(*d, tracer, args.trace, u, mine[k % mine.size()], tally);
          gate.leave_audit();
        }
      });
    }
    last_update =
        owner_loop(*d, w, tracer, args.trace, start, deadline, gate, tally);
    for (auto& t : load) t.join();
    throughput_audits = tally.audits;
    throughput_end = tally.last_audit_end;
    throughput_traffic = d->traffic();
  }
  if (throughput_audits == 0) {  // the window was shorter than one cycle
    throughput_audits = tally.audits;
    throughput_end = tally.audits > 0 ? tally.last_audit_end : Clock::now();
    throughput_traffic = d->traffic();
  }
  const double window_s = ms_between(start, throughput_end) / 1e3;
  const std::int64_t window_end = tracer.now();
  // Bytes and calls over the audits counted for throughput.
  const Traffic traffic = throughput_traffic - traffic_before;
  const proto::StoreEpochStats epoch_after = d->tpa(0).epoch_stats();

  if (last_update) {
    // Owner updates are visible once their close returned.
    bool visible = false;
    try {
      const auto got = d->owner().retrieve_tags({last_update->first});
      const proto::TagGenerator tagger(d->pk());
      visible = got.size() == 1 && got[0] == tagger.tag(last_update->second);
    } catch (const std::exception& e) {
      std::printf("update visibility check threw: %s\n", e.what());
    }
    gates.check(visible, "last owner update visible after its close");
  }
  gates.check(tally.wrong_verdicts == 0, "no honest audit FAILed in the window");
  for (const auto& e : tally.errors) std::printf("error: %s\n", e.c_str());

  const double audits =
      static_cast<double>(std::max<std::size_t>(1, throughput_audits));
  const double audits_per_s =
      static_cast<double>(throughput_audits) / std::max(window_s, 1e-9);
  // Share of the window in which the close gate held new audits back: the
  // most an atomic two-replica close (lead 2) could give back.
  const double gate_share = tally.gate_held_ms / 1e3 / std::max(window_s, 1e-9);
  std::printf("window %.3f s with %zu audits counted for throughput; %zu "
              "audits in all (%zu basic, %zu batch), attempted %zu, "
              "failed %zu, fail_ratio %.5f\n",
              window_s, throughput_audits, tally.audits, tally.basic_ms.size(),
              tally.batch_ms.size(),
              tally.attempted, tally.failed,
              static_cast<double>(tally.failed) /
                  static_cast<double>(std::max<std::size_t>(1, tally.attempted)));
  print_latency("basic", tally.basic_ms);
  if (w.batch) print_latency("batch", tally.batch_ms);
  if (w.config.owner) {
    print_latency("update_commit", tally.commit_ms);
    print_latency("update_lateness", tally.lateness_ms);
    print_metric({"close_drain_p50_ms", median(tally.drain_ms), "ms",
                  tally.drain_ms.size()});
    print_metric({"close_gate_share", gate_share, "ratio", tally.drain_ms.size()});
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", median(setup_s), "s", setup_s.size()},
        {"basic_p10_ms", percentile(tally.basic_ms, 10), "ms",
         tally.basic_ms.size()},
        {"audits_per_s", audits_per_s, "1/s", throughput_audits},
        {"wire_kb_per_audit", static_cast<double>(traffic.total()) / 1024 / audits,
         "KB", throughput_audits},
    };
    print_metric({"peak_rss_mb", peak_rss_mb(), "MB", 1});
  } else {
    // Explicit retrievals outside the window time the user's PIR codec.
    for (std::size_t r = 0; r < 5; ++r) {
      double elapsed = 0;
      timed(tracer, true, SpanKind::kRetrieve, d->client_site(0), elapsed,
            [&] { return d->user(0).retrieve_tags(d->held(r % kEdges)); });
    }
    const std::vector<Span> spans = tracer.spans();
    LayerInput in;
    in.spans = &spans;
    in.sites = &d->sites();
    in.tpa0 = d->service_site("tpa0");
    in.tpa1 = d->service_site("tpa1");
    in.window_begin = window_begin;
    in.window_end = window_end;
    in.audits = tally.audits;
    const LayerResult l = analyze(in);
    const proto::ProtocolParams& p = d->params();
    const double exponent_bits =
        8.0 * static_cast<double>(p.block_bytes) + static_cast<double>(p.coeff_bits) +
        std::ceil(std::log2(static_cast<double>(kHeldPerEdge))) +
        static_cast<double>(d->pk().modulus_bits());
    const std::size_t n = tally.audits;
    metrics = {
        {"ice.edge.proof_ms", l.edge_proof_ms, "ms", n},
        {"bignum.proof_ns_per_bit", l.edge_proof_ms * 1e6 / exponent_bits, "ns", n},
        {"ice.tpa.challenge_ms", l.tpa_challenge_ms, "ms", n},
        {"ice.tpa.verify_ms", l.tpa_verify_ms, "ms", n},
        {"pir.respond_ms.tpa0", l.respond_tpa0_ms, "ms", n},
        {"pir.respond_ms.tpa1", l.respond_tpa1_ms, "ms", n},
        {"pir.points_per_audit", l.points_per_audit, "count", n},
        {"pir.query_attempts_per_retrieval", l.attempts_per_retrieval, "ratio", n},
        {"pir.rows_merged",
         static_cast<double>(epoch_after.db.rows_merged - epoch_before.db.rows_merged),
         "count", 1},
        {"pir.plane_rebuilds",
         static_cast<double>(epoch_after.db.plane_rebuilds -
                             epoch_before.db.plane_rebuilds),
         "count", 1},
        {"ice.user.pir_codec_ms", l.pir_codec_ms, "ms", 5},
        {"ice.user.repack_ms", l.repack_ms, "ms", n},
        {"ice.user.self_ms", l.median.user, "ms", l.basic_rounds},
        {"net.transport_ms", l.median.transport, "ms", l.basic_rounds},
        {"net.calls_per_audit", static_cast<double>(traffic.calls) / audits, "count", n},
        {"net.bytes.user_tpa", static_cast<double>(traffic.user_tpa) / audits, "B", n},
        {"net.bytes.tpa_user", static_cast<double>(traffic.tpa_user) / audits, "B", n},
        {"net.bytes.tpa_edge", static_cast<double>(traffic.tpa_edge) / audits, "B", n},
        {"net.bytes.user_edge", static_cast<double>(traffic.user_edge) / audits, "B", n},
        {"net.errors", l.errors, "count", 1},
        {"trace.basic_p10_ms", percentile(tally.basic_ms, 10), "ms",
         tally.basic_ms.size()},
        {"trace.audits_per_s", audits_per_s, "1/s", throughput_audits},
        {"bench.close_gate_share", gate_share, "ratio", tally.drain_ms.size()},
        {"mem.peak_rss_mb", peak_rss_mb(), "MB", 1},
    };
    // Workload-specific layers, printed but not part of the result object.
    if (w.batch) {
      print_metric({"ice.edge.batch_proof_ms", l.edge_batch_proof_ms, "ms", n});
      print_metric({"ice.tpa.batch_verify_ms", l.tpa_batch_verify_ms, "ms", n});
      print_metric({"ice.user.batch_repack_ms", l.batch_repack_ms, "ms", n});
    }
    if (w.config.owner) {
      print_metric({"pir.stage_ms", l.stage_ms, "ms", tally.lateness_ms.size()});
      print_metric({"pir.close_ms", l.close_ms, "ms", 2 * tally.drain_ms.size()});
    }
    const BasicBreakdown& m = l.median;
    const double sum = m.user + m.transport + m.tpa + m.edge + m.pir;
    const std::pair<const char*, double> layers[] = {
        {"user", m.user}, {"transport", m.transport}, {"tpa", m.tpa},
        {"edge", m.edge}, {"pir", m.pir}};
    const auto dominant = *std::max_element(
        std::begin(layers), std::end(layers),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    // Each part is measured on its own, so time on the path that no span
    // accounts for makes the sum fall short of the round. With several
    // users the blocking branch changes from round to round, so medians of
    // the parts need not add up; the gate holds on single-user workloads.
    constexpr double kAttributionBound = 0.10;
    const double miss = (sum - m.round) / std::max(m.round, 1e-9);
    std::printf("blocking path of ICE-basic (medians over %zu rounds, PIR "
                "blocking in %zu, ms): user %.3f  transport %.3f  tpa %.3f  "
                "edge %.3f  pir %.3f\n",
                l.basic_rounds, l.pir_critical_rounds, m.user, m.transport,
                m.tpa, m.edge, m.pir);
    std::printf("attribution: layer sum %.3f ms vs round median %.3f ms "
                "(%+.2f%%, bound %.0f%%); per-round coverage median %.4f; "
                "dominant layer: %s; rounds with a negative part: %zu\n",
                sum, m.round, 100 * miss, 100 * kAttributionBound, l.coverage,
                dominant.first, l.negative_parts);
    if (!w.config.owner) {
      gates.check(l.basic_rounds > 0 && std::fabs(miss) <= kAttributionBound,
                  "layer sum within 10% of the traced round median");
    }
    const std::string dump =
        args.out_dir + "/spans_" + w.name + "_seed" + std::to_string(args.seed) + ".csv";
    std::printf("span dump: %s (%zu spans) %s\n", dump.c_str(), spans.size(),
                tracer.dump(dump) ? "written" : "NOT written");
  }
  for (const Metric& m : metrics) print_metric(m);
  print_result(gates.ok, tally.attempted, tally.failed, metrics);
  std::fflush(stdout);
  return gates.ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
