#include "analysis.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "ice/wire.h"

namespace perfbench {
namespace {

using namespace ice::proto;

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Length of the union of [t0, t1) intervals.
std::int64_t covered(std::vector<std::pair<std::int64_t, std::int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t end = INT64_MIN;
  for (const auto& [a, b] : iv) {
    const std::int64_t from = std::max(a, end);
    if (b > from) total += b - from;
    end = std::max(end, b);
  }
  return total;
}

class Index {
 public:
  explicit Index(const LayerInput& in) : in_(in) {
    for (const Span& s : *in.spans) {
      if (s.kind == SpanKind::kHandle) {
        handles_[key(s.site, s.method)].push_back(&s);
      } else if (s.kind == SpanKind::kCall) {
        if (s.parent >= 0) children_[s.parent].push_back(&s);
        const int client = (*in.sites)[s.site].client;
        if (client >= 0) client_calls_[client].push_back(&s);
      }
    }
    const auto by_start = [](const Span* a, const Span* b) {
      return a->t0 < b->t0;
    };
    for (auto& [k, v] : handles_) std::sort(v.begin(), v.end(), by_start);
    for (auto& [k, v] : client_calls_) std::sort(v.begin(), v.end(), by_start);
  }

  [[nodiscard]] bool in_window(const Span& s) const {
    return s.t0 >= in_.window_begin && s.t1 <= in_.window_end;
  }

  /// Handle spans of `method` at any service inside the window.
  [[nodiscard]] std::vector<const Span*> handles(std::uint16_t method) const {
    std::vector<const Span*> out;
    for (const auto& [k, v] : handles_) {
      if ((k & 0xffff) != method) continue;
      for (const Span* s : v) {
        if (in_window(*s)) out.push_back(s);
      }
    }
    return out;
  }

  /// Duration minus the calls the handle made (its own time), in ms.
  [[nodiscard]] double self_ms(const Span& handle) const {
    std::int64_t nested = 0;
    const auto it = children_.find(handle.id);
    if (it != children_.end()) {
      for (const Span* c : it->second) nested += c->t1 - c->t0;
    }
    return ms(handle.t1 - handle.t0 - nested);
  }

  [[nodiscard]] const Span* child(const Span& handle,
                                  std::uint16_t method) const {
    const auto it = children_.find(handle.id);
    if (it == children_.end()) return nullptr;
    for (const Span* c : it->second) {
      if (c->method == method) return c;
    }
    return nullptr;
  }

  /// The handle a call caused: same method at the call's target, inside
  /// the call's interval; the earliest one not yet claimed.
  const Span* match(const Span& call) {
    const int target = (*in_.sites)[call.site].target;
    const auto it = handles_.find(key(static_cast<std::uint16_t>(target),
                                      call.method));
    if (target < 0 || it == handles_.end()) return nullptr;
    const auto& v = it->second;
    auto pos = std::lower_bound(
        v.begin(), v.end(), call.t0,
        [](const Span* s, std::int64_t t) { return s->t0 < t; });
    for (; pos != v.end() && (*pos)->t0 <= call.t1; ++pos) {
      if ((*pos)->t1 <= call.t1 && claimed_.insert((*pos)->id).second) {
        return *pos;
      }
    }
    return nullptr;
  }

  /// Calls client `c` made inside [t0, t1].
  [[nodiscard]] std::vector<const Span*> calls_within(int c, std::int64_t t0,
                                                      std::int64_t t1) const {
    std::vector<const Span*> out;
    const auto it = client_calls_.find(c);
    if (it == client_calls_.end()) return out;
    for (const Span* s : it->second) {
      if (s->t0 >= t0 && s->t1 <= t1) out.push_back(s);
    }
    return out;
  }

 private:
  static std::uint32_t key(std::uint16_t site, std::uint16_t method) {
    return (static_cast<std::uint32_t>(site) << 16) | method;
  }

  const LayerInput& in_;
  std::unordered_map<std::uint32_t, std::vector<const Span*>> handles_;
  std::unordered_map<std::int32_t, std::vector<const Span*>> children_;
  std::map<int, std::vector<const Span*>> client_calls_;
  std::unordered_set<std::int32_t> claimed_;
};

const Span* first_of(const std::vector<const Span*>& calls,
                     std::uint16_t method) {
  for (const Span* s : calls) {
    if (s->method == method) return s;
  }
  return nullptr;
}

/// The kTpaShardQuery call to `target` that returned last (a stale-plan
/// retry replaces the first attempt), or null.
const Span* last_query(const std::vector<const Span*>& calls,
                       const std::vector<SiteInfo>& sites, int target) {
  const Span* last = nullptr;
  for (const Span* s : calls) {
    if (s->method == kTpaShardQuery && sites[s->site].target == target &&
        (last == nullptr || s->t1 > last->t1)) {
      last = s;
    }
  }
  return last;
}

double median_of(const std::vector<const Span*>& spans) {
  std::vector<double> v;
  for (const Span* s : spans) v.push_back(s->ms());
  return median(std::move(v));
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

LayerResult analyze(const LayerInput& in) {
  Index index(in);
  LayerResult out;

  out.edge_proof_ms = median_of(index.handles(kEdgeChallenge));
  out.tpa_verify_ms = median_of(index.handles(kTpaSubmitRepacked));
  out.tpa_batch_verify_ms = median_of(index.handles(kTpaBatchFinish));
  out.stage_ms = median_of(index.handles(kTpaUpdateTag));
  out.close_ms = median_of(index.handles(kTpaCloseEpoch));
  {
    std::vector<double> batch_proof;
    for (const Span* h : index.handles(kEdgeBatchChallenge)) {
      batch_proof.push_back(index.self_ms(*h));
    }
    out.edge_batch_proof_ms = median(std::move(batch_proof));
    std::vector<double> challenge;
    for (const Span* h : index.handles(kTpaStartAudit)) {
      challenge.push_back(index.self_ms(*h));
    }
    out.tpa_challenge_ms = median(std::move(challenge));
  }

  // Query attempts and points: user -> TPA0 shard queries in the window.
  std::size_t queries = 0;
  std::size_t points = 0;
  for (const Span& s : *in.spans) {
    if (s.kind != SpanKind::kCall || !index.in_window(s)) continue;
    const SiteInfo& site = (*in.sites)[s.site];
    if (s.status != 0) ++out.errors;
    if (site.role == Role::kUserTpa && site.target == in.tpa0 &&
        s.method == kTpaShardQuery) {
      ++queries;
      points += s.points;
    }
  }
  if (in.audits > 0) {
    out.points_per_audit = static_cast<double>(points) / in.audits;
    out.attempts_per_retrieval = static_cast<double>(queries) / in.audits;
  }

  // Explicit retrievals (outside the window): own time is encode + decode.
  {
    std::vector<double> codec;
    for (const Span& r : *in.spans) {
      if (r.kind != SpanKind::kRetrieve) continue;
      const int client = (*in.sites)[r.site].client;
      std::vector<std::pair<std::int64_t, std::int64_t>> iv;
      for (const Span* c : index.calls_within(client, r.t0, r.t1)) {
        iv.emplace_back(c->t0, c->t1);
      }
      codec.push_back(ms(r.t1 - r.t0 - covered(std::move(iv))));
    }
    out.pir_codec_ms = median(std::move(codec));
  }

  // Per-round blocking path.
  std::vector<double> round, user, transport, tpa, edge, pir, coverage, repack,
      batch_repack, respond0, respond1;
  for (const Span& a : *in.spans) {
    const bool basic = a.kind == SpanKind::kAudit;
    if ((!basic && a.kind != SpanKind::kBatchAudit) || !index.in_window(a)) {
      continue;
    }
    const int client = (*in.sites)[a.site].client;
    const std::vector<const Span*> calls = index.calls_within(client, a.t0, a.t1);
    const Span* q0 = last_query(calls, *in.sites, in.tpa0);
    const Span* q1 = last_query(calls, *in.sites, in.tpa1);
    if (q0 == nullptr || q1 == nullptr) continue;
    const Span* last_q = q0->t1 > q1->t1 ? q0 : q1;
    if (!basic) {
      const Span* finish = first_of(calls, kTpaBatchFinish);
      if (finish != nullptr) batch_repack.push_back(ms(finish->t0 - last_q->t1));
      continue;
    }
    const Span* first_q = first_of(calls, kTpaShardQuery);
    const Span* c202 = first_of(calls, kEdgeIndexQuery);
    const Span* c203 = first_of(calls, kEdgeShareBlind);
    const Span* c303 = first_of(calls, kTpaStartAudit);
    const Span* c304 = first_of(calls, kTpaSubmitRepacked);
    if (c202 == nullptr || c203 == nullptr || c303 == nullptr ||
        c304 == nullptr) {
      continue;
    }
    const Span* h202 = index.match(*c202);
    const Span* h203 = index.match(*c203);
    const Span* h303 = index.match(*c303);
    const Span* h304 = index.match(*c304);
    const Span* c204 = h303 != nullptr ? index.child(*h303, kEdgeChallenge)
                                       : nullptr;
    const Span* h204 = c204 != nullptr ? index.match(*c204) : nullptr;
    const Span* hq0 = index.match(*q0);
    const Span* hq1 = index.match(*q1);
    if (h202 == nullptr || h203 == nullptr || h304 == nullptr ||
        h204 == nullptr || hq0 == nullptr || hq1 == nullptr) {
      continue;
    }
    respond0.push_back(hq0->ms());
    respond1.push_back(hq1->ms());
    BasicBreakdown b;
    b.round = a.ms();
    // The user's own time is measured, not what the other parts leave over:
    // the audit's stretches with none of this client's calls in flight.
    {
      std::vector<std::pair<std::int64_t, std::int64_t>> iv;
      for (const Span* c : calls) iv.emplace_back(c->t0, c->t1);
      b.user = ms(a.t1 - a.t0 - covered(std::move(iv)));
    }
    b.transport = (c202->ms() - h202->ms()) + (c203->ms() - h203->ms()) +
                  (c304->ms() - h304->ms());
    b.edge = h202->ms() + h203->ms();
    b.tpa = h304->ms();
    // The round waits for both branches. Responses on one connection come
    // back in request order, so the TPA0 query's reply can queue behind
    // start_audit's; which branch blocked is decided by when the server
    // work ended, not when the reply arrived.
    const bool q0_later = hq0->t1 > hq1->t1;
    const Span* crit_q = q0_later ? q0 : q1;
    const Span* crit_h = q0_later ? hq0 : hq1;
    if (crit_h->t1 > c303->t1) {
      ++out.pir_critical_rounds;
      // The query encode ran while the challenge call was in flight; with
      // PIR on the path it is user time on the path too.
      b.user += ms(std::max<std::int64_t>(0, first_q->t0 - c303->t0));
      b.transport += crit_q->ms() - crit_h->ms();
      b.pir = crit_h->ms();
    } else {
      b.transport += (c303->ms() - h303->ms()) + (c204->ms() - h204->ms());
      b.tpa += h303->ms() - c204->ms();
      b.edge += h204->ms();
    }
    if (b.transport < 0) ++out.negative_parts;
    coverage.push_back(
        (b.user + b.transport + b.edge + b.tpa + b.pir) / b.round);
    round.push_back(b.round);
    user.push_back(b.user);
    transport.push_back(b.transport);
    tpa.push_back(b.tpa);
    edge.push_back(b.edge);
    pir.push_back(b.pir);
    repack.push_back(ms(c304->t0 - std::max(c303->t1, last_q->t1)));
  }
  out.basic_rounds = round.size();
  out.median = {median(round),     median(user), median(transport),
                median(tpa),       median(edge), median(pir)};
  out.coverage = median(std::move(coverage));
  out.repack_ms = median(std::move(repack));
  out.batch_repack_ms = median(std::move(batch_repack));
  out.respond_tpa0_ms = median(std::move(respond0));
  out.respond_tpa1_ms = median(std::move(respond1));
  return out;
}

}  // namespace perfbench
