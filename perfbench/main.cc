// Loopback benchmark of Quaestor's read path and invalidation path.
//
//   perfbench --workload <read_hot|write_invalidate>
//             --seed <n> --seconds <s> --trace <0|1>
//
// One invocation sets the deployment up thirteen times (setup_s is their
// median) and runs one timed pass on the last one. Then a separate checked
// pass runs on a fresh deployment whose commit stream feeds a
// check::ConsistencyOracle, followed by a probe of the 304 revalidation
// path. With --trace 0 the timed pass is untraced and the end-to-end
// metrics are printed; with --trace 1 tracing is switched on in one random
// window of every pair of 250 ms windows and the per-layer metrics are
// printed. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A human-readable layer table and the checks go to stderr.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/query_result.h"
#include "stack.h"
#include "stats.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

namespace qc = quaestor;
using qc::workload::OpType;

constexpr int64_t kNsPerSec = 1000000000;
constexpr int64_t kWindowNs = 250 * 1000000;  // goodput / trace window
constexpr int64_t kWarmupNs = 1 * kNsPerSec;
constexpr int kSetups = 13;  // one set-up varies by up to ±40% on a busy host
// Several times the oracle's bound, so a copy left stale past the bound
// is read within the pass.
constexpr double kCheckSeconds = 5.0;
constexpr size_t kSetupSession = TimedServer::kMaxSessions - 1;
constexpr size_t kFreshSession = TimedServer::kMaxSessions - 2;
constexpr size_t kProbeSession = TimedServer::kMaxSessions - 3;

// ---------------------------------------------------------------------------
// Workloads

struct SessionPlan {
  double read = 0, query = 0, update = 0;
  double rate = 0;  // operations/s the session issues at most
};

struct Workload {
  std::string name;
  StackOptions stack;
  bool register_all_queries = false;
  std::vector<SessionPlan> sessions;
};

std::optional<Workload> MakeWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  auto& pop = w.stack.population;
  if (name == "read_hot") {
    // §6.1: Zipf 0.99, 49.5% reads, 49.5% queries, 1% updates. Sessions
    // have no browser cache (see the revalidation probe): the shared CDN
    // is the cache that answers.
    pop.num_tables = 2;
    pop.docs_per_table = 10000;
    pop.queries_per_table = 100;
    pop.zipf_theta = 0.99;
    w.sessions = {{0.495, 0.495, 0.01, 1500}, {0.495, 0.495, 0.01, 1500}};
  } else if (name == "write_invalidate") {
    // A writer (30% membership changes) next to a reader, every query
    // registered during set-up.
    pop.num_tables = 2;
    pop.docs_per_table = 10000;
    pop.queries_per_table = 100;
    pop.zipf_theta = 0.99;
    pop.membership_change_fraction = 0.3;
    w.register_all_queries = true;
    w.sessions = {{0, 0, 1.0, 500}, {0.5, 0.5, 0, 1000}};
  } else {
    return std::nullopt;
  }
  return w;
}

// ---------------------------------------------------------------------------
// Load generation

enum OpKind : uint8_t { kRead, kQuery, kUpdate };

struct OpRecord {
  int64_t due = 0;    // when the op was scheduled
  int64_t start = 0;
  int64_t end = 0;
  OpKind kind = kRead;
  bool ok = false;
  bool revalidated = false;
  bool stale = false;
  qc::webcache::ServedBy served_by = qc::webcache::ServedBy::kOrigin;
};

struct RunControl {
  std::atomic<bool> tracing{false};
  int64_t stop = 0;  // ns
};

/// Runs one session until `ctl.stop`, recording every operation. With an
/// oracle, every OK read/query is checked and every OK write attributed.
///
/// The session is paced: operations are scheduled `1 / plan.rate` apart,
/// and one that is due while the previous is still running starts when it
/// ends, which moves the schedule back. The load therefore never exceeds
/// the rate and never bursts to catch up. The rates leave the machine's
/// hardware threads well short of busy, so a latency measures the
/// program's work rather than a queue behind other threads.
void RunSession(Stack* stack, Session* s, const SessionPlan& plan,
                const qc::workload::WorkloadOptions& population,
                uint64_t seed, RunControl* ctl,
                std::vector<OpRecord>* out) {
  qc::workload::WorkloadOptions mix = population;
  mix.read_weight = plan.read;
  mix.query_weight = plan.query;
  mix.update_weight = plan.update;
  mix.insert_weight = 0;
  mix.delete_weight = 0;
  qc::workload::WorkloadGenerator gen(mix, seed);
  qc::check::ConsistencyOracle* oracle = stack->oracle();
  const int64_t interval = static_cast<int64_t>(1e9 / plan.rate);
  int64_t next_due = NowNs();
  for (;;) {
    OpRecord rec;
    rec.due = next_due;
    if (rec.due >= ctl->stop) break;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(rec.due)));
    if (NowNs() >= ctl->stop) break;
    qc::workload::Operation op = gen.Next();
    SessionTrace& tr = s->trace;
    tr.op_traced = ctl->tracing.load(std::memory_order_relaxed);
    Span root;
    if (tr.op_traced) {
      root.id = NextSpanId();
      tr.root = root.id;
    }
    rec.start = NowNs();
    switch (op.type) {
      case OpType::kRead: {
        rec.kind = kRead;
        root.name = kClientRead;
        qc::client::ReadResult r = s->client->Read(op.table, op.id);
        rec.ok = r.status.ok();
        rec.revalidated = r.outcome.revalidated;
        rec.served_by = r.outcome.served_by;
        if (rec.ok) {
          rec.stale = stack->versions().Superseded(op.table, op.id, r.version);
          if (oracle != nullptr) {
            std::lock_guard<std::mutex> lock(stack->oracle_mu());
            oracle->CheckRead(s->name, op.table + "/" + op.id, true,
                              r.version);
          }
        }
        break;
      }
      case OpType::kQuery: {
        rec.kind = kQuery;
        root.name = kClientQuery;
        qc::client::QueryResult r = s->client->ExecuteQuery(op.query);
        rec.ok = r.status.ok();
        rec.revalidated = r.outcome.revalidated;
        rec.served_by = r.outcome.served_by;
        if (rec.ok && oracle != nullptr) {
          std::lock_guard<std::mutex> lock(stack->oracle_mu());
          oracle->CheckQuery(s->name, op.query, true, r.etag,
                             r.representation);
        }
        break;
      }
      default: {
        rec.kind = kUpdate;
        root.name = kClientUpdate;
        auto r = s->client->Update(op.table, op.id, op.update);
        rec.ok = r.ok();
        if (rec.ok && oracle != nullptr) {
          std::lock_guard<std::mutex> lock(stack->oracle_mu());
          oracle->OnSessionWrite(s->name, r.value());
        }
        break;
      }
    }
    rec.end = NowNs();
    next_due = std::max(rec.due + interval, rec.end);
    if (tr.op_traced) {
      root.when = {rec.start, rec.end};
      tr.spans.push_back(root);
      tr.root = 0;
      tr.op_traced = false;
    }
    out->push_back(rec);
  }
}

/// Machine-wide CPU time counters from /proc/stat (all CPUs, in ticks).
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  CpuTicks t;
  stat >> cpu;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8 && stat; ++i) {
    uint64_t v = 0;
    stat >> v;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

/// Counters read from the program's public stats() and getters.
struct Counters {
  qc::core::ServerStats server;
  uint64_t requests_served = 0;
  uint64_t frames_shed = 0;
  uint64_t reconnects = 0;
  uint64_t redeliveries = 0;
};

Counters ReadCounters(Stack& stack) {
  Counters c;
  c.server = stack.server().stats();
  c.requests_served = stack.net().http()->requests_served();
  c.frames_shed = stack.net().hub()->frames_shed() +
                  stack.worker().frame_client()->frames_shed() +
                  stack.purge_client().frames_shed();
  c.reconnects = stack.worker().frame_client()->reconnects() +
                 stack.purge_client().reconnects();
  c.redeliveries = stack.net().remote()->stats().redeliveries +
                   stack.worker().worker()->stats().redeliveries;
  return c;
}

struct PassResult {
  int64_t begin = 0, end = 0;  // measured interval (ns)
  std::vector<bool> traced_window;  // per kWindowNs window of the interval
  std::vector<OpRecord> ops;   // all sessions, completed in the interval
  std::vector<Span> spans;     // all sessions + origin
  std::vector<double> record_ttl_ms, query_ttl_ms;
  std::vector<InvalidationTracker::Sample> invalidations;  // commit in interval
  Counters before, after;
  CpuTicks cpu_before, cpu_after;
  bool drained = false;
  uint64_t undelivered = 0;
};

/// Runs every session of `w` for `warmup_ns` + `measure_ns`, then drains
/// the invalidation pipeline. With `trace`, tracing is on in one window of
/// each pair of windows of the measured interval.
PassResult RunPass(Stack& stack,
                   std::vector<std::unique_ptr<Session>>& sessions,
                   const Workload& w, uint64_t seed, int64_t warmup_ns,
                   int64_t measure_ns, bool trace) {
  PassResult res;
  RunControl ctl;
  const int64_t t0 = NowNs();
  res.begin = t0 + warmup_ns;
  res.end = res.begin + measure_ns;
  ctl.stop = res.end;
  // With tracing, the windows pair up and one of each pair, chosen at
  // random, is traced: a fixed alternation would alias with periodic work
  // such as the 1 s EBF refresh, and pairing neighbours cancels drift in
  // the machine's speed out of the overhead estimate.
  res.traced_window.assign(static_cast<size_t>(measure_ns / kWindowNs) + 1,
                           false);
  if (trace) {
    qc::Rng rng(seed ^ 0x7261636557696eULL);
    for (size_t k = 0; k + 1 < res.traced_window.size(); k += 2) {
      res.traced_window[k + rng.NextUint64(2)] = true;
    }
  }
  std::vector<std::vector<OpRecord>> per_session(sessions.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < sessions.size(); ++i) {
    per_session[i].reserve(static_cast<size_t>(measure_ns / 10000));
    threads.emplace_back(RunSession, &stack, sessions[i].get(),
                         std::cref(w.sessions[i]),
                         std::cref(w.stack.population),
                         seed * 1000003 + i, &ctl, &per_session[i]);
  }
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(res.begin)));
  res.before = ReadCounters(stack);
  res.cpu_before = ReadCpuTicks();
  for (size_t k = 0; k < res.traced_window.size(); ++k) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(res.begin + static_cast<int64_t>(k) *
                                                 kWindowNs)));
    ctl.tracing.store(res.traced_window[k], std::memory_order_relaxed);
  }
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(res.end)));
  ctl.tracing.store(false);
  res.after = ReadCounters(stack);
  res.cpu_after = ReadCpuTicks();
  for (std::thread& t : threads) t.join();

  for (size_t i = 0; i < sessions.size(); ++i) {
    for (const OpRecord& r : per_session[i]) {
      if (r.end >= res.begin && r.end < res.end) res.ops.push_back(r);
    }
    SessionTrace& tr = sessions[i]->trace;
    res.spans.insert(res.spans.end(), tr.spans.begin(), tr.spans.end());
    res.record_ttl_ms.insert(res.record_ttl_ms.end(), tr.record_ttl_ms.begin(),
                             tr.record_ttl_ms.end());
    res.query_ttl_ms.insert(res.query_ttl_ms.end(), tr.query_ttl_ms.begin(),
                            tr.query_ttl_ms.end());
    tr.spans.clear();
    tr.record_ttl_ms.clear();
    tr.query_ttl_ms.clear();
  }
  std::vector<Span> origin = stack.server().TakeSpans();
  res.spans.insert(res.spans.end(), origin.begin(), origin.end());

  // Every tapped notification's purge must reach the subscriber.
  res.drained = stack.Drain(/*quiet_ms=*/200, /*timeout_ms=*/10000);
  res.undelivered = stack.invalidations().Undelivered();
  const Micros begin_us = res.begin / 1000, end_us = res.end / 1000;
  for (const auto& s : stack.invalidations().Samples()) {
    if (s.commit >= begin_us && s.commit < end_us) {
      res.invalidations.push_back(s);
    }
  }
  return res;
}

// ---------------------------------------------------------------------------
// Set-up

struct Deployment {
  std::unique_ptr<Stack> stack;
  std::vector<std::unique_ptr<Session>> sessions;
  std::unique_ptr<Session> setup_session;
  // Sessions go before the stack they talk to.
  ~Deployment() {
    sessions.clear();
    setup_session.reset();
    stack.reset();
  }
};

bool SetUp(const Workload& w, bool with_oracle, Deployment* d) {
  StackOptions opts = w.stack;
  opts.with_oracle = with_oracle;
  d->stack = std::make_unique<Stack>(opts);
  if (!d->stack->ok()) return false;
  if (w.register_all_queries) {
    d->setup_session = d->stack->OpenSession(kSetupSession);
    for (size_t t = 0; t < w.stack.population.num_tables; ++t) {
      qc::workload::WorkloadGenerator gen(w.stack.population, 0);
      for (const qc::db::Query& q : gen.QueriesFor(t)) {
        if (!d->setup_session->client->ExecuteQuery(q).status.ok()) {
          return false;
        }
      }
    }
  }
  for (size_t i = 0; i < w.sessions.size(); ++i) {
    d->sessions.push_back(d->stack->OpenSession(i));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Checked pass

struct CheckResult {
  bool setup_ok = false;
  uint64_t ops = 0;
  uint64_t ok_ops = 0;
  uint64_t checked_reads = 0, checked_queries = 0;
  size_t violations = 0;
  bool drained = false;
  uint64_t undelivered = 0;
  uint64_t notifications = 0;
  size_t converge_checked = 0;
  size_t converge_mismatch = 0;
  // Revalidation probe: conditional re-reads, the origin's 304 answers to
  // them, and the re-reads that did not come back OK.
  uint64_t probe_revalidations = 0;
  uint64_t probe_not_modified = 0;
  uint64_t probe_failed = 0;
  std::vector<std::string> notes;

  bool ok() const {
    return setup_ok && violations == 0 && drained && undelivered == 0 &&
           converge_mismatch == 0 && converge_checked > 0 &&
           checked_reads + checked_queries > 0;
  }
};

uint64_t CurrentQueryEtag(qc::db::Database& db, const qc::db::Query& q,
                          qc::ttl::ResultRepresentation rep) {
  qc::core::QueryResponse r;
  r.representation = rep;
  for (const qc::db::Document& d : db.Execute(q)) {
    r.ids.push_back(d.Key());
    if (rep == qc::ttl::ResultRepresentation::kObjectList) {
      r.versions.push_back(d.version);
    }
  }
  return r.ComputeEtag();
}

CheckResult RunCheckedPass(const Workload& w, uint64_t seed) {
  CheckResult cr;
  Deployment d;
  cr.setup_ok = SetUp(w, /*with_oracle=*/true, &d);
  if (!cr.setup_ok) return cr;
  PassResult pass = RunPass(*d.stack, d.sessions, w, seed, /*warmup_ns=*/0,
                            static_cast<int64_t>(kCheckSeconds * kNsPerSec),
                            /*trace=*/false);
  cr.ops = pass.ops.size();
  for (const OpRecord& r : pass.ops) cr.ok_ops += r.ok ? 1 : 0;
  {
    std::lock_guard<std::mutex> lock(d.stack->oracle_mu());
    auto* oracle = d.stack->oracle();
    cr.checked_reads = oracle->checked_reads();
    cr.checked_queries = oracle->checked_queries();
    cr.violations = oracle->violations().size();
    for (size_t i = 0; i < oracle->violations().size() && i < 5; ++i) {
      cr.notes.push_back(oracle->violations()[i].ToString());
    }
  }
  cr.drained = pass.drained;
  cr.undelivered = pass.undelivered;
  cr.notifications = d.stack->invalidations().notifications();

  // Quiesced: a fresh session must read every sampled record's and
  // query's current version.
  auto fresh = d.stack->OpenSession(kFreshSession);
  qc::db::Database& db = d.stack->db();
  const auto& pop = w.stack.population;
  qc::workload::WorkloadGenerator gen(pop, 0);
  qc::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<std::pair<std::string, std::string>> sampled;
  for (size_t t = 0; t < pop.num_tables; ++t) {
    const std::string table = qc::workload::WorkloadGenerator::TableName(t);
    std::set<size_t> ids;
    for (size_t i = 0; i < 50 && i < pop.docs_per_table; ++i) ids.insert(i);
    for (size_t i = 0; i < 50; ++i) ids.insert(rng.NextUint64(pop.docs_per_table));
    for (size_t i : ids) {
      const std::string id = qc::workload::WorkloadGenerator::DocId(i);
      sampled.emplace_back(table, id);
      auto want = db.Get(table, id);
      qc::client::ReadResult r = fresh->client->Read(table, id);
      cr.converge_checked++;
      if (!want.ok() || !r.status.ok() || r.version != want.value().version) {
        cr.converge_mismatch++;
        if (cr.notes.size() < 10) {
          cr.notes.push_back("record " + table + "/" + id + " read v" +
                             std::to_string(r.version) + " status " +
                             r.status.ToString());
        }
      }
    }
  }
  for (size_t t = 0; t < pop.num_tables; ++t) {
    for (const qc::db::Query& q : gen.QueriesFor(t)) {
      qc::client::QueryResult r = fresh->client->ExecuteQuery(q);
      cr.converge_checked++;
      if (!r.status.ok() ||
          r.etag != CurrentQueryEtag(db, q, r.representation)) {
        cr.converge_mismatch++;
        if (cr.notes.size() < 10) {
          cr.notes.push_back("query " + q.NormalizedKey() + " status " +
                             r.status.ToString());
        }
      }
    }
  }

  // The 304 path, which the timed sessions never take (README.md, "Known
  // defect"): read each sampled record twice through a browser cache at
  // strong consistency. The second read revalidates the unchanged copy,
  // so the origin answers 304 and the browser copy must be served.
  auto probe = d.stack->OpenSession(kProbeSession, /*revalidation_probe=*/true);
  const uint64_t not_modified_before = d.stack->server().stats().not_modified;
  for (const auto& [table, id] : sampled) {
    if (!probe->client->Read(table, id).status.ok()) continue;
    cr.probe_revalidations++;
    if (!probe->client->Read(table, id).status.ok()) cr.probe_failed++;
  }
  cr.probe_not_modified =
      d.stack->server().stats().not_modified - not_modified_before;
  return cr;
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Us(int64_t ns) { return static_cast<double>(ns) / 1000.0; }

std::vector<double> Latencies(const PassResult& p, OpKind kind) {
  std::vector<double> v;
  for (const OpRecord& r : p.ops) {
    if (r.kind != kind || !r.ok) continue;
    v.push_back(Us(r.end - r.start));
  }
  return v;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Adds `name` = the q-quantile of `samples` if they support it; a tail
/// the sample cannot back is left out, not reported thinner.
void AddQuantile(std::vector<Metric>* out, const std::string& name,
                 std::vector<double> samples, double q,
                 const std::string& unit) {
  auto v = SupportedQuantile(&samples, q);
  if (v.has_value()) {
    out->push_back({name, *v, unit});
  } else {
    std::fprintf(stderr, "  %s omitted: %zu samples do not support q%.2f\n",
                 name.c_str(), samples.size(), q);
  }
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

std::vector<Metric> EndToEnd(const PassResult& p, double setup_s) {
  std::vector<Metric> m;
  m.push_back({"setup_s", setup_s, "s"});
  uint64_t ok = 0;
  for (const OpRecord& r : p.ops) ok += r.ok ? 1 : 0;
  const double attempted = static_cast<double>(p.ops.size());
  m.push_back({"ok_ratio", attempted > 0 ? ok / attempted : 0.0, "ratio"});
  AddQuantile(&m, "read_p50_us", Latencies(p, kRead), 0.5, "us");
  AddQuantile(&m, "query_p50_us", Latencies(p, kQuery), 0.5, "us");
  AddQuantile(&m, "write_p50_us", Latencies(p, kUpdate), 0.5, "us");
  return m;
}

bool ServedFromCdn(const OpRecord& r) {
  return r.served_by == qc::webcache::ServedBy::kInvalidationCache ||
         r.served_by == qc::webcache::ServedBy::kExpirationCache;
}

/// Share of the machine's CPU time the hypervisor took during the pass.
double StealPct(const PassResult& p) {
  return 100.0 * Ratio(p.cpu_after.steal - p.cpu_before.steal,
                       p.cpu_after.total - p.cpu_before.total);
}

std::vector<Metric> PerLayer(const PassResult& p, const CheckResult& check,
                             double peak_rss_mb) {
  std::vector<Metric> m;
  // --- client / webcache: from RequestOutcome over reads and queries.
  uint64_t lookups = 0, cdn = 0, reval = 0;
  uint64_t failed = 0, ok_reads = 0, stale = 0, ok_updates = 0;
  std::vector<double> cdn_us, lag_us;
  for (const OpRecord& r : p.ops) {
    if (!r.ok) failed++;
    if (r.kind == kUpdate) {
      ok_updates += r.ok ? 1 : 0;
      continue;
    }
    lookups++;
    if (r.kind == kRead && r.ok) {
      ok_reads++;
      stale += r.stale ? 1 : 0;
    }
    if (r.revalidated) reval++;
    if (!r.ok) continue;
    // CDN hit latency over record reads only: every query also pays a
    // query-shape round trip, whichever tier answers it.
    if (ServedFromCdn(r)) {
      cdn++;
      if (r.kind == kRead) cdn_us.push_back(Us(r.end - r.start));
    }
  }
  for (const OpRecord& r : p.ops) lag_us.push_back(Us(r.start - r.due));

  // --- spans: per-name durations and self times.
  const std::vector<int64_t> self = SelfTimes(p.spans);
  std::vector<std::vector<double>> dur(kSpanNames), self_us(kSpanNames);
  for (size_t i = 0; i < p.spans.size(); ++i) {
    const Span& s = p.spans[i];
    if (s.name >= kSpanNames) continue;
    dur[s.name].push_back(Us(s.when.end - s.when.start));
    self_us[s.name].push_back(Us(self[i]));
  }
  std::vector<double> core_all = dur[kCoreRecordFetch];
  core_all.insert(core_all.end(), dur[kCoreQueryFetch].begin(),
                  dur[kCoreQueryFetch].end());

  const auto& sb = p.before.server;
  const auto& sa = p.after.server;
  const uint64_t memo_hits = sa.body_memo_hits - sb.body_memo_hits;
  const uint64_t memo_total =
      memo_hits + (sa.body_memo_misses - sb.body_memo_misses);
  const uint64_t origin_reads = (sa.record_reads - sb.record_reads) +
                                (sa.query_reads - sb.query_reads);

  // Invalidation stages: commit -> purge sent -> purge at the subscriber.
  std::vector<double> notify_us, purge_us, inval_us;
  for (const auto& s : p.invalidations) {
    notify_us.push_back(static_cast<double>(s.sent - s.commit));
    purge_us.push_back(static_cast<double>(s.arrived - s.sent));
    inval_us.push_back(static_cast<double>(s.arrived - s.commit));
  }

  // --- goodput, over the untraced windows. The sessions are paced, so
  // it falls short of the offered rate only when operations run long.
  std::vector<int64_t> ok_ends;
  std::vector<Stamped> op_us;
  for (const OpRecord& r : p.ops) {
    if (!r.ok) continue;
    ok_ends.push_back(r.end);
    op_us.push_back({r.end, Us(r.end - r.start)});
  }
  const std::vector<double> rates =
      WindowRates(ok_ends, p.begin, p.end, kWindowNs, 1e9);
  // --- trace overhead: the mean operation time in the traced window of
  // each pair against the untraced one.
  const std::vector<double> op_means =
      WindowMeans(op_us, p.begin, p.end, kWindowNs);
  std::vector<double> plain_rates, plain_us, traced_us, pair_overhead;
  for (size_t k = 0; k + 1 < rates.size(); k += 2) {
    const size_t on = p.traced_window[k] ? k : k + 1;
    const size_t off = on == k ? k + 1 : k;
    plain_rates.push_back(rates[off]);
    if (std::isnan(op_means[on]) || std::isnan(op_means[off])) continue;
    traced_us.push_back(op_means[on]);
    plain_us.push_back(op_means[off]);
    pair_overhead.push_back(100.0 * (op_means[on] - op_means[off]) /
                            op_means[off]);
  }
  const double plain_rate = plain_rates.empty() ? 0.0 : Median(plain_rates);
  const double overhead_pct =
      pair_overhead.empty() ? 0.0 : Median(pair_overhead);

  // --- layer table, on stderr. A root's self time is its duration minus
  // its children's, so on the read path client + net + core self times
  // add up to the traced read latency by construction.
  std::fprintf(stderr, "layer table (%zu spans):\n", p.spans.size());
  std::fprintf(stderr, "  %-20s %9s %10s %10s %10s\n", "span", "count",
               "p50 us", "mean us", "self us");
  for (uint32_t n = 0; n < kSpanNames; ++n) {
    std::vector<double> v = dur[n];
    std::fprintf(stderr, "  %-20s %9zu %10.2f %10.2f %10.2f\n",
                 SpanNameOf(n), v.size(), Quantile(&v, 0.5), Mean(v),
                 Mean(self_us[n]));
  }
  std::fprintf(stderr,
               "invalidation path (%zu notifications): commit->sent %.1f + "
               "sent->arrived %.1f = %.1f us (means)\n",
               inval_us.size(), Mean(notify_us), Mean(purge_us),
               Mean(inval_us));
  std::fprintf(stderr, "trace overhead: %.2f%% (median over %zu window "
               "pairs; mean operation %.1f us untraced vs %.1f traced)\n",
               overhead_pct, pair_overhead.size(),
               plain_us.empty() ? 0.0 : Median(plain_us),
               traced_us.empty() ? 0.0 : Median(traced_us));

  // User-visible figures whose run-to-run spread on a shared machine is
  // too wide to gate (see README.md), reported here unbounded.
  m.push_back({"goodput_ops_s", plain_rate, "ops/s"});
  AddQuantile(&m, "read_p99_us", Latencies(p, kRead), 0.99, "us");
  AddQuantile(&m, "query_p99_us", Latencies(p, kQuery), 0.99, "us");
  AddQuantile(&m, "invalidation_p50_us", inval_us, 0.5, "us");
  // Tails that not every workload can back (read_hot issues about 1200
  // writes and 150 invalidations in 40 s) go to stderr only, so every run
  // prints the same set of metrics.
  for (const auto& [name, samples] :
       {std::pair<const char*, std::vector<double>>{"write_p99_us",
                                                    Latencies(p, kUpdate)},
        {"invalidation_p99_us", inval_us}}) {
    std::vector<double> v = samples;
    auto p99 = SupportedQuantile(&v, 0.99);
    if (p99.has_value()) {
      std::fprintf(stderr, "  %s %.1f us (%zu samples)\n", name, *p99,
                   v.size());
    } else {
      std::fprintf(stderr, "  %s omitted: %zu samples do not support q0.99\n",
                   name, v.size());
    }
  }
  m.push_back({"error_ratio", Ratio(failed, p.ops.size()), "ratio"});
  m.push_back({"stale_read_ratio", Ratio(stale, ok_reads), "ratio"});
  // Includes the benchmark's own per-operation records, and grows with
  // the keys the unbounded caches take in, so it moves with throughput.
  m.push_back({"peak_rss_mb", peak_rss_mb, "MB"});

  auto p50 = [](std::vector<double> v) { return Quantile(&v, 0.5); };
  m.push_back({"client.cdn_hit_ratio", Ratio(cdn, lookups), "ratio"});
  m.push_back({"client.revalidations_per_read", Ratio(reval, lookups),
               "ratio"});
  // From the revalidation probe of the checked pass.
  m.push_back({"client.failed_revalidations",
               static_cast<double>(check.probe_failed), "count"});
  m.push_back({"client.ebf_refresh_us", p50(dur[kNetEbf]), "us"});
  m.push_back({"webcache.cdn_hit_us", p50(cdn_us), "us"});
  m.push_back({"net.fetch_us", p50(dur[kNetFetch]), "us"});
  m.push_back({"net.overhead_us", p50(self_us[kNetFetch]), "us"});
  m.push_back({"net.query_shape_us", p50(dur[kNetQueryShape]), "us"});
  m.push_back({"core.fetch_us", p50(core_all), "us"});
  m.push_back({"core.record_fetch_us", p50(dur[kCoreRecordFetch]), "us"});
  m.push_back({"core.query_fetch_us", p50(dur[kCoreQueryFetch]), "us"});
  m.push_back({"core.memo_hit_ratio", Ratio(memo_hits, memo_total), "ratio"});
  m.push_back({"core.not_modified_ratio",
               Ratio(sa.not_modified - sb.not_modified, origin_reads),
               "ratio"});
  m.push_back({"net.write_us", p50(dur[kNetWrite]), "us"});
  m.push_back({"net.requests_served",
               static_cast<double>(p.after.requests_served -
                                   p.before.requests_served),
               "count"});
  m.push_back({"net.frames_shed",
               static_cast<double>(p.after.frames_shed - p.before.frames_shed),
               "count"});
  m.push_back({"net.reconnects",
               static_cast<double>(p.after.reconnects - p.before.reconnects),
               "count"});
  m.push_back({"ttl.record_ttl_p50_ms", p50(p.record_ttl_ms), "ms"});
  m.push_back({"ttl.query_ttl_p50_ms", p50(p.query_ttl_ms), "ms"});
  m.push_back({"invalidb.notify_us", p50(notify_us), "us"});
  m.push_back({"invalidb.notifications_per_write",
               Ratio(p.invalidations.size(), ok_updates), "ratio"});
  m.push_back({"net.purge_us", p50(purge_us), "us"});
  m.push_back({"invalidb.redeliveries",
               static_cast<double>(p.after.redeliveries -
                                   p.before.redeliveries),
               "count"});
  m.push_back({"loadgen.lag_p99_us", Quantile(&lag_us, 0.99), "us"});
  m.push_back({"trace.overhead_pct", overhead_pct, "%"});
  m.push_back({"host.steal_pct", StealPct(p), "%"});
  return m;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-36s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload read_hot|write_invalidate"
               " --seed N --seconds S --trace 0|1\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1 || !args.count("workload") || !args.count("seed") ||
      !args.count("seconds") || !args.count("trace")) {
    return Usage();
  }
  const std::optional<Workload> w = MakeWorkload(args["workload"]);
  if (!w) return Usage();
  const uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const double seconds = std::strtod(args["seconds"].c_str(), nullptr);
  const bool trace = args["trace"] == "1";
  if (!(seconds > 0) || seconds > 60) return Usage();

  std::fprintf(stderr,
               "perfbench workload=%s seed=%llu seconds=%g trace=%d "
               "hardware_threads=%u\n",
               w->name.c_str(), static_cast<unsigned long long>(seed),
               seconds, trace ? 1 : 0, std::thread::hardware_concurrency());

  // Set-up, several times; the last deployment serves the timed pass.
  std::vector<double> setup_times;
  auto deployment = std::make_unique<Deployment>();
  for (int i = 0; i < kSetups; ++i) {
    deployment = std::make_unique<Deployment>();  // tears the previous down
    const int64_t t0 = NowNs();
    if (!SetUp(*w, /*with_oracle=*/false, deployment.get())) {
      std::fprintf(stderr, "set-up failed\n");
      return 1;
    }
    setup_times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  std::fprintf(stderr, "set-up times (s):");
  for (double t : setup_times) std::fprintf(stderr, " %.3f", t);
  std::fprintf(stderr, "\n");
  PassResult pass =
      RunPass(*deployment->stack, deployment->sessions, *w, seed, kWarmupNs,
              static_cast<int64_t>(seconds * kNsPerSec), trace);
  const double peak_rss_mb = PeakRssMb();
  deployment.reset();

  const CheckResult check = RunCheckedPass(*w, seed + 1);

  uint64_t failed = 0;
  for (const OpRecord& r : pass.ops) failed += r.ok ? 0 : 1;
  std::fprintf(stderr,
               "timed pass: %zu ops, %llu failed, host steal %.1f%%; purges "
               "undelivered %llu (drained %d)\n",
               pass.ops.size(), static_cast<unsigned long long>(failed),
               StealPct(pass),
               static_cast<unsigned long long>(pass.undelivered),
               pass.drained ? 1 : 0);
  std::fprintf(stderr,
               "checked pass: %llu ops (%llu ok), oracle checked %llu reads "
               "+ %llu queries, %zu violations; %llu notifications, %llu "
               "purges undelivered (drained %d); convergence %zu/%zu\n",
               static_cast<unsigned long long>(check.ops),
               static_cast<unsigned long long>(check.ok_ops),
               static_cast<unsigned long long>(check.checked_reads),
               static_cast<unsigned long long>(check.checked_queries),
               check.violations,
               static_cast<unsigned long long>(check.notifications),
               static_cast<unsigned long long>(check.undelivered),
               check.drained ? 1 : 0,
               check.converge_checked - check.converge_mismatch,
               check.converge_checked);
  std::fprintf(stderr,
               "revalidation probe: %llu conditional re-reads, origin "
               "answered %llu with 304, %llu did not come back OK\n",
               static_cast<unsigned long long>(check.probe_revalidations),
               static_cast<unsigned long long>(check.probe_not_modified),
               static_cast<unsigned long long>(check.probe_failed));
  for (const std::string& n : check.notes) {
    std::fprintf(stderr, "  check: %s\n", n.c_str());
  }
  const bool correct = check.ok() && pass.drained && pass.undelivered == 0;
  std::vector<Metric> metrics =
      trace ? PerLayer(pass, check, peak_rss_mb)
            : EndToEnd(pass, Median(setup_times));
  PrintResult(correct, pass.ops.size(), failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
