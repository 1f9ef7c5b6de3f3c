#include "stack.h"

#include <chrono>
#include <cstdlib>
#include <functional>
#include <thread>
#include <utility>

namespace perfbench {

namespace qc = quaestor;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* SpanNameOf(uint32_t name) {
  switch (name) {
    case kClientRead:
      return "client.read";
    case kClientQuery:
      return "client.query";
    case kClientUpdate:
      return "client.update";
    case kNetFetch:
      return "net.fetch";
    case kNetEbf:
      return "net.ebf";
    case kNetQueryShape:
      return "net.query_shape";
    case kNetWrite:
      return "net.write";
    case kCoreRecordFetch:
      return "core.record_fetch";
    case kCoreQueryFetch:
      return "core.query_fetch";
    default:
      return "?";
  }
}

uint64_t NextSpanId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

namespace {

/// A net.* span on the session thread, child of the open client span.
/// Publishes itself so the origin's span (another thread) can attach.
class NetSpan {
 public:
  NetSpan(SessionTrace* trace, uint32_t name) : trace_(trace) {
    if (!trace_->op_traced) return;
    span_.id = NextSpanId();
    span_.parent = trace_->root;
    span_.name = name;
    trace_->open_net.store(span_.id, std::memory_order_release);
    span_.when.start = NowNs();
  }
  ~NetSpan() {
    if (span_.id == 0) return;
    span_.when.end = NowNs();
    trace_->open_net.store(0, std::memory_order_release);
    trace_->spans.push_back(span_);
  }
  NetSpan(const NetSpan&) = delete;
  NetSpan& operator=(const NetSpan&) = delete;

 private:
  SessionTrace* trace_;
  Span span_;
};

size_t SessionIndexOf(const std::string& token) {
  if (token.size() < 2 || token[0] != 's') return SIZE_MAX;
  return static_cast<size_t>(std::strtoul(token.c_str() + 1, nullptr, 10));
}

}  // namespace

// ---------------------------------------------------------------------------
// TimedServer

void TimedServer::AttachSession(size_t index, SessionTrace* trace) {
  if (index < kMaxSessions) sessions_[index].store(trace);
}

qc::webcache::HttpResponse TimedServer::Fetch(
    const qc::webcache::HttpRequest& request) {
  const size_t s = SessionIndexOf(request.auth_token);
  SessionTrace* trace = s < kMaxSessions ? sessions_[s].load() : nullptr;
  const uint64_t parent =
      trace != nullptr ? trace->open_net.load(std::memory_order_acquire) : 0;
  if (parent == 0) return QuaestorServer::Fetch(request);
  Span span;
  span.id = NextSpanId();
  span.parent = parent;
  span.name = request.key.rfind("q:", 0) == 0 ? kCoreQueryFetch
                                              : kCoreRecordFetch;
  span.when.start = NowNs();
  qc::webcache::HttpResponse response = QuaestorServer::Fetch(request);
  span.when.end = NowNs();
  std::lock_guard<std::mutex> lock(spans_mu_);
  spans_.push_back(span);
  return response;
}

std::vector<Span> TimedServer::TakeSpans() {
  std::lock_guard<std::mutex> lock(spans_mu_);
  return std::exchange(spans_, {});
}

// ---------------------------------------------------------------------------
// TimedBackend

qc::webcache::HttpResponse TimedBackend::Fetch(
    const qc::webcache::HttpRequest& request) {
  NetSpan span(trace_, kNetFetch);
  qc::webcache::HttpResponse response = inner_.Fetch(request);
  if (trace_->op_traced && response.ok && !response.not_modified) {
    const double ttl_ms = static_cast<double>(response.ttl) / 1000.0;
    if (request.key.rfind("q:", 0) == 0) {
      trace_->query_ttl_ms.push_back(ttl_ms);
    } else {
      trace_->record_ttl_ms.push_back(ttl_ms);
    }
  }
  return response;
}

qc::ebf::BloomFilter TimedBackend::BloomSnapshot() {
  NetSpan span(trace_, kNetEbf);
  return inner_.BloomSnapshot();
}

qc::ebf::BloomFilter TimedBackend::BloomSnapshotForTable(
    const std::string& table) {
  NetSpan span(trace_, kNetEbf);
  return inner_.BloomSnapshotForTable(table);
}

void TimedBackend::RegisterQueryShape(const qc::db::Query& query) {
  NetSpan span(trace_, kNetQueryShape);
  inner_.RegisterQueryShape(query);
}

qc::Result<qc::db::Document> TimedBackend::Insert(
    const std::string& auth_token, const std::string& table,
    const std::string& id, qc::db::Value body,
    const qc::RequestContext& ctx) {
  NetSpan span(trace_, kNetWrite);
  return inner_.Insert(auth_token, table, id, std::move(body), ctx);
}

qc::Result<qc::db::Document> TimedBackend::Update(
    const std::string& auth_token, const std::string& table,
    const std::string& id, const qc::db::Update& update,
    const qc::RequestContext& ctx) {
  NetSpan span(trace_, kNetWrite);
  return inner_.Update(auth_token, table, id, update, ctx);
}

qc::Result<qc::db::Document> TimedBackend::Delete(
    const std::string& auth_token, const std::string& table,
    const std::string& id, const qc::RequestContext& ctx) {
  NetSpan span(trace_, kNetWrite);
  return inner_.Delete(auth_token, table, id, ctx);
}

// ---------------------------------------------------------------------------
// InvalidationTracker

void InvalidationTracker::OnPurgeSent(const std::string& key) {
  auto p = std::make_shared<Pending>();
  p->sample.sent = clock_->NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  in_flight_[key].push_back(p);
  last_sent_[{std::this_thread::get_id(), key}] = std::move(p);
}

void InvalidationTracker::OnNotification(
    const qc::invalidb::Notification& n) {
  std::lock_guard<std::mutex> lock(mu_);
  notifications_++;
  auto it = last_sent_.find({std::this_thread::get_id(), n.query_key});
  if (it == last_sent_.end()) {
    // The server purges before it taps, on the same thread: no send means
    // this notification's purge never went out.
    undelivered_++;
    return;
  }
  PendingPtr p = std::move(it->second);
  last_sent_.erase(it);
  p->tapped = true;
  p->sample.commit = n.event_time;
  if (p->arrived) {
    samples_.push_back(p->sample);
  } else {
    undelivered_++;
  }
}

void InvalidationTracker::OnPurgeArrived(const std::string& key) {
  const Micros now = clock_->NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = in_flight_.find(key);
  if (it == in_flight_.end() || it->second.empty()) return;
  PendingPtr p = std::move(it->second.front());
  it->second.pop_front();
  p->arrived = true;
  p->sample.arrived = now;
  // An untapped send is either a purge no notification caused (query
  // eviction, representation switch) or one whose tap is still to run.
  if (p->tapped) {
    undelivered_--;
    samples_.push_back(p->sample);
  }
}

uint64_t InvalidationTracker::Undelivered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return undelivered_;
}

uint64_t InvalidationTracker::notifications() const {
  std::lock_guard<std::mutex> lock(mu_);
  return notifications_;
}

std::vector<InvalidationTracker::Sample> InvalidationTracker::Samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

// ---------------------------------------------------------------------------
// VersionBoard

VersionBoard::VersionBoard(size_t tables, size_t docs_per_table)
    : tables_(tables), docs_(docs_per_table), latest_(tables * docs_per_table) {}

size_t VersionBoard::Slot(const std::string& table,
                          const std::string& id) const {
  if (table.size() < 2 || id.size() < 2) return SIZE_MAX;
  const size_t t = std::strtoul(table.c_str() + 1, nullptr, 10);
  const size_t d = std::strtoul(id.c_str() + 1, nullptr, 10);
  if (t >= tables_ || d >= docs_) return SIZE_MAX;
  return t * docs_ + d;
}

void VersionBoard::OnCommit(const qc::db::Document& after) {
  const size_t slot = Slot(after.table, after.id);
  if (slot == SIZE_MAX) return;
  // Commits of one record are serialized by the database; max() keeps
  // the board monotonic even if listeners were to run out of order.
  uint64_t cur = latest_[slot].load(std::memory_order_relaxed);
  while (cur < after.version &&
         !latest_[slot].compare_exchange_weak(cur, after.version,
                                              std::memory_order_release)) {
  }
}

bool VersionBoard::Superseded(const std::string& table, const std::string& id,
                              uint64_t version) const {
  const size_t slot = Slot(table, id);
  return slot != SIZE_MAX &&
         latest_[slot].load(std::memory_order_acquire) > version;
}

// ---------------------------------------------------------------------------
// Stack

namespace {

bool WaitFor(const std::function<bool()>& cond, int64_t timeout_ms) {
  const int64_t deadline = NowNs() + timeout_ms * 1000000;
  while (NowNs() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return cond();
}

}  // namespace

Stack::Stack(const StackOptions& options)
    : options_(options),
      db_(&clock_),
      versions_(options.population.num_tables,
                options.population.docs_per_table),
      invalidations_(&clock_) {
  // Both commit observers are attached before the load: an oracle that
  // misses the load's commits judges every loaded version as unknown.
  if (options_.with_oracle) {
    qc::check::OracleOptions oopts;
    oopts.delta = kOracleBound;
    oracle_ = std::make_unique<qc::check::ConsistencyOracle>(&clock_, &db_,
                                                             oopts);
    db_.AddChangeListener([this](const qc::db::ChangeEvent& ev) {
      std::lock_guard<std::mutex> lock(oracle_mu_);
      oracle_->OnCommit(ev);
    });
  }
  db_.AddChangeListener([this](const qc::db::ChangeEvent& ev) {
    versions_.OnCommit(ev.after);
  });

  qc::workload::WorkloadGenerator loader(options_.population, /*seed=*/0);
  loader.Load(&db_);
  if (oracle_) {
    std::lock_guard<std::mutex> lock(oracle_mu_);
    for (size_t t = 0; t < options_.population.num_tables; ++t) {
      for (const qc::db::Query& q : loader.QueriesFor(t)) oracle_->TrackQuery(q);
    }
  }

  server_ = std::make_unique<TimedServer>(&clock_, &db_,
                                          qc::core::ServerOptions());
  // Registered before NetServer adds the frame hub's target when it
  // starts, so this one runs just before each purge frame is sent.
  server_->AddPurgeTarget([this](const std::string& key) {
    if (key.rfind("q:", 0) == 0) invalidations_.OnPurgeSent(key);
  });
  server_->AddNotificationTap([this](const qc::invalidb::Notification& n) {
    invalidations_.OnNotification(n);
  });

  qc::net::NetOptions nopts;
  nopts.enabled = true;
  nopts.remote_invalidb = true;
  nopts.reconnect_backoff = 5 * qc::kMicrosPerMilli;
  nopts.transport.reliable.enabled = true;
  nopts.transport.reliable.retransmit_timeout = 30 * qc::kMicrosPerMilli;
  net_ = std::make_unique<qc::net::NetServer>(&clock_, server_.get(), nopts);
  if (!net_->Start()) return;
  worker_ = std::make_unique<qc::net::NetWorker>(&clock_, net_->frame_port(),
                                                 nopts);
  if (!worker_->Start()) return;

  cdn_ = std::make_unique<qc::webcache::InvalidationCache>(
      &clock_, options_.cdn_capacity);
  if (!purge_loop_.Start()) return;
  purge_client_ = std::make_unique<qc::net::FrameClient>(
      &purge_loop_, net_->frame_port(), 5 * qc::kMicrosPerMilli);
  purge_client_->Subscribe("purge", [this](const qc::net::Frame& f) {
    if (f.payload.rfind("q:", 0) == 0) {
      invalidations_.OnPurgeArrived(f.payload);
    }
    cdn_->Purge(f.payload);
  });
  purge_client_->Connect();
  ok_ = WaitFor([this] { return net_->hub()->connections() == 2; }, 10000);
}

Stack::~Stack() {
  if (purge_client_) purge_client_->Close();
  purge_loop_.Stop();
  if (worker_) worker_->Stop();
  if (net_) net_->Stop();
}

std::unique_ptr<Session> Stack::OpenSession(size_t index,
                                            bool revalidation_probe) {
  auto s = std::make_unique<Session>();
  s->name = std::to_string(index);
  s->name.insert(s->name.begin(), 's');
  server_->AttachSession(index, &s->trace);
  s->backend = std::make_unique<TimedBackend>(net_->http_port(), &s->trace);
  qc::client::ClientOptions copts;
  copts.ebf_refresh_interval = kDelta;
  copts.auth_token = s->name;
  if (revalidation_probe) {
    s->browser = std::make_unique<qc::webcache::ExpirationCache>(&clock_, 0);
    copts.consistency = qc::client::ConsistencyLevel::kStrong;
  }
  s->client = std::make_unique<qc::client::QuaestorClient>(
      &clock_, s->backend.get(), s->browser.get(), cdn_.get(), copts);
  s->client->Connect();
  return s;
}

bool Stack::Drain(int64_t quiet_ms, int64_t timeout_ms) {
  const int64_t deadline = NowNs() + timeout_ms * 1000000;
  uint64_t last = invalidations_.notifications();
  int64_t quiet_since = NowNs();
  while (NowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const uint64_t n = invalidations_.notifications();
    if (n != last) {
      last = n;
      quiet_since = NowNs();
      continue;
    }
    const bool idle = net_->remote()->unacked_requests() == 0 &&
                      net_->remote()->pending_notifications() == 0 &&
                      invalidations_.Undelivered() == 0;
    if (idle && NowNs() - quiet_since >= quiet_ms * 1000000) return true;
  }
  return false;
}

}  // namespace perfbench
