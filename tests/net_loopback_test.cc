// End-to-end loopback integration tests for the real-socket serving
// layer: a QuaestorClient speaking HTTP/1.1 to a NetServer over
// 127.0.0.1, with the InvaliDB data path bridged to a NetWorker over
// the length-prefixed TCP frame protocol and CDN purges fanned out to a
// socket subscriber — the full client → HTTP server → InvaliDB-over-TCP
// → notification → CDN purge path, checked by the consistency oracle.
//
// Everything binds ephemeral ports (the port-collision-safe fixture),
// and all timing is real: SystemClock, actual sockets, background
// pollers. Freshness waits poll with generous deadlines instead of
// assuming scheduling latencies.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "check/oracle.h"
#include "client/client.h"
#include "common/clock.h"
#include "core/server.h"
#include "db/database.h"
#include "db/update.h"
#include "net/event_loop.h"
#include "net/http_client.h"
#include "net/http_codec.h"
#include "net/queue_bridge.h"
#include "net/service.h"
#include "webcache/web_cache.h"

namespace quaestor::net {
namespace {

bool WaitFor(const std::function<bool()>& cond, int64_t timeout_ms = 10000) {
  const int64_t deadline = EventLoop::MonotonicNow() + timeout_ms * 1000;
  while (EventLoop::MonotonicNow() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return cond();
}

db::Value Doc(const char* json) {
  auto v = db::Value::FromJson(json);
  EXPECT_TRUE(v.ok());
  return v.value();
}

db::Query Q(const char* table, const char* filter) {
  auto q = db::Query::ParseJson(table, filter);
  EXPECT_TRUE(q.ok());
  return q.value();
}

/// The whole deployment on loopback: origin + HTTP front-end + frame
/// hub in one process "node", a matching worker dialed in over TCP, a
/// remote CDN fed purges over the wire, and HTTP-backed SDK sessions.
class LoopbackStack : public ::testing::Test {
 protected:
  LoopbackStack() : db_(&clock_) {}

  void Start(Micros delta = 100 * kMicrosPerMilli) {
    server_ = std::make_unique<core::QuaestorServer>(&clock_, &db_,
                                                     core::ServerOptions());

    // Oracle listens to the raw commit stream. Commits happen on the
    // server's event-loop thread while checks run on the test thread,
    // so every oracle touch goes through oracle_mu_.
    check::OracleOptions oopts;
    // The clients revalidate after `delta`; the asserted bound is looser
    // so CI scheduling jitter cannot fake a violation. Freshness is
    // asserted separately by the explicit convergence waits below.
    oopts.delta = 2 * kMicrosPerSecond;
    oracle_ = std::make_unique<check::ConsistencyOracle>(&clock_, &db_, oopts);
    db_.AddChangeListener([this](const db::ChangeEvent& ev) {
      std::lock_guard<std::mutex> lock(oracle_mu_);
      oracle_->OnCommit(ev);
    });

    NetOptions nopts;
    nopts.enabled = true;
    nopts.remote_invalidb = true;
    nopts.reconnect_backoff = 5 * kMicrosPerMilli;
    // Registrations / notifications cross a real TCP link that the
    // tests are allowed to sever: the reliable layer retransmits.
    nopts.transport.reliable.enabled = true;
    nopts.transport.reliable.retransmit_timeout = 30 * kMicrosPerMilli;
    net_ = std::make_unique<NetServer>(&clock_, server_.get(), nopts);
    ASSERT_TRUE(net_->Start());
    ASSERT_NE(net_->http_port(), 0);
    ASSERT_NE(net_->frame_port(), 0);

    worker_ = std::make_unique<NetWorker>(&clock_, net_->frame_port(), nopts);
    ASSERT_TRUE(worker_->Start());

    // The "CDN node": an invalidation cache on the far side of the
    // frame protocol, purged by the origin's fan-out channel.
    cdn_ = std::make_unique<webcache::InvalidationCache>(&clock_);
    ASSERT_TRUE(purge_loop_.Start());
    purge_client_ = std::make_unique<FrameClient>(
        &purge_loop_, net_->frame_port(), 5 * kMicrosPerMilli);
    purge_client_->Subscribe("purge", [this](const Frame& f) {
      cdn_->Purge(f.payload);
      std::lock_guard<std::mutex> lock(purge_mu_);
      purge_frames_.push_back(f.payload);
    });
    purge_client_->Connect();

    // Worker + purge subscriber both dialed in.
    ASSERT_TRUE(WaitFor([this] { return net_->hub()->connections() == 2; }));
    delta_ = delta;
  }

  /// One browser session over its own HTTP connection. A null
  /// `browser_out` gives a session without a browser cache; `cdn` false
  /// one that bypasses the shared CDN too.
  std::unique_ptr<client::QuaestorClient> Session(
      std::unique_ptr<webcache::ExpirationCache>* browser_out,
      std::unique_ptr<HttpBackend>* backend_out, bool cdn = true,
      client::ClientOptions copts = client::ClientOptions()) {
    *backend_out = std::make_unique<HttpBackend>(net_->http_port());
    if (browser_out != nullptr) {
      *browser_out = std::make_unique<webcache::ExpirationCache>(&clock_);
    }
    copts.ebf_refresh_interval = delta_;
    auto c = std::make_unique<client::QuaestorClient>(
        &clock_, backend_out->get(),
        browser_out != nullptr ? browser_out->get() : nullptr,
        cdn ? cdn_.get() : nullptr, copts);
    c->Connect();
    return c;
  }

  uint64_t Requests() const { return net_->http()->requests_served(); }

  /// Purge frames for `key` the CDN node has received so far.
  int64_t PurgeFrames(const std::string& key) {
    std::lock_guard<std::mutex> lock(purge_mu_);
    return std::count(purge_frames_.begin(), purge_frames_.end(), key);
  }

  void TearDown() override {
    if (purge_client_) purge_client_->Close();
    purge_loop_.Stop();
    if (worker_) worker_->Stop();
    if (net_) net_->Stop();
  }

  void ExpectNoViolations() {
    std::lock_guard<std::mutex> lock(oracle_mu_);
    for (const auto& v : oracle_->violations()) {
      ADD_FAILURE() << v.ToString();
    }
    EXPECT_TRUE(oracle_->violations().empty());
  }

  SystemClock clock_;
  db::Database db_;
  Micros delta_ = 100 * kMicrosPerMilli;
  std::unique_ptr<core::QuaestorServer> server_;
  std::mutex oracle_mu_;
  std::unique_ptr<check::ConsistencyOracle> oracle_;
  std::unique_ptr<NetServer> net_;
  std::unique_ptr<NetWorker> worker_;
  std::unique_ptr<webcache::InvalidationCache> cdn_;
  EventLoop purge_loop_;
  std::unique_ptr<FrameClient> purge_client_;
  std::mutex purge_mu_;
  std::vector<std::string> purge_frames_;
};

TEST_F(LoopbackStack, RecordWritesReadsAndInvalidationAcrossTheWire) {
  Start();
  std::unique_ptr<webcache::ExpirationCache> b1, b2;
  std::unique_ptr<HttpBackend> be1, be2;
  auto c1 = Session(&b1, &be1);
  auto c2 = Session(&b2, &be2);

  // Write through HTTP, then read-your-writes from the session cache.
  ASSERT_TRUE(c1->Insert("t", "1", Doc(R"({"x":1})")).ok());
  client::ReadResult r1 = c1->Read("t", "1");
  ASSERT_TRUE(r1.status.ok());
  EXPECT_EQ(r1.doc.Find("x")->as_int(), 1);
  {
    std::lock_guard<std::mutex> lock(oracle_mu_);
    oracle_->CheckRead("c1", "t/1", r1.status.ok(), r1.version);
  }

  // A second session's cold read crosses the wire to the origin and
  // warms the shared CDN.
  client::ReadResult r2 = c2->Read("t", "1");
  ASSERT_TRUE(r2.status.ok());
  EXPECT_EQ(r2.doc.Find("x")->as_int(), 1);
  {
    std::lock_guard<std::mutex> lock(oracle_mu_);
    oracle_->CheckRead("c2", "t/1", r2.status.ok(), r2.version);
  }

  // c1 updates; the origin's purge crosses the frame protocol to the
  // CDN node, and c2 converges once its EBF window forces a
  // revalidation. Every intermediate read is oracle-checked.
  db::Update u;
  u.Set("x", db::Value(2));
  auto updated = c1->Update("t", "1", u);
  ASSERT_TRUE(updated.ok());
  const uint64_t fresh_version = updated.value().version;

  ASSERT_TRUE(WaitFor([&] {
    client::ReadResult r = c2->Read("t", "1");
    {
      std::lock_guard<std::mutex> lock(oracle_mu_);
      oracle_->CheckRead("c2", "t/1", r.status.ok(), r.version);
    }
    return r.status.ok() && r.version >= fresh_version;
  }));
  // The purge really arrived over the socket (origin-side fan-out → the
  // subscribed CDN), not just via TTL expiry.
  EXPECT_TRUE(WaitFor([&] { return cdn_->PurgeCount() > 0; }));
  ExpectNoViolations();
}

TEST_F(LoopbackStack, QueryNotificationFlowsInvalidbOverTcp) {
  Start();
  std::unique_ptr<webcache::ExpirationCache> b1, b2;
  std::unique_ptr<HttpBackend> be1, be2;
  auto c1 = Session(&b1, &be1);
  auto c2 = Session(&b2, &be2);

  ASSERT_TRUE(c1->Insert("t", "1", Doc(R"({"g":1})")).ok());
  ASSERT_TRUE(c1->Insert("t", "2", Doc(R"({"g":2})")).ok());

  const db::Query q = Q("t", R"({"g":1})");
  {
    std::lock_guard<std::mutex> lock(oracle_mu_);
    oracle_->TrackQuery(q);
  }

  // First execution registers the query with the matching cluster over
  // the frame link (reliable, so a slow worker handshake cannot lose
  // the registration).
  client::QueryResult qr = c1->ExecuteQuery(q);
  ASSERT_TRUE(qr.status.ok());
  EXPECT_EQ(qr.ids.size(), 1u);
  {
    std::lock_guard<std::mutex> lock(oracle_mu_);
    oracle_->CheckQuery("c1", q, qr.status.ok(), qr.etag, qr.representation);
  }

  // A write that moves t/2 into the result: the change event travels
  // origin → worker over TCP, the match comes back as a notification,
  // and the origin purges the cached result. Poll until both sessions
  // observe the two-element result.
  db::Update u;
  u.Set("g", db::Value(1));
  ASSERT_TRUE(c2->Update("t", "2", u).ok());

  for (auto* session : {c1.get(), c2.get()}) {
    const char* name = session == c1.get() ? "c1" : "c2";
    ASSERT_TRUE(WaitFor([&] {
      client::QueryResult r = session->ExecuteQuery(q);
      {
        std::lock_guard<std::mutex> lock(oracle_mu_);
        oracle_->CheckQuery(name, q, r.status.ok(), r.etag, r.representation);
      }
      return r.status.ok() && r.ids.size() == 2;
    })) << name;
  }

  // The notification data path really ran remotely: the worker's
  // cluster did the matching on the far side of the socket.
  EXPECT_GT(worker_->bridged_kv()->deliveries(), 0u);
  EXPECT_GT(net_->bridged_kv()->deliveries(), 0u);
  ExpectNoViolations();
}

// Socket-path twin of
// ServerTest.WindowShiftNotifiesEachButFlagsAndPurgesKeyOnce: one update
// shifts a sorted top-2 window (one remove, one add for the same query
// key). The worker ships both in one envelope, and the origin must
// treat it as one dispatch: both notifications reach the taps, but the
// key is EBF-flagged and purged over the wire once.
TEST_F(LoopbackStack, WindowShiftOverTcpFlagsAndPurgesKeyOnce) {
  Start();
  for (int i = 0; i < 5; ++i) {
    const std::string doc = "{\"n\":" + std::to_string(i) + "}";
    ASSERT_TRUE(
        server_->Insert("t", std::to_string(i), Doc(doc.c_str())).ok());
  }
  db::Query q = Q("t", "{}");
  q.SetOrderBy({{"n", false}}).SetLimit(2);
  const std::string key = q.NormalizedKey();
  std::unique_ptr<HttpBackend> backend;
  auto c = Session(nullptr, &backend);
  client::QueryResult window = c->ExecuteQuery(q);
  ASSERT_TRUE(window.status.ok()) << window.status.ToString();
  ASSERT_EQ(window.ids, (std::vector<std::string>{"t/4", "t/3"}));

  std::mutex taps_mu;
  std::vector<invalidb::Notification> taps;
  server_->AddNotificationTap([&](const invalidb::Notification& n) {
    std::lock_guard<std::mutex> lock(taps_mu);
    taps.push_back(n);
  });
  const uint64_t flags =
      server_->ebf().AggregateStats().invalidations_reported;

  // t/0 jumps to the top: t/0 enters the window, t/3 drops out of it.
  db::Update u;
  u.Set("n", db::Value(99));
  ASSERT_TRUE(server_->Update("t", "0", u).ok());
  // Taps run after the flag/purge pass, so once both are in, every flag
  // and purge send for this write has happened.
  ASSERT_TRUE(WaitFor([&] {
    std::lock_guard<std::mutex> lock(taps_mu);
    return taps.size() >= 2;
  }));
  {
    std::lock_guard<std::mutex> lock(taps_mu);
    ASSERT_EQ(taps.size(), 2u);
    EXPECT_EQ(taps[0].type, invalidb::NotificationType::kRemove);
    EXPECT_EQ(taps[0].record_id, "3");
    EXPECT_EQ(taps[1].type, invalidb::NotificationType::kAdd);
    EXPECT_EQ(taps[1].record_id, "0");
    for (const invalidb::Notification& n : taps) EXPECT_EQ(n.query_key, key);
  }
  // One flag for the written record, one for the query key.
  EXPECT_EQ(server_->ebf().AggregateStats().invalidations_reported - flags,
            2u);

  // Purge frames share one ordered connection: once a later write's
  // purge arrives, every purge of the query key has arrived too.
  ASSERT_TRUE(server_->Insert("u", "sentinel", Doc(R"({"x":1})")).ok());
  ASSERT_TRUE(WaitFor([&] { return PurgeFrames("u/sentinel") == 1; }));
  EXPECT_EQ(PurgeFrames(key), 1);
}

TEST_F(LoopbackStack, ConditionalFetchRevalidatesWith304OverTheWire) {
  Start();
  std::unique_ptr<webcache::ExpirationCache> b1;
  std::unique_ptr<HttpBackend> be1;
  auto c1 = Session(&b1, &be1);
  ASSERT_TRUE(c1->Insert("t", "1", Doc(R"({"x":1})")).ok());

  // Unconditional fetch yields the body + etag; revalidating with that
  // etag yields 304 with no body — the exact webcache::http.h contract,
  // over a real socket.
  HttpBackend direct(net_->http_port());
  webcache::HttpRequest req;
  req.key = "t/1";
  webcache::HttpResponse full = direct.Fetch(req);
  ASSERT_TRUE(full.ok);
  ASSERT_NE(full.etag, 0u);
  EXPECT_FALSE(full.body.empty());
  EXPECT_GT(full.ttl, 0);
  EXPECT_GT(full.last_modified, 0);

  req.has_if_none_match = true;
  req.if_none_match = full.etag;
  webcache::HttpResponse revalidated = direct.Fetch(req);
  EXPECT_TRUE(revalidated.ok);
  EXPECT_TRUE(revalidated.not_modified);
  EXPECT_TRUE(revalidated.body.empty());

  // A missing record is a plain miss, not a transport error.
  webcache::HttpRequest missing;
  missing.key = "t/no-such";
  webcache::HttpResponse miss = direct.Fetch(missing);
  EXPECT_FALSE(miss.ok);
  EXPECT_FALSE(miss.unavailable);
}

TEST_F(LoopbackStack, StrongSessionRereadIsAnsweredBy304AndSucceeds) {
  Start();
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"x":1})")).ok());
  // Strong consistency revalidates every read; the browser copy from the
  // first read makes the second one conditional, answered by a 304.
  client::ClientOptions copts;
  copts.consistency = client::ConsistencyLevel::kStrong;
  std::unique_ptr<webcache::ExpirationCache> browser;
  std::unique_ptr<HttpBackend> backend;
  auto c = Session(&browser, &backend, /*cdn=*/true, copts);

  client::ReadResult first = c->Read("t", "1");
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  const uint64_t not_modified_before = server_->stats().not_modified;
  client::ReadResult second = c->Read("t", "1");
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();
  EXPECT_EQ(server_->stats().not_modified, not_modified_before + 1);
  EXPECT_EQ(second.version, first.version);
  EXPECT_EQ(second.doc.Find("x")->as_int(), 1);
}

TEST_F(LoopbackStack, QueryCostsOneRequestOnACdnMissAndNoneOnAHit) {
  Start(/*delta=*/60 * kMicrosPerSecond);  // no EBF refresh mid-test
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"g":1})")).ok());
  ASSERT_TRUE(server_->Insert("t", "2", Doc(R"({"g":2})")).ok());
  std::unique_ptr<HttpBackend> backend;
  auto c = Session(nullptr, &backend);  // no browser cache: CDN answers
  const db::Query q = Q("t", R"({"g":1})");

  uint64_t before = Requests();
  client::QueryResult miss = c->ExecuteQuery(q);
  ASSERT_TRUE(miss.status.ok()) << miss.status.ToString();
  EXPECT_EQ(miss.ids, std::vector<std::string>{"t/1"});
  EXPECT_EQ(miss.outcome.served_by, webcache::ServedBy::kOrigin);
  EXPECT_EQ(Requests() - before, 1u);  // the fetch carries the shape

  before = Requests();
  client::QueryResult hit = c->ExecuteQuery(q);
  ASSERT_TRUE(hit.status.ok()) << hit.status.ToString();
  EXPECT_EQ(hit.ids, std::vector<std::string>{"t/1"});
  EXPECT_EQ(hit.outcome.served_by, webcache::ServedBy::kInvalidationCache);
  EXPECT_EQ(Requests() - before, 0u);
}

TEST_F(LoopbackStack, ForgedQuerySpecCannotBindAnotherQuerysKey) {
  Start();
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"g":1})")).ok());
  ASSERT_TRUE(server_->Insert("t", "2", Doc(R"({"g":2})")).ok());
  const db::Query honest = Q("t", R"({"g":1})");
  const std::string key = honest.NormalizedKey();

  // GET /fetch for the honest key, carrying another query's spec: had
  // the server learned it, every cache would serve t/2 under this key.
  SyncHttpChannel raw(net_->http_port());
  webcache::HttpRequest fetch;
  fetch.key = key;
  HttpMessage forged = ToHttpMessage(fetch);
  forged.body = Q("t", R"({"g":2})").ToSpec().ToJson();
  Result<HttpMessage> refused = raw.RoundTrip(forged);
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(refused->status, 400);
  HttpMessage garbled = ToHttpMessage(fetch);
  garbled.body = "{not json";
  Result<HttpMessage> garbage = raw.RoundTrip(garbled);
  ASSERT_TRUE(garbage.ok());
  EXPECT_EQ(garbage->status, 400);
  EXPECT_FALSE(server_->HasQueryShape(key));

  std::unique_ptr<HttpBackend> backend;
  auto c = Session(nullptr, &backend);
  client::QueryResult r = c->ExecuteQuery(honest);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.ids, std::vector<std::string>{"t/1"});
  EXPECT_TRUE(server_->HasQueryShape(key));
}

TEST_F(LoopbackStack, QueryWithASpecOver4KbWorksOverTheSocket) {
  Start();
  ASSERT_TRUE(server_->Insert("t", "in", Doc(R"({"x":1234})")).ok());
  ASSERT_TRUE(server_->Insert("t", "out", Doc(R"({"x":-1})")).ok());
  std::string filter = R"({"x":{"$in":[)";
  for (int i = 1000; i < 1900; ++i) {
    if (i > 1000) filter += ',';
    filter += std::to_string(i);
  }
  filter += "]}}";
  const db::Query q = Q("t", filter.c_str());
  ASSERT_GT(q.ToSpec().ToJson().size(), 4096u);

  std::unique_ptr<HttpBackend> backend;
  auto c = Session(nullptr, &backend);
  client::QueryResult r = c->ExecuteQuery(q);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.ids, std::vector<std::string>{"t/in"});
}

TEST_F(LoopbackStack, FreshSessionQueriesAShapeAnotherSessionAnnounced) {
  Start();
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"g":1})")).ok());
  ASSERT_TRUE(server_->Insert("t", "2", Doc(R"({"g":1})")).ok());
  const db::Query q = Q("t", R"({"g":1})");
  std::unique_ptr<HttpBackend> be1, be2;
  auto c1 = Session(nullptr, &be1);
  ASSERT_TRUE(c1->ExecuteQuery(q).status.ok());
  ASSERT_TRUE(server_->HasQueryShape(q.NormalizedKey()));

  // A second session on its own connection, bypassing the CDN, so its
  // fetch reaches the origin that already knows the shape.
  auto c2 = Session(nullptr, &be2, /*cdn=*/false);
  client::QueryResult r = c2->ExecuteQuery(q);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.outcome.served_by, webcache::ServedBy::kOrigin);
  EXPECT_EQ(r.ids, (std::vector<std::string>{"t/1", "t/2"}));
}

TEST_F(LoopbackStack, WriteErrorsCarryExactStatusCodesAcrossHttp) {
  Start();
  std::unique_ptr<webcache::ExpirationCache> b1;
  std::unique_ptr<HttpBackend> be1;
  auto c1 = Session(&b1, &be1);

  // Updating a record that does not exist: the origin's NotFound must
  // survive the HTTP hop as the same status code, not a generic error.
  db::Update u;
  u.Set("x", db::Value(1));
  auto missing = c1->Update("t", "nope", u);
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound()) << missing.status().ToString();

  // Duplicate insert surfaces the origin's error code too.
  ASSERT_TRUE(c1->Insert("t", "1", Doc(R"({"x":1})")).ok());
  auto dup = c1->Insert("t", "1", Doc(R"({"x":2})"));
  EXPECT_FALSE(dup.ok());
  EXPECT_FALSE(dup.status().IsUnavailable()) << dup.status().ToString();

  // Delete round-trips ok and the record is gone for readers.
  ASSERT_TRUE(c1->Delete("t", "1").ok());
  ASSERT_TRUE(WaitFor([&] {
    client::ReadResult r = c1->Read("t", "1");
    return !r.status.ok();
  }));
}

}  // namespace
}  // namespace quaestor::net
