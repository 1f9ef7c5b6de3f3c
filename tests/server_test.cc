#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "core/query_result.h"
#include "core/server.h"
#include "db/database.h"
#include "invalidb/transport.h"
#include "kv/kv_store.h"

namespace quaestor::core {
namespace {

constexpr Micros kSecond = kMicrosPerSecond;

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

// ---------------------------------------------------------------------------
// QueryResponse wire format
// ---------------------------------------------------------------------------

TEST(QueryResponseTest, ObjectListRoundTrip) {
  QueryResponse qr;
  qr.representation = ttl::ResultRepresentation::kObjectList;
  qr.ids = {"t/a", "t/b"};
  qr.docs = {Doc(R"({"x":1})"), Doc(R"({"x":2})")};
  qr.versions = {3, 7};
  qr.record_ttls = {1000, 2000};
  auto parsed = QueryResponse::FromJson(qr.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->ids, qr.ids);
  EXPECT_EQ(parsed->versions, qr.versions);
  EXPECT_EQ(parsed->record_ttls, qr.record_ttls);
  EXPECT_EQ(parsed->docs[1], qr.docs[1]);
  EXPECT_EQ(parsed->ComputeEtag(), qr.ComputeEtag());
}

TEST(QueryResponseTest, IdListRoundTrip) {
  QueryResponse qr;
  qr.representation = ttl::ResultRepresentation::kIdList;
  qr.ids = {"t/a", "t/b", "t/c"};
  auto parsed = QueryResponse::FromJson(qr.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->representation, ttl::ResultRepresentation::kIdList);
  EXPECT_EQ(parsed->ids, qr.ids);
  EXPECT_TRUE(parsed->docs.empty());
}

TEST(QueryResponseTest, EtagChangesWithVersions) {
  QueryResponse a;
  a.representation = ttl::ResultRepresentation::kObjectList;
  a.ids = {"t/a"};
  a.versions = {1};
  QueryResponse b = a;
  b.versions = {2};
  EXPECT_NE(a.ComputeEtag(), b.ComputeEtag());
}

TEST(QueryResponseTest, IdListEtagIgnoresVersions) {
  QueryResponse a;
  a.representation = ttl::ResultRepresentation::kIdList;
  a.ids = {"t/a"};
  a.versions = {1};
  QueryResponse b = a;
  b.versions = {2};
  EXPECT_EQ(a.ComputeEtag(), b.ComputeEtag());
}

TEST(QueryResponseTest, RejectsMalformed) {
  EXPECT_FALSE(QueryResponse::FromJson("not json").ok());
  EXPECT_FALSE(QueryResponse::FromJson("[]").ok());
  EXPECT_FALSE(QueryResponse::FromJson(R"({"ids":[1]})").ok());
  EXPECT_FALSE(
      QueryResponse::FromJson(R"({"rep":"objects","ids":["a"]})").ok());
}

// ---------------------------------------------------------------------------
// QuaestorServer
// ---------------------------------------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : clock_(0), db_(&clock_) {}

  void MakeServer(ServerOptions options = ServerOptions()) {
    server_ = std::make_unique<QuaestorServer>(&clock_, &db_, options);
    server_->AddPurgeTarget(
        [this](const std::string& key) { purged_.push_back(key); });
  }

  webcache::HttpResponse Get(const std::string& key) {
    webcache::HttpRequest req;
    req.key = key;
    return server_->Fetch(req);
  }

  webcache::HttpResponse GetQuery(const db::Query& q) {
    server_->RegisterQueryShape(q);
    return Get(q.NormalizedKey());
  }

  SimulatedClock clock_;
  db::Database db_;
  std::unique_ptr<QuaestorServer> server_;
  std::vector<std::string> purged_;
};

TEST_F(ServerTest, RecordFetchServesBodyAndTtl) {
  MakeServer();
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"x":1})")).ok());
  auto resp = Get("t/1");
  ASSERT_TRUE(resp.ok);
  EXPECT_GT(resp.ttl, 0);
  EXPECT_EQ(resp.etag, 1u);  // insert creates version 1
  EXPECT_EQ(resp.body, Doc(R"({"x":1})").ToJson());
}

TEST_F(ServerTest, RecordFetchMissing404) {
  MakeServer();
  EXPECT_FALSE(Get("t/none").ok);
  EXPECT_FALSE(Get("malformed-key").ok);
}

TEST_F(ServerTest, RecordConditionalFetch304) {
  MakeServer();
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"x":1})")).ok());
  auto first = Get("t/1");
  webcache::HttpRequest req;
  req.key = "t/1";
  req.has_if_none_match = true;
  req.if_none_match = first.etag;
  auto second = server_->Fetch(req);
  ASSERT_TRUE(second.ok);
  EXPECT_TRUE(second.not_modified);
  EXPECT_TRUE(second.body.empty());
  EXPECT_EQ(server_->stats().not_modified, 1u);
}

TEST_F(ServerTest, WriteMakesCachedRecordStaleAndPurges) {
  MakeServer();
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"x":1})")).ok());
  (void)Get("t/1");  // issues a TTL → tracked in the EBF
  clock_.Advance(1 * kSecond);
  purged_.clear();
  db::Update u;
  u.Set("x", db::Value(2));
  ASSERT_TRUE(server_->Update("t", "1", u).ok());
  EXPECT_TRUE(server_->ebf().IsStale("t/1"));
  ASSERT_FALSE(purged_.empty());
  EXPECT_EQ(purged_[0], "t/1");
  EXPECT_TRUE(server_->BloomSnapshot().MaybeContains("t/1"));
}

TEST_F(ServerTest, QueryFetchReturnsObjectList) {
  MakeServer();
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"g":1})")).ok());
  ASSERT_TRUE(server_->Insert("t", "2", Doc(R"({"g":1})")).ok());
  ASSERT_TRUE(server_->Insert("t", "3", Doc(R"({"g":2})")).ok());
  auto resp = GetQuery(Q("t", R"({"g":1})"));
  ASSERT_TRUE(resp.ok);
  EXPECT_GT(resp.ttl, 0);
  auto qr = QueryResponse::FromJson(resp.body);
  ASSERT_TRUE(qr.ok());
  EXPECT_EQ(qr->representation, ttl::ResultRepresentation::kObjectList);
  EXPECT_EQ(qr->ids, (std::vector<std::string>{"t/1", "t/2"}));
  EXPECT_EQ(qr->docs.size(), 2u);
}

TEST_F(ServerTest, UnknownQueryKeyIs404) {
  MakeServer();
  EXPECT_FALSE(Get("q:t?g $eq 1").ok);
}

TEST_F(ServerTest, QueryRegistersInInvalidb) {
  MakeServer();
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"g":1})")).ok());
  db::Query q = Q("t", R"({"g":1})");
  (void)GetQuery(q);
  EXPECT_TRUE(server_->invalidb().IsRegistered(q.NormalizedKey()));
  EXPECT_TRUE(server_->active_list().IsRegistered(q.NormalizedKey()));
}

TEST_F(ServerTest, InvalidationFlowEndToEnd) {
  // The Figure 7 pipeline: cache query → write a matching record →
  // InvaliDB detects → EBF flags the query → CDN purge issued.
  MakeServer();
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"g":1})")).ok());
  db::Query q = Q("t", R"({"g":1})");
  (void)GetQuery(q);
  clock_.Advance(1 * kSecond);
  purged_.clear();

  db::Update u;
  u.Set("g", db::Value(2));  // leaves the result set
  ASSERT_TRUE(server_->Update("t", "1", u).ok());

  const std::string key = q.NormalizedKey();
  EXPECT_TRUE(server_->ebf().IsStale(key));
  EXPECT_TRUE(server_->BloomSnapshot().MaybeContains(key));
  EXPECT_NE(std::find(purged_.begin(), purged_.end(), key), purged_.end());
  EXPECT_GE(server_->stats().query_invalidations, 1u);
}

TEST_F(ServerTest, NonMatchingWriteDoesNotInvalidateQuery) {
  MakeServer();
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"g":1})")).ok());
  ASSERT_TRUE(server_->Insert("t", "2", Doc(R"({"g":9})")).ok());
  db::Query q = Q("t", R"({"g":1})");
  (void)GetQuery(q);
  clock_.Advance(1 * kSecond);
  db::Update u;
  u.Set("x", db::Value(1));  // t/2 never matched and still doesn't
  ASSERT_TRUE(server_->Update("t", "2", u).ok());
  EXPECT_FALSE(server_->ebf().IsStale(q.NormalizedKey()));
}

TEST_F(ServerTest, QueryEtagStableAcrossIdenticalResults) {
  MakeServer();
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"g":1})")).ok());
  db::Query q = Q("t", R"({"g":1})");
  auto r1 = GetQuery(q);
  auto r2 = GetQuery(q);
  EXPECT_EQ(r1.etag, r2.etag);
  // Conditional fetch revalidates to 304.
  webcache::HttpRequest req;
  req.key = q.NormalizedKey();
  req.has_if_none_match = true;
  req.if_none_match = r1.etag;
  auto r3 = server_->Fetch(req);
  EXPECT_TRUE(r3.not_modified);
}

TEST_F(ServerTest, QueryTtlFeedbackViaEwma) {
  MakeServer();
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"g":1})")).ok());
  db::Query q = Q("t", R"({"g":1})");
  (void)GetQuery(q);
  // Invalidate after 5 s: the estimator learns the 5 s actual TTL.
  clock_.Advance(5 * kSecond);
  db::Update u;
  u.Set("g", db::Value(2));
  ASSERT_TRUE(server_->Update("t", "1", u).ok());
  EXPECT_EQ(server_->ttl_estimator().TrackedQueries(), 1u);
  const Micros learned =
      server_->ttl_estimator().QueryTtl(q.NormalizedKey(), {});
  EXPECT_EQ(learned, 5 * kSecond);
}

TEST_F(ServerTest, IdListPolicyServesIds) {
  ServerOptions opts;
  opts.representation = RepresentationPolicy::kAlwaysIdList;
  MakeServer(opts);
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"g":1})")).ok());
  auto resp = GetQuery(Q("t", R"({"g":1})"));
  auto qr = QueryResponse::FromJson(resp.body);
  ASSERT_TRUE(qr.ok());
  EXPECT_EQ(qr->representation, ttl::ResultRepresentation::kIdList);
  EXPECT_TRUE(qr->docs.empty());
}

TEST_F(ServerTest, CachingDisabledYieldsZeroTtl) {
  ServerOptions opts;
  opts.cache_records = false;
  opts.cache_queries = false;
  MakeServer(opts);
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"g":1})")).ok());
  EXPECT_EQ(Get("t/1").ttl, 0);
  EXPECT_EQ(GetQuery(Q("t", R"({"g":1})")).ttl, 0);
  // Nothing registered in InvaliDB for uncacheable queries.
  EXPECT_EQ(server_->invalidb().RegisteredCount(), 0u);
}

TEST_F(ServerTest, CapacityEvictionDeregistersAndFlagsVictim) {
  ServerOptions opts;
  opts.query_capacity = 1;
  MakeServer(opts);
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"g":1})")).ok());
  ASSERT_TRUE(server_->Insert("t", "2", Doc(R"({"g":2})")).ok());
  db::Query q1 = Q("t", R"({"g":1})");
  db::Query q2 = Q("t", R"({"g":2})");
  (void)GetQuery(q1);  // admitted
  EXPECT_TRUE(server_->invalidb().IsRegistered(q1.NormalizedKey()));
  // q2 becomes hotter: displaces q1.
  (void)GetQuery(q2);
  (void)GetQuery(q2);
  (void)GetQuery(q2);
  EXPECT_TRUE(server_->invalidb().IsRegistered(q2.NormalizedKey()));
  EXPECT_FALSE(server_->invalidb().IsRegistered(q1.NormalizedKey()));
  // The victim's outstanding cached copies are conservatively stale.
  EXPECT_TRUE(server_->ebf().IsStale(q1.NormalizedKey()));
}

TEST_F(ServerTest, StatefulQueryServedWindowedButRegisteredUnwindowed) {
  MakeServer();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(server_
                    ->Insert("t", std::to_string(i),
                             Doc(("{\"n\":" + std::to_string(i) + "}")
                                     .c_str()))
                    .ok());
  }
  db::Query q = Q("t", "{}");
  q.SetOrderBy({{"n", false}}).SetLimit(2);
  auto resp = GetQuery(q);
  auto qr = QueryResponse::FromJson(resp.body);
  ASSERT_TRUE(qr.ok());
  EXPECT_EQ(qr->ids, (std::vector<std::string>{"t/4", "t/3"}));
  // The sorted window is tracked; a new top element invalidates it.
  clock_.Advance(1 * kSecond);
  ASSERT_TRUE(server_->Insert("t", "9", Doc(R"({"n":99})")).ok());
  EXPECT_TRUE(server_->ebf().IsStale(q.NormalizedKey()));
}

TEST_F(ServerTest, StatefulQueryNotInvalidatedByOutOfWindowChange) {
  MakeServer();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(server_
                    ->Insert("t", std::to_string(i),
                             Doc(("{\"n\":" + std::to_string(i) + "}")
                                     .c_str()))
                    .ok());
  }
  db::Query q = Q("t", "{}");
  q.SetOrderBy({{"n", false}}).SetLimit(2);
  (void)GetQuery(q);
  clock_.Advance(1 * kSecond);
  // Insert below the window: window [t/4, t/3] unchanged.
  ASSERT_TRUE(server_->Insert("t", "low", Doc(R"({"n":-1})")).ok());
  EXPECT_FALSE(server_->ebf().IsStale(q.NormalizedKey()));
}

TEST_F(ServerTest, BloomSnapshotCountsRequests) {
  MakeServer();
  (void)server_->BloomSnapshot();
  (void)server_->BloomSnapshot();
  EXPECT_EQ(server_->stats().bloom_filter_requests, 2u);
}

TEST_F(ServerTest, DeleteInvalidatesQueriesAndRecord) {
  MakeServer();
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"g":1})")).ok());
  db::Query q = Q("t", R"({"g":1})");
  (void)GetQuery(q);
  (void)Get("t/1");
  clock_.Advance(1 * kSecond);
  ASSERT_TRUE(server_->Delete("t", "1").ok());
  EXPECT_TRUE(server_->ebf().IsStale("t/1"));
  EXPECT_TRUE(server_->ebf().IsStale(q.NormalizedKey()));
}

// One dispatch, one handler: an update that shifts a sorted window yields
// several notifications for the same query. Each reaches the taps and the
// invalidation counter, but the key is EBF-flagged and purged only once.
TEST_F(ServerTest, WindowShiftNotifiesEachButFlagsAndPurgesKeyOnce) {
  MakeServer();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(server_
                    ->Insert("t", std::to_string(i),
                             Doc(("{\"n\":" + std::to_string(i) + "}")
                                     .c_str()))
                    .ok());
  }
  db::Query q = Q("t", "{}");
  q.SetOrderBy({{"n", false}}).SetLimit(2);
  (void)GetQuery(q);  // window [t/4, t/3]
  std::vector<invalidb::Notification> taps;
  server_->AddNotificationTap(
      [&](const invalidb::Notification& n) { taps.push_back(n); });
  clock_.Advance(1 * kSecond);
  purged_.clear();
  const uint64_t invalidations = server_->stats().query_invalidations;
  const uint64_t flags = server_->ebf().AggregateStats().invalidations_reported;

  // t/0 jumps to the top: t/0 enters the window, t/3 drops out of it.
  db::Update u;
  u.Set("n", db::Value(99));
  ASSERT_TRUE(server_->Update("t", "0", u).ok());

  ASSERT_EQ(taps.size(), 2u);
  EXPECT_EQ(taps[0].type, invalidb::NotificationType::kRemove);
  EXPECT_EQ(taps[0].record_id, "3");
  EXPECT_EQ(taps[1].type, invalidb::NotificationType::kAdd);
  EXPECT_EQ(taps[1].record_id, "0");
  for (const invalidb::Notification& n : taps) {
    EXPECT_EQ(n.query_key, q.NormalizedKey());
  }
  EXPECT_EQ(server_->stats().query_invalidations - invalidations, 2u);
  EXPECT_EQ(std::count(purged_.begin(), purged_.end(), q.NormalizedKey()), 1);
  // One flag for the written record, one for the query key.
  EXPECT_EQ(server_->ebf().AggregateStats().invalidations_reported - flags,
            2u);
  EXPECT_TRUE(server_->ebf().IsStale(q.NormalizedKey()));
}

// A lone write over a batching transport (max_batch 64) must not wait for
// the next write: the remote's poller ships the staged change once it ages
// out, so the query's EBF flag and purge arrive with no further traffic.
TEST(ServerPipelineTest, LoneWriteIsFlaggedAndPurgedWithoutFurtherWrites) {
  Clock* clock = SystemClock::Default();
  db::Database db(clock);
  QuaestorServer server(clock, &db);
  std::mutex mu;
  std::vector<std::string> purged;
  server.AddPurgeTarget([&](const std::string& key) {
    std::lock_guard<std::mutex> lock(mu);
    purged.push_back(key);
  });

  kv::KvStore kv(clock);
  invalidb::TransportOptions topts;
  topts.batching.max_batch = 64;
  topts.batching.flush_interval = 1 * kMicrosPerMilli;
  invalidb::InvalidbWorker worker(clock, &kv, "lone",
                                  invalidb::InvalidbOptions(), topts);
  invalidb::InvalidbRemote remote(
      clock, &kv, "lone",
      [&](const std::vector<invalidb::Notification>& batch) {
        server.OnNotificationBatch(batch);
      },
      topts);
  server.UseRemoteInvalidb(&remote);
  worker.Start();
  remote.StartPolling();

  ASSERT_TRUE(server.Insert("t", "1", Doc(R"({"g":1})")).ok());
  db::Query q = Q("t", R"({"g":1})");
  server.RegisterQueryShape(q);
  webcache::HttpRequest req;
  req.key = q.NormalizedKey();
  ASSERT_TRUE(server.Fetch(req).ok);

  db::Update u;
  u.Set("g", db::Value(2));
  ASSERT_TRUE(server.Update("t", "1", u).ok());
  const auto purged_query = [&] {
    std::lock_guard<std::mutex> lock(mu);
    return std::count(purged.begin(), purged.end(), q.NormalizedKey()) > 0;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!(purged_query() && server.ebf().IsStale(q.NormalizedKey())) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(server.ebf().IsStale(q.NormalizedKey()));
  EXPECT_TRUE(purged_query());
  EXPECT_EQ(server.stats().query_invalidations, 1u);
  EXPECT_EQ(remote.buffered_changes(), 0u);
  EXPECT_GE(remote.stats().flushes_interval, 1u);
  remote.StopPolling();
  worker.Stop();
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST(AdmissionControllerTest, DisabledAdmitsEverythingStateless) {
  AdmissionController ctrl;  // enabled = false
  for (int i = 0; i < 1000; ++i) {
    Micros delay = 99;
    EXPECT_TRUE(ctrl.Admit(0, RequestContext(), &delay).ok());
    EXPECT_EQ(delay, 0);
  }
  EXPECT_EQ(ctrl.QueueDelay(0), 0);
  EXPECT_FALSE(ctrl.shedding());
  EXPECT_EQ(ctrl.stats().total_admitted(), 0u);
}

TEST(AdmissionControllerTest, QueueDelayGrowsWithAdmissions) {
  AdmissionOptions opts;
  opts.enabled = true;
  opts.max_concurrent = 2;
  opts.service_cost = 1000;
  AdmissionController ctrl(opts);
  // Two free workers absorb two requests with zero delay.
  Micros delay = 0;
  EXPECT_TRUE(ctrl.Admit(0, RequestContext(), &delay).ok());
  EXPECT_EQ(delay, 0);
  EXPECT_TRUE(ctrl.Admit(0, RequestContext(), &delay).ok());
  EXPECT_EQ(delay, 0);
  // The third waits for the earliest worker.
  EXPECT_TRUE(ctrl.Admit(0, RequestContext(), &delay).ok());
  EXPECT_EQ(delay, 1000);
  // Idle time drains the queue.
  EXPECT_EQ(ctrl.QueueDelay(10'000), 0);
}

TEST(AdmissionControllerTest, CodelEngagesOnlyAfterSustainedExcess) {
  AdmissionOptions opts;
  opts.enabled = true;
  opts.max_concurrent = 1;
  opts.service_cost = 1000;
  opts.target_queue_delay = 500;
  opts.codel_interval = 10'000;
  AdmissionController ctrl(opts);
  // Build up delay above target: each admit at t=0 adds 1000us.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ctrl.Admit(0, RequestContext(), nullptr).ok());
  }
  EXPECT_FALSE(ctrl.shedding());  // excess not yet sustained
  // Keep the queue above target past the interval: shedding engages.
  Status last = Status::OK();
  for (Micros t = 1000; t <= 20'000 && last.ok(); t += 1000) {
    last = ctrl.Admit(t, RequestContext(), nullptr);
  }
  EXPECT_TRUE(ctrl.shedding());
  EXPECT_TRUE(last.IsResourceExhausted());
  // Critical traffic still gets through in shedding mode.
  RequestContext critical;
  critical.priority = Priority::kCritical;
  EXPECT_TRUE(ctrl.Admit(20'000, critical, nullptr).ok());
  // A long idle period drains the queue and disengages shedding.
  EXPECT_TRUE(ctrl.Admit(10'000'000, RequestContext(), nullptr).ok());
  EXPECT_FALSE(ctrl.shedding());
}

TEST(AdmissionControllerTest, QueueBoundRejectsEvenCritical) {
  AdmissionOptions opts;
  opts.enabled = true;
  opts.max_concurrent = 1;
  opts.service_cost = 1000;
  opts.max_queue = 4;
  opts.target_queue_delay = 1'000'000;  // keep CoDel out of the way
  AdmissionController ctrl(opts);
  RequestContext critical;
  critical.priority = Priority::kCritical;
  Status last = Status::OK();
  int admitted = 0;
  for (int i = 0; i < 50; ++i) {
    last = ctrl.Admit(0, critical, nullptr);
    if (last.ok()) admitted++;
  }
  EXPECT_TRUE(last.IsResourceExhausted());
  // The backlog bound counts requests still holding a worker, so exactly
  // max_queue admissions fit before the hard reject.
  EXPECT_EQ(admitted, 4);
  EXPECT_GT(ctrl.stats().shed_queue_full[0], 0u);
}

TEST(AdmissionControllerTest, DoomedDeadlineRejectedWithoutCharge) {
  AdmissionOptions opts;
  opts.enabled = true;
  opts.max_concurrent = 1;
  opts.service_cost = 1000;
  opts.target_queue_delay = 1'000'000;
  AdmissionController ctrl(opts);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(ctrl.Admit(0, RequestContext(), nullptr).ok());
  }
  const Micros delay_before = ctrl.QueueDelay(0);
  // Deadline shorter than the queue: rejected, queue unchanged.
  RequestContext doomed = RequestContext::WithTimeout(0, 2000);
  EXPECT_TRUE(ctrl.Admit(0, doomed, nullptr).IsDeadlineExceeded());
  EXPECT_EQ(ctrl.QueueDelay(0), delay_before);
  // A deadline that covers the wait is admitted.
  RequestContext viable = RequestContext::WithTimeout(0, 60'000);
  EXPECT_TRUE(ctrl.Admit(0, viable, nullptr).ok());
}

TEST(AdmissionControllerTest, InjectDelayStallsAllWorkers) {
  AdmissionOptions opts;
  opts.enabled = true;
  opts.max_concurrent = 4;
  opts.service_cost = 1000;
  AdmissionController ctrl(opts);
  EXPECT_EQ(ctrl.QueueDelay(0), 0);
  ctrl.InjectDelay(0, 50'000);
  EXPECT_EQ(ctrl.QueueDelay(0), 50'000);
  Micros delay = 0;
  ASSERT_TRUE(ctrl.Admit(0, RequestContext(), &delay).ok());
  EXPECT_EQ(delay, 50'000);
}

TEST_F(ServerTest, AdmissionShedsReadsUnderSustainedOverload) {
  ServerOptions opts;
  opts.admission.enabled = true;
  opts.admission.max_concurrent = 1;
  opts.admission.service_cost = 1000;
  opts.admission.target_queue_delay = 500;
  opts.admission.codel_interval = 2000;
  MakeServer(opts);
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"x":1})")).ok());

  // Hammer Fetch without advancing the clock much: queue delay builds,
  // CoDel engages, and normal-priority reads start coming back shed.
  bool saw_shed = false;
  for (int i = 0; i < 200; ++i) {
    clock_.Advance(100);
    auto resp = Get("t/1");
    if (!resp.ok && resp.shed) saw_shed = true;
  }
  EXPECT_TRUE(saw_shed);
  EXPECT_GT(server_->stats().shed_responses, 0u);
  EXPECT_GT(server_->admission().stats().total_shed(), 0u);
}

TEST_F(ServerTest, ExpiredDeadlineFetchFailsFastWithoutDbWork) {
  ServerOptions opts;
  opts.admission.enabled = true;
  MakeServer(opts);
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"x":1})")).ok());
  clock_.Advance(10 * kSecond);

  webcache::HttpRequest req;
  req.key = "t/1";
  req.context.deadline = clock_.NowMicros() - 1;  // already past
  auto resp = server_->Fetch(req);
  EXPECT_FALSE(resp.ok);
  EXPECT_TRUE(resp.deadline_exceeded);
  EXPECT_FALSE(resp.shed);
  EXPECT_EQ(server_->stats().deadline_exceeded_responses, 1u);
}

TEST_F(ServerTest, AdmissionDisabledResponsesAreByteIdentical) {
  // Same sequence against an admission-enabled-but-idle server and a
  // default server: an idle controller must not change any response.
  SimulatedClock clock_b(0);
  db::Database db_b(&clock_b);
  ServerOptions with;
  with.admission.enabled = false;
  MakeServer();  // default options
  QuaestorServer plain(&clock_b, &db_b, with);

  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"x":1})")).ok());
  ASSERT_TRUE(plain.Insert("t", "1", Doc(R"({"x":1})")).ok());
  for (int i = 0; i < 5; ++i) {
    clock_.Advance(100'000);
    clock_b.Advance(100'000);
    webcache::HttpRequest req;
    req.key = "t/1";
    auto a = server_->Fetch(req);
    auto b = plain.Fetch(req);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.body, b.body);
    EXPECT_EQ(a.etag, b.etag);
    EXPECT_EQ(a.ttl, b.ttl);
  }
}

TEST_F(ServerTest, WritesAreShedBeforeReadsUnderOverload) {
  ServerOptions opts;
  opts.admission.enabled = true;
  opts.admission.max_concurrent = 1;
  opts.admission.service_cost = 1000;
  opts.admission.target_queue_delay = 2000;
  opts.admission.codel_interval = 2000;
  MakeServer(opts);
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"x":1})")).ok());

  // One write + one read per 1000us against a 1000us service cost: the
  // queue settles right at 2x target, where shedding mode drops kLow
  // writes every round but kNormal reads keep being admitted.
  uint64_t write_sheds = 0;
  uint64_t read_sheds = 0;
  for (int i = 0; i < 50; ++i) {
    clock_.Advance(1000);
    db::Update u;
    u.Set("x", db::Value(i));
    if (server_->Update("t", "1", u).status().IsResourceExhausted()) {
      write_sheds++;
    }
    if (!Get("t/1").ok) read_sheds++;
  }
  EXPECT_GT(write_sheds, 0u);
  EXPECT_EQ(read_sheds, 0u);
}

TEST_F(ServerTest, NotificationTapObservesInvalidations) {
  MakeServer();
  std::vector<invalidb::Notification> taps;
  server_->AddNotificationTap(
      [&](const invalidb::Notification& n) { taps.push_back(n); });
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"g":1})")).ok());
  db::Query q = Q("t", R"({"g":1})");
  (void)GetQuery(q);
  db::Update u;
  u.Set("g", db::Value(2));
  ASSERT_TRUE(server_->Update("t", "1", u).ok());
  ASSERT_EQ(taps.size(), 1u);
  EXPECT_EQ(taps[0].type, invalidb::NotificationType::kRemove);
}

}  // namespace
}  // namespace quaestor::core
