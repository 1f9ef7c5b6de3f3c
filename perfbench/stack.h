// The loopback deployment the benchmark drives, and the wrappers that time
// it from outside: QuaestorServer behind net::NetServer, InvaliDB over TCP
// to a net::NetWorker (reliable transport), CDN purges fanned out to a
// net::FrameClient feeding a webcache::InvalidationCache, and
// client::QuaestorClient sessions over net::HttpBackend.
//
// Nothing here changes the program: spans are recorded by the
// benchmark's own wrappers around the public calls it makes (a Backend /
// Origin wrapper, a QuaestorServer subclass overriding the virtual Fetch,
// the server's notification tap and the purge subscriber's callback).

#ifndef PERFBENCH_STACK_H_
#define PERFBENCH_STACK_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "check/oracle.h"
#include "client/client.h"
#include "common/clock.h"
#include "core/server.h"
#include "db/database.h"
#include "net/event_loop.h"
#include "net/http_client.h"
#include "net/queue_bridge.h"
#include "net/service.h"
#include "stats.h"
#include "webcache/web_cache.h"
#include "workload/workload.h"

namespace perfbench {

using quaestor::Micros;

/// Monotonic nanoseconds (steady_clock, the base of SystemClock too).
int64_t NowNs();

/// Span names. Layers: client.* (SDK + CDN tier), net.* (codec,
/// loop and socket round trip minus the origin work inside it), core.*
/// (QuaestorServer::Fetch, database included).
enum SpanName : uint32_t {
  kClientRead,
  kClientQuery,
  kClientUpdate,
  kNetFetch,
  kNetEbf,
  kNetQueryShape,
  kNetWrite,
  kCoreRecordFetch,
  kCoreQueryFetch,
  kSpanNames,
};
const char* SpanNameOf(uint32_t name);

/// Fresh span id (never 0).
uint64_t NextSpanId();

/// Trace state of one session. `op_traced`, `root` and `spans` belong to
/// the session thread; `open_net` is published to the server loop thread
/// so origin-side spans can name their parent.
struct SessionTrace {
  bool op_traced = false;
  uint64_t root = 0;
  std::atomic<uint64_t> open_net{0};
  std::vector<Span> spans;
  std::vector<double> record_ttl_ms;  // response TTLs seen on the wire
  std::vector<double> query_ttl_ms;
};

/// Origin-side timing: overrides the virtual Fetch the HTTP front-end
/// calls and records a core.* span under the calling session's open
/// net.fetch span (sessions are told apart by their bearer token, "s<i>").
class TimedServer final : public quaestor::core::QuaestorServer {
 public:
  using QuaestorServer::QuaestorServer;

  static constexpr size_t kMaxSessions = 8;

  /// Registers session `index` (< kMaxSessions)'s trace.
  void AttachSession(size_t index, SessionTrace* trace);

  quaestor::webcache::HttpResponse Fetch(
      const quaestor::webcache::HttpRequest& request) override;

  /// Moves out the recorded origin-side spans.
  std::vector<Span> TakeSpans();

 private:
  std::array<std::atomic<SessionTrace*>, kMaxSessions> sessions_{};
  std::mutex spans_mu_;
  std::vector<Span> spans_;
};

/// client::Backend and webcache::Origin over a net::HttpBackend that
/// records a net.* span around every call while the session's current
/// operation is traced.
class TimedBackend final : public quaestor::client::Backend,
                           public quaestor::webcache::Origin {
 public:
  TimedBackend(uint16_t port, SessionTrace* trace)
      : inner_(port), trace_(trace) {}

  quaestor::webcache::HttpResponse Fetch(
      const quaestor::webcache::HttpRequest& request) override;
  quaestor::webcache::Origin* origin() override { return this; }
  quaestor::ebf::BloomFilter BloomSnapshot() override;
  quaestor::ebf::BloomFilter BloomSnapshotForTable(
      const std::string& table) override;
  void RegisterQueryShape(const quaestor::db::Query& query) override;
  quaestor::Result<quaestor::db::Document> Insert(
      const std::string& auth_token, const std::string& table,
      const std::string& id, quaestor::db::Value body,
      const quaestor::RequestContext& ctx) override;
  quaestor::Result<quaestor::db::Document> Update(
      const std::string& auth_token, const std::string& table,
      const std::string& id, const quaestor::db::Update& update,
      const quaestor::RequestContext& ctx) override;
  quaestor::Result<quaestor::db::Document> Delete(
      const std::string& auth_token, const std::string& table,
      const std::string& id, const quaestor::RequestContext& ctx) override;

 private:
  quaestor::net::HttpBackend inner_;
  SessionTrace* trace_;
};

/// Commit → purge frame sent by the origin → purge frame received by the
/// CDN subscriber, per query key. The origin's send is stamped by a purge
/// target registered ahead of the frame hub's, so it runs just before the
/// frame goes out. The notification tap, which the server runs after the
/// purge within the same call, supplies that send's commit time. Frames of
/// one key arrive in the order they were sent.
class InvalidationTracker {
 public:
  struct Sample {
    Micros commit = 0;   // the write's commit time (Notification::event_time)
    Micros sent = 0;     // purge frame handed to the frame hub
    Micros arrived = 0;  // purge frame received by the CDN subscriber
  };

  explicit InvalidationTracker(quaestor::Clock* clock) : clock_(clock) {}

  void OnPurgeSent(const std::string& key);
  void OnNotification(const quaestor::invalidb::Notification& n);
  void OnPurgeArrived(const std::string& key);

  /// Notifications whose purge has not reached the subscriber, or was
  /// never sent.
  uint64_t Undelivered() const;
  uint64_t notifications() const;
  /// Completed samples (copy).
  std::vector<Sample> Samples() const;

 private:
  struct Pending {
    Sample sample;
    bool tapped = false;
    bool arrived = false;
  };
  using PendingPtr = std::shared_ptr<Pending>;

  quaestor::Clock* clock_;
  mutable std::mutex mu_;
  // Sent and not yet arrived, oldest first, per key.
  std::unordered_map<std::string, std::deque<PendingPtr>> in_flight_;
  // The newest send per (sending thread, key), waiting for its tap. Keyed
  // by thread so a purge another thread sends in between is not taken.
  std::map<std::pair<std::thread::id, std::string>, PendingPtr> last_sent_;
  uint64_t undelivered_ = 0;
  uint64_t notifications_ = 0;
  std::vector<Sample> samples_;
};

/// Latest committed version of every loaded record ("t<i>/d<j>"), kept
/// from the database change stream, so a read can be judged stale at the
/// moment it completes.
class VersionBoard {
 public:
  VersionBoard(size_t tables, size_t docs_per_table);
  void OnCommit(const quaestor::db::Document& after);
  /// True if `key` has a committed version newer than `version`.
  bool Superseded(const std::string& table, const std::string& id,
                  uint64_t version) const;

 private:
  size_t Slot(const std::string& table, const std::string& id) const;

  const size_t tables_;
  const size_t docs_;
  std::vector<std::atomic<uint64_t>> latest_;
};

/// Δ: the clients' EBF refresh interval, the staleness bound of the paper.
constexpr Micros kDelta = quaestor::kMicrosPerSecond;
/// Staleness bound the oracle asserts: Δ plus slack, so a scheduling stall
/// on a loaded machine does not fake a violation.
constexpr Micros kOracleBound = kDelta + 500 * quaestor::kMicrosPerMilli;

struct StackOptions {
  quaestor::workload::WorkloadOptions population;
  size_t cdn_capacity = 0;  // 0 = unbounded
  /// Attach a ConsistencyOracle to the commit stream before the load.
  bool with_oracle = false;
};

/// One client session: its own HTTP connection, and a browser cache only
/// on the revalidation probe (see Stack::OpenSession).
struct Session {
  std::string name;  // also the bearer token
  SessionTrace trace;
  std::unique_ptr<quaestor::webcache::ExpirationCache> browser;  // or null
  std::unique_ptr<TimedBackend> backend;
  std::unique_ptr<quaestor::client::QuaestorClient> client;
};

/// The whole deployment. Construct, check ok(), then open sessions.
class Stack {
 public:
  explicit Stack(const StackOptions& options);
  ~Stack();

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  bool ok() const { return ok_; }

  /// Opens session `index` (token "s<index>"), connected, EBF loaded,
  /// reading through the shared CDN without a browser cache. With
  /// `revalidation_probe` the session has an unbounded browser cache and
  /// strong consistency instead, so every read of a key it holds sends
  /// the origin an If-None-Match with the browser copy's etag.
  std::unique_ptr<Session> OpenSession(size_t index,
                                       bool revalidation_probe = false);

  TimedServer& server() { return *server_; }
  quaestor::db::Database& db() { return db_; }
  quaestor::net::NetServer& net() { return *net_; }
  quaestor::net::NetWorker& worker() { return *worker_; }
  quaestor::net::FrameClient& purge_client() { return *purge_client_; }
  InvalidationTracker& invalidations() { return invalidations_; }
  const VersionBoard& versions() const { return versions_; }

  /// Oracle access (null without one); every touch holds oracle_mu().
  quaestor::check::ConsistencyOracle* oracle() { return oracle_.get(); }
  std::mutex& oracle_mu() { return oracle_mu_; }

  /// Waits until the invalidation pipeline is idle: every change acked by
  /// the worker, every tapped notification's purge delivered, and no new
  /// notification for `quiet_ms`. False on timeout.
  bool Drain(int64_t quiet_ms, int64_t timeout_ms);

 private:
  StackOptions options_;
  quaestor::SystemClock clock_;
  quaestor::db::Database db_;
  std::mutex oracle_mu_;
  std::unique_ptr<quaestor::check::ConsistencyOracle> oracle_;
  VersionBoard versions_;
  InvalidationTracker invalidations_;
  std::unique_ptr<TimedServer> server_;
  std::unique_ptr<quaestor::net::NetServer> net_;
  std::unique_ptr<quaestor::net::NetWorker> worker_;
  std::unique_ptr<quaestor::webcache::InvalidationCache> cdn_;
  quaestor::net::EventLoop purge_loop_;
  std::unique_ptr<quaestor::net::FrameClient> purge_client_;
  bool ok_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_STACK_H_
