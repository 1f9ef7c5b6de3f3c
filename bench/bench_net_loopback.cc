// In-process vs real-socket serving overhead: the same origin fetch and
// write operations measured through a direct function call and through
// the src/net loopback stack (HTTP/1.1 over 127.0.0.1). Reports ops/s
// and p50/p99 latency per path and writes BENCH_net.json.
//
// Usage: bench_net_loopback [output.json] [ops-per-path]

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "core/server.h"
#include "db/database.h"
#include "db/value.h"
#include "net/event_loop.h"
#include "net/http_client.h"
#include "net/service.h"
#include "webcache/http.h"

namespace quaestor::bench {
namespace {

db::Value MakeDoc(int i) {
  db::Object o;
  o["title"] = db::Value("Post " + std::to_string(i));
  o["group"] = db::Value(static_cast<int64_t>(i % 100));
  o["body"] = db::Value(std::string(200, 'x'));
  return db::Value(std::move(o));
}

struct PathResult {
  double ops_per_sec = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

double Percentile(std::vector<int64_t>* samples, double p) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  const size_t idx = std::min(
      samples->size() - 1,
      static_cast<size_t>(p * static_cast<double>(samples->size() - 1)));
  return static_cast<double>((*samples)[idx]);
}

/// Runs `op` n times, timing each call with the monotonic clock.
template <typename Op>
PathResult Measure(int n, Op&& op) {
  std::vector<int64_t> lat;
  lat.reserve(static_cast<size_t>(n));
  const int64_t start = net::EventLoop::MonotonicNow();
  for (int i = 0; i < n; ++i) {
    const int64_t t0 = net::EventLoop::MonotonicNow();
    op(i);
    lat.push_back(net::EventLoop::MonotonicNow() - t0);
  }
  const int64_t total = net::EventLoop::MonotonicNow() - start;
  PathResult r;
  r.ops_per_sec = total > 0 ? static_cast<double>(n) * 1e6 /
                                  static_cast<double>(total)
                            : 0.0;
  r.p50_us = Percentile(&lat, 0.50);
  r.p99_us = Percentile(&lat, 0.99);
  return r;
}

db::Value ToValue(const PathResult& r) {
  db::Object o;
  o["ops_per_sec"] = db::Value(r.ops_per_sec);
  o["p50_us"] = db::Value(r.p50_us);
  o["p99_us"] = db::Value(r.p99_us);
  return db::Value(std::move(o));
}

}  // namespace
}  // namespace quaestor::bench

int main(int argc, char** argv) {
  using namespace quaestor;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_net.json";
  const int ops = argc > 2 ? std::atoi(argv[2]) : 4000;
  constexpr int kKeys = 1024;

  SystemClock* clock = SystemClock::Default();
  db::Database db(clock);
  core::QuaestorServer server(clock, &db, core::ServerOptions());
  for (int i = 0; i < kKeys; ++i) {
    server.Insert("posts", "p" + std::to_string(i), bench::MakeDoc(i));
  }

  bench::PrintHeader("net loopback overhead (" + std::to_string(ops) +
                     " ops per path)");

  // --- In-process: direct webcache::Origin calls on the server. -----------
  const bench::PathResult local_read = bench::Measure(ops, [&](int i) {
    webcache::HttpRequest req;
    req.key = "posts/p" + std::to_string(i % kKeys);
    (void)server.Fetch(req);
  });
  const bench::PathResult local_write = bench::Measure(ops, [&](int i) {
    server.Insert("bench_local", "w" + std::to_string(i), bench::MakeDoc(i));
  });

  // --- Loopback: the same operations through the socket stack. ------------
  net::NetOptions nopts;
  nopts.enabled = true;
  net::NetServer net(clock, &server, nopts);
  if (!net.Start()) {
    std::fprintf(stderr, "failed to start loopback server\n");
    return 1;
  }
  net::HttpBackend backend(net.http_port());
  const bench::PathResult loop_read = bench::Measure(ops, [&](int i) {
    webcache::HttpRequest req;
    req.key = "posts/p" + std::to_string(i % kKeys);
    (void)backend.Fetch(req);
  });
  const bench::PathResult loop_write = bench::Measure(ops, [&](int i) {
    backend.Insert("", "bench_loop", "w" + std::to_string(i),
                   bench::MakeDoc(i), RequestContext());
  });
  net.Stop();

  std::printf("  %-18s %12s %10s %10s\n", "path", "ops/s", "p50 us", "p99 us");
  const auto row = [](const char* name, const bench::PathResult& r) {
    std::printf("  %-18s %12.0f %10.1f %10.1f\n", name, r.ops_per_sec,
                r.p50_us, r.p99_us);
  };
  row("read  in-process", local_read);
  row("read  loopback", loop_read);
  row("write in-process", local_write);
  row("write loopback", loop_write);

  db::Object root;
  root["benchmark"] = db::Value("net_loopback");
  root["hardware_threads"] = db::Value(
      static_cast<int64_t>(std::thread::hardware_concurrency()));
  root["build_type"] = db::Value(QUAESTOR_BUILD_TYPE);
  root["ops_per_path"] = db::Value(static_cast<int64_t>(ops));
  db::Object read;
  read["inprocess"] = bench::ToValue(local_read);
  read["loopback"] = bench::ToValue(loop_read);
  root["read"] = db::Value(std::move(read));
  db::Object write;
  write["inprocess"] = bench::ToValue(local_write);
  write["loopback"] = bench::ToValue(loop_write);
  root["write"] = db::Value(std::move(write));
  bench::WriteJsonFile(out_path, db::Value(std::move(root)));
  return 0;
}
