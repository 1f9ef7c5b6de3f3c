#ifndef QUAESTOR_NET_SERVICE_H_
#define QUAESTOR_NET_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/clock.h"
#include "core/server.h"
#include "invalidb/transport.h"
#include "net/event_loop.h"
#include "net/http_server.h"
#include "net/queue_bridge.h"

namespace quaestor::net {

/// Real-socket serving, off by default: the whole layer is inert until
/// `enabled` is set, and nothing else in the system references it.
struct NetOptions {
  bool enabled = false;
  /// 0 = ephemeral (port() reports the bound one) — the only safe choice
  /// for tests sharing a machine.
  uint16_t http_port = 0;
  uint16_t frame_port = 0;
  /// Per-connection write-buffer bounds: past `soft` only kCritical/kHigh
  /// frames still queue, at `hard` everything sheds (the reliable queue
  /// retransmits what matters).
  size_t write_buffer_soft_limit = 256u << 10;
  size_t write_buffer_hard_limit = 1u << 20;
  Micros reconnect_backoff = 20 * kMicrosPerMilli;
  /// Route the InvaliDB data path to workers over TCP (NetWorker peers)
  /// instead of the in-process cluster.
  bool remote_invalidb = false;
  std::string invalidb_prefix = "invalidb";
  invalidb::TransportOptions transport;
};

/// Serving-side bundle: event loop + HTTP front-end + frame hub, and —
/// when remote_invalidb is on — the InvalidbRemote stub bound as the
/// server's InvaliDB data path with its queues bridged over the hub.
class NetServer {
 public:
  NetServer(Clock* clock, core::QuaestorServer* server, NetOptions options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Starts the loop and binds both listeners. False if anything failed
  /// (loop/listeners are torn down on failure paths by the dtor).
  bool Start();
  void Stop();

  uint16_t http_port() const;
  uint16_t frame_port() const;

  EventLoop* loop() { return &loop_; }
  FrameHub* hub() { return hub_.get(); }
  HttpFrontend* http() { return http_.get(); }
  invalidb::InvalidbRemote* remote() { return remote_.get(); }
  BridgedKvStore* bridged_kv() { return bridged_kv_.get(); }

 private:
  Clock* clock_;
  core::QuaestorServer* server_;
  NetOptions options_;
  EventLoop loop_;
  std::unique_ptr<FrameHub> hub_;
  std::unique_ptr<HttpFrontend> http_;
  std::unique_ptr<BridgedKvStore> bridged_kv_;
  std::unique_ptr<invalidb::InvalidbRemote> remote_;
  bool started_ = false;
};

/// Matching-cluster side: a FrameClient dialed into a NetServer's frame
/// hub, a bridged KV store, and the existing InvalidbWorker consuming
/// the bridged request queue exactly as it would a local one.
class NetWorker {
 public:
  NetWorker(Clock* clock, uint16_t frame_port, NetOptions options,
            invalidb::InvalidbOptions cluster_options =
                invalidb::InvalidbOptions());
  ~NetWorker();

  NetWorker(const NetWorker&) = delete;
  NetWorker& operator=(const NetWorker&) = delete;

  bool Start();
  void Stop();

  FrameClient* frame_client() { return client_.get(); }
  BridgedKvStore* bridged_kv() { return bridged_kv_.get(); }
  invalidb::InvalidbWorker* worker() { return worker_.get(); }

 private:
  Clock* clock_;
  NetOptions options_;
  invalidb::InvalidbOptions cluster_options_;
  const uint16_t frame_port_;
  EventLoop loop_;
  std::unique_ptr<FrameClient> client_;
  std::unique_ptr<BridgedKvStore> bridged_kv_;
  std::unique_ptr<invalidb::InvalidbWorker> worker_;
  bool started_ = false;
};

}  // namespace quaestor::net

#endif  // QUAESTOR_NET_SERVICE_H_
