#ifndef QUAESTOR_NET_HTTP_CLIENT_H_
#define QUAESTOR_NET_HTTP_CLIENT_H_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "client/backend.h"
#include "common/result.h"
#include "net/http_codec.h"

namespace quaestor::net {

/// Minimal blocking HTTP/1.1 client over one keep-alive connection. The
/// SDK models a single browser session issuing sequential requests, so
/// one connection with synchronous round trips is the faithful shape.
/// A dead socket is redialed once per round trip.
class SyncHttpChannel {
 public:
  explicit SyncHttpChannel(uint16_t port) : port_(port) {}
  ~SyncHttpChannel();

  SyncHttpChannel(const SyncHttpChannel&) = delete;
  SyncHttpChannel& operator=(const SyncHttpChannel&) = delete;

  /// Sends one request and blocks for the full response.
  Result<HttpMessage> RoundTrip(const HttpMessage& request);

 private:
  bool EnsureConnected();
  void Drop();

  const uint16_t port_;
  int fd_ = -1;
  std::string residue_;  // bytes past the previous response, if any
};

/// client::Backend over a real socket: every SDK operation becomes an
/// HTTP request against a net::HttpFrontend. Also the webcache::Origin
/// the client-side cache hierarchy fetches through, so cache misses
/// travel the wire with full header semantics (ETag / If-None-Match /
/// Cache-Control / X-Deadline-Us) and 503/429/504 map back onto the
/// domain response flags.
///
/// Query shapes cost no round trip: RegisterQueryShape only remembers the
/// query's spec, and every origin fetch of that query key carries the
/// spec in its body, so a server that has not seen the key (or has
/// restarted) learns it from the miss itself. A query answered by a
/// cache never reaches the wire. Like the channel, one session's thread
/// only.
class HttpBackend final : public client::Backend, public webcache::Origin {
 public:
  explicit HttpBackend(uint16_t port) : channel_(port) {}

  // -- webcache::Origin --
  webcache::HttpResponse Fetch(const webcache::HttpRequest& request) override;

  // -- client::Backend --
  webcache::Origin* origin() override { return this; }
  ebf::BloomFilter BloomSnapshot() override;
  ebf::BloomFilter BloomSnapshotForTable(const std::string& table) override;
  /// Records NormalizedKey() -> spec JSON; sends nothing.
  void RegisterQueryShape(const db::Query& query) override;
  Result<db::Document> Insert(const std::string& auth_token,
                              const std::string& table, const std::string& id,
                              db::Value body,
                              const RequestContext& ctx) override;
  Result<db::Document> Update(const std::string& auth_token,
                              const std::string& table, const std::string& id,
                              const db::Update& update,
                              const RequestContext& ctx) override;
  Result<db::Document> Delete(const std::string& auth_token,
                              const std::string& table, const std::string& id,
                              const RequestContext& ctx) override;

 private:
  ebf::BloomFilter FetchEbf(const std::string& target);
  Result<db::Document> Write(const std::string& op,
                             const std::string& auth_token,
                             const std::string& table, const std::string& id,
                             std::string body, const RequestContext& ctx);

  SyncHttpChannel channel_;
  std::unordered_map<std::string, std::string> query_specs_;  // key -> JSON
};

}  // namespace quaestor::net

#endif  // QUAESTOR_NET_HTTP_CLIENT_H_
