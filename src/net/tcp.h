#ifndef QUAESTOR_NET_TCP_H_
#define QUAESTOR_NET_TCP_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "net/event_loop.h"

namespace quaestor::net {

/// Non-blocking TCP connection owned by an EventLoop. All methods are
/// loop-thread only (call via EventLoop::RunInLoop from elsewhere).
/// Writes use MSG_NOSIGNAL, so a peer that reset the connection surfaces
/// as a close (EPIPE), never as a process-killing SIGPIPE.
/// Writes buffer in user space when the socket is full; the buffer is
/// bounded — Send() refuses outright once `hard_limit` is reached so a
/// slow reader cannot grow the buffer without bound. Caller decides what
/// to do with the refusal (the frame hub sheds by priority).
class TcpConnection : public std::enable_shared_from_this<TcpConnection> {
 public:
  using DataHandler = std::function<void()>;
  using CloseHandler = std::function<void()>;

  /// Takes ownership of an already-connected fd and registers it.
  static std::shared_ptr<TcpConnection> Adopt(EventLoop* loop, int fd);

  ~TcpConnection();

  void set_on_data(DataHandler fn) { on_data_ = std::move(fn); }
  void set_on_close(CloseHandler fn) { on_close_ = std::move(fn); }
  void set_write_limits(size_t soft, size_t hard) {
    soft_limit_ = soft;
    hard_limit_ = hard;
  }

  /// Bytes received but not yet consumed. The data handler erases what
  /// it has parsed from the front and leaves torn tails in place.
  std::string& input() { return input_; }

  /// Queues `data` (attempting an immediate write first). Returns false
  /// — and buffers nothing — when the pending write buffer is already at
  /// the hard limit.
  bool Send(std::string_view data);

  size_t write_buffered() const { return output_.size(); }
  size_t soft_limit() const { return soft_limit_; }
  bool closed() const { return fd_ < 0; }
  int fd() const { return fd_; }

  /// Closes now; pending unsent bytes are dropped. Fires on_close.
  void Close();

 private:
  TcpConnection(EventLoop* loop, int fd);
  void HandleEvents(uint32_t events);
  void HandleReadable();
  void HandleWritable();
  void UpdateInterest();

  EventLoop* loop_;
  int fd_;
  std::string input_;
  std::string output_;  // bytes accepted by Send but not yet written
  size_t output_offset_ = 0;
  size_t soft_limit_ = 256u << 10;
  size_t hard_limit_ = 1u << 20;
  bool want_write_ = false;
  DataHandler on_data_;
  CloseHandler on_close_;
};

/// Listening socket. Listen(0) binds an ephemeral port; port() reports
/// the actual one, so test fixtures never race over a fixed port.
class TcpListener {
 public:
  using AcceptHandler = std::function<void(int fd)>;

  explicit TcpListener(EventLoop* loop) : loop_(loop) {}
  ~TcpListener();

  /// Loop-thread only. Binds 127.0.0.1:<port> and starts accepting.
  bool Listen(uint16_t port);
  void Close();
  uint16_t port() const { return port_; }
  void set_on_accept(AcceptHandler fn) { on_accept_ = std::move(fn); }

 private:
  EventLoop* loop_;
  int fd_ = -1;
  uint16_t port_ = 0;
  AcceptHandler on_accept_;
};

/// Opens a non-blocking connection to 127.0.0.1:<port>. Returns the fd
/// (connect may still be in progress — wait for EPOLLOUT) or -1.
int DialLoopback(uint16_t port);

/// Blocking variant used by the synchronous HTTP client.
int DialLoopbackBlocking(uint16_t port);

void SetNonBlocking(int fd);

}  // namespace quaestor::net

#endif  // QUAESTOR_NET_TCP_H_
