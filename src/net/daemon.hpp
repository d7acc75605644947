// The one daemon skeleton behind `kronotri serve` (service::Server, unix
// socket) and `kronotri agent` (net::Agent, TCP): listen on a
// net::Endpoint, accept on one acceptor thread, run the handler on one
// thread per connection, and reap finished connections as new ones are
// accepted, so a long-lived daemon holds threads only for live peers.
// Both handlers speak CRC-64 frames (net/framing.hpp).
//
// An fd is closed only after the thread using it has been joined, so a
// reused fd number never reaches a stale acceptor or handler.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/socket.hpp"

namespace kronotri::net {

class Daemon {
 public:
  /// Serves one connection until it returns; the Daemon then shuts the fd
  /// down. A handler sets `busy` while it owes the peer a response.
  using Handler = std::function<void(int fd, std::atomic<bool>& busy)>;

  Daemon() = default;
  ~Daemon();  ///< stop_accepting() + close_connections()

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Listens on `ep` and starts the acceptor; on failure nothing starts
  /// and the result carries the error.
  [[nodiscard]] ListenResult start(const Endpoint& ep, Handler handler);

  /// Step 1 of a stop: shut the listener down, join the acceptor, then
  /// close the listening fd. Idempotent.
  void stop_accepting();
  /// Step 2, after any drain of the daemon's own: shut down connections
  /// that are not busy (their handlers wake with EOF), wait for busy ones
  /// to finish, join every handler, then close every fd. Idempotent.
  void close_connections();

 private:
  struct Connection {
    int fd = -1;
    std::atomic<bool> busy{false};
    std::atomic<bool> done{false};
    std::thread thread;
  };

  void accept_loop();
  /// Joins and closes every connection whose handler returned; mu_ held.
  void reap_finished();

  Handler handler_;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::mutex mu_;  ///< guards connections_
  std::vector<std::unique_ptr<Connection>> connections_;
  std::thread acceptor_;
};

}  // namespace kronotri::net
