#include "net/daemon.hpp"

#include <cerrno>
#include <chrono>
#include <exception>

#include <sys/socket.h>
#include <unistd.h>

#include "util/log.hpp"

namespace kronotri::net {

Daemon::~Daemon() {
  stop_accepting();
  close_connections();
}

ListenResult Daemon::start(const Endpoint& ep, Handler handler) {
  ListenResult r = net::listen(ep);
  if (!r.ok()) return r;
  handler_ = std::move(handler);
  listen_fd_ = r.fd;
  stopping_.store(false);
  acceptor_ = std::thread([this] { accept_loop(); });
  return r;
}

void Daemon::stop_accepting() {
  if (listen_fd_ < 0) return;
  stopping_.store(true);
  ::shutdown(listen_fd_, SHUT_RDWR);  // wakes the blocked accept()
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void Daemon::close_connections() {
  const std::lock_guard<std::mutex> lock(mu_);
  // A busy handler's response was already produced but may not be
  // written yet; shutting its fd down would lose it. Idle handlers are
  // blocked on their peer and wake on the shutdown.
  while (true) {
    bool pending = false;
    for (const auto& conn : connections_) {
      if (conn->done.load()) continue;
      pending = true;
      if (!conn->busy.load()) ::shutdown(conn->fd, SHUT_RDWR);
    }
    if (!pending) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  reap_finished();
}

void Daemon::reap_finished() {
  std::erase_if(connections_, [](const std::unique_ptr<Connection>& conn) {
    if (!conn->done.load()) return false;
    conn->thread.join();
    ::close(conn->fd);
    return true;
  });
}

void Daemon::accept_loop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) return;
      // An interrupted call or an aborted handshake ends nothing; a
      // transient fd or memory shortage (EMFILE, ENOBUFS) gets a pause
      // instead of a spin.
      if (errno != EINTR && errno != ECONNABORTED) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      continue;
    }
    const std::lock_guard<std::mutex> lock(mu_);
    reap_finished();
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    conn->thread = std::thread([this, raw] {
      try {
        handler_(raw->fd, raw->busy);
      } catch (const std::exception& e) {
        util::log::warn("net", "connection handler failed",
                        {{"error", e.what()}});
      }
      raw->busy.store(false);
      ::shutdown(raw->fd, SHUT_RDWR);  // closed after the join
      raw->done.store(true);
    });
    connections_.push_back(std::move(conn));
  }
}

}  // namespace kronotri::net
