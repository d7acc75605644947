#include "net/socket.hpp"

#include <cerrno>
#include <charconv>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace kronotri::net {

namespace {

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Completes a non-blocking connect() under a deadline: poll for POLLOUT,
/// then read SO_ERROR — the only portable way to learn whether the
/// connect actually succeeded. Empty string on success.
std::string await_connect(int fd, double timeout_s) {
  pollfd pfd{fd, POLLOUT, 0};
  const int timeout_ms = static_cast<int>(timeout_s * 1000);
  int ready;
  do {
    ready = ::poll(&pfd, 1, timeout_ms);
  } while (ready < 0 && errno == EINTR);
  if (ready == 0) {
    return "connect timed out after " + std::to_string(timeout_s) + " s";
  }
  int err = 0;
  socklen_t len = sizeof(err);
  if (ready < 0 || ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 ||
      err != 0) {
    return std::string("connect: ") + std::strerror(err != 0 ? err : errno);
  }
  return {};
}

/// Connect `fd` to `addr` with the bounded-time dance shared by every
/// dial path: O_NONBLOCK when a timeout is set, EINTR resolved by the
/// poll, EINPROGRESS/EAGAIN awaited, flags restored to blocking after.
std::string connect_bounded(int fd, const sockaddr* addr, socklen_t addrlen,
                            double timeout_s) {
#ifdef SO_NOSIGPIPE
  // BSD/macOS have no MSG_NOSIGNAL; suppress SIGPIPE at the socket level
  // so a peer hanging up mid-send surfaces as EPIPE, not a signal.
  int on = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &on, sizeof(on));
#endif
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (timeout_s > 0 && flags >= 0) {
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
  int rc = ::connect(fd, addr, addrlen);
  if (rc < 0 && errno == EINTR) rc = 0;  // resolved by the poll below
  if (rc < 0 && (errno == EINPROGRESS || errno == EAGAIN)) {
    const std::string err = await_connect(fd, timeout_s > 0 ? timeout_s : 60);
    if (!err.empty()) return err;
    rc = 0;
  }
  if (rc < 0) return errno_text("connect");
  if (timeout_s > 0 && flags >= 0) {
    ::fcntl(fd, F_SETFL, flags);  // back to blocking for send/read
  }
  return {};
}

/// `path` as a unix-domain address for dial and listen alike; an error
/// message when it is empty or would be truncated to fit sun_path.
std::string unix_address(const std::string& path, sockaddr_un& addr) {
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    return "bad socket path \"" + path + "\"";
  }
  addr = sockaddr_un{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  return {};
}

DialResult dial_unix(const Endpoint& ep, double timeout_s) {
  DialResult r;
  sockaddr_un addr{};
  r.error = unix_address(ep.path, addr);
  if (!r.error.empty()) return r;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    r.error = errno_text("socket");
    return r;
  }
  r.error = connect_bounded(fd, reinterpret_cast<sockaddr*>(&addr),
                            sizeof(addr), timeout_s);
  if (!r.error.empty()) {
    ::close(fd);
    return r;
  }
  r.fd = fd;
  return r;
}

DialResult dial_tcp(const Endpoint& ep, double timeout_s) {
  DialResult r;
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  addrinfo* res = nullptr;
  const std::string service = std::to_string(ep.port);
  const int gai = ::getaddrinfo(ep.host.c_str(), service.c_str(), &hints,
                                &res);
  if (gai != 0) {
    r.error = "resolve " + ep.host + ": " + ::gai_strerror(gai);
    return r;
  }
  std::string last_error = "no addresses for " + ep.host;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_error = errno_text("socket");
      continue;
    }
    int on = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
    last_error = connect_bounded(fd, ai->ai_addr, ai->ai_addrlen, timeout_s);
    if (last_error.empty()) {
      r.fd = fd;
      break;
    }
    ::close(fd);
  }
  ::freeaddrinfo(res);
  if (!r.ok()) r.error = std::move(last_error);
  return r;
}

}  // namespace

Endpoint parse_endpoint(std::string_view spec) {
  Endpoint ep;
  ep.text.assign(spec);
  if (spec.empty()) {
    throw std::invalid_argument("net: empty endpoint");
  }
  constexpr std::string_view kUnixPrefix = "unix:";
  if (spec.substr(0, kUnixPrefix.size()) == kUnixPrefix) {
    ep.kind = Endpoint::Kind::kUnix;
    ep.path.assign(spec.substr(kUnixPrefix.size()));
    if (ep.path.empty()) {
      throw std::invalid_argument("net: empty unix path in \"" + ep.text +
                                  "\"");
    }
    return ep;
  }
  if (spec.front() == '/' || spec.front() == '.') {
    ep.kind = Endpoint::Kind::kUnix;
    ep.path.assign(spec);
    return ep;
  }
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 == spec.size()) {
    throw std::invalid_argument("net: endpoint \"" + ep.text +
                                "\" is not HOST:PORT or unix:PATH");
  }
  ep.kind = Endpoint::Kind::kTcp;
  ep.host.assign(spec.substr(0, colon));
  const std::string_view port_text = spec.substr(colon + 1);
  unsigned port = 0;
  const auto [ptr, ec] = std::from_chars(
      port_text.data(), port_text.data() + port_text.size(), port);
  if (ec != std::errc() || ptr != port_text.data() + port_text.size() ||
      port > 65535) {
    throw std::invalid_argument("net: bad port in \"" + ep.text + "\"");
  }
  ep.port = static_cast<std::uint16_t>(port);
  return ep;
}

DialResult dial(const Endpoint& ep, double timeout_s) {
  return ep.kind == Endpoint::Kind::kUnix ? dial_unix(ep, timeout_s)
                                          : dial_tcp(ep, timeout_s);
}

DialResult dial_retry(const Endpoint& ep, double timeout_s, unsigned attempts,
                      const util::Backoff& backoff) {
  if (attempts == 0) attempts = 1;
  DialResult r;
  for (unsigned attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) util::Backoff::sleep_s(backoff.delay_s(attempt - 1));
    r = dial(ep, timeout_s);
    if (r.ok()) return r;
  }
  return r;
}

bool write_all(int fd, std::string_view data) noexcept {
  std::size_t off = 0;
  while (off < data.size()) {
#ifdef MSG_NOSIGNAL
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
#else
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, 0);
#endif
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd, POLLOUT, 0};
      if (::poll(&pfd, 1, /*timeout_ms=*/10000) <= 0) return false;
      continue;
    }
    return false;
  }
  return true;
}

IoStatus read_some(int fd, std::string& out) noexcept {
  char chunk[65536];
  ssize_t n;
  do {
    n = ::read(fd, chunk, sizeof(chunk));
  } while (n < 0 && errno == EINTR);
  if (n > 0) {
    out.append(chunk, static_cast<std::size_t>(n));
    return IoStatus::kData;
  }
  if (n == 0) return IoStatus::kEof;
  return (errno == EAGAIN || errno == EWOULDBLOCK) ? IoStatus::kAgain
                                                   : IoStatus::kError;
}

bool set_nonblocking(int fd, bool on) noexcept {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  return ::fcntl(fd, F_SETFL, want) >= 0;
}

ListenResult listen(const Endpoint& ep, int backlog) {
  ListenResult r;
  // Candidate addresses: the one unix path, or every address the TCP host
  // resolves to; the first that binds wins.
  sockaddr_un un{};
  addrinfo unix_ai{};
  addrinfo* res = nullptr;
  if (ep.kind == Endpoint::Kind::kUnix) {
    r.error = unix_address(ep.path, un);
    if (!r.error.empty()) return r;
    unix_ai.ai_family = AF_UNIX;
    unix_ai.ai_socktype = SOCK_STREAM;
    unix_ai.ai_addr = reinterpret_cast<sockaddr*>(&un);
    unix_ai.ai_addrlen = sizeof(un);
  } else {
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_PASSIVE | AI_NUMERICSERV;
    const std::string service = std::to_string(ep.port);
    const int gai = ::getaddrinfo(ep.host.empty() ? nullptr : ep.host.c_str(),
                                  service.c_str(), &hints, &res);
    if (gai != 0) {
      r.error = "resolve " + ep.host + ": " + ::gai_strerror(gai);
      return r;
    }
  }
  for (addrinfo* ai = res != nullptr ? res : &unix_ai; ai != nullptr;
       ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      r.error = errno_text("socket");
      continue;
    }
    int on = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &on, sizeof(on));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) != 0 ||
        ::listen(fd, backlog) != 0) {
      r.error = errno_text("bind/listen");
      ::close(fd);
      continue;
    }
    sockaddr_storage bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      if (bound.ss_family == AF_INET) {
        r.port = ntohs(reinterpret_cast<sockaddr_in*>(&bound)->sin_port);
      } else if (bound.ss_family == AF_INET6) {
        r.port = ntohs(reinterpret_cast<sockaddr_in6*>(&bound)->sin6_port);
      }
    }
    r.fd = fd;
    r.error.clear();
    break;
  }
  if (res != nullptr) ::freeaddrinfo(res);
  return r;
}

}  // namespace kronotri::net
