// Shared socket plumbing for every kronotri network consumer — the
// service client (unix sockets) and the remote-agent transport (TCP)
// used to each carry their own connect/timeout/EINTR/partial-IO loops;
// this is the one copy.
//
// Scope is deliberately small and synchronous:
//   * parse_endpoint(): "HOST:PORT" → TCP, "unix:PATH" or "/abs/path" →
//     unix-domain — one spelling for --agents and the service socket.
//   * dial()/dial_retry(): bounded-time connect (non-blocking connect +
//     poll + SO_ERROR, EINTR-correct) with optional backoff retries.
//   * write_all(): full-buffer send loop (MSG_NOSIGNAL, EINTR/EAGAIN
//     handled — EAGAIN waits on POLLOUT so it also serves non-blocking
//     fds).
//   * read_some(): one read() with the EINTR/EAGAIN/EOF cases folded
//     into an explicit status instead of errno spelunking at every
//     call site.
//   * listen(): bound+listening socket for either daemon (net/daemon.hpp)
//     on either endpoint kind, with the ephemeral TCP port (port 0)
//     resolved via getsockname so tests can listen on whatever is free.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/backoff.hpp"

namespace kronotri::net {

struct Endpoint {
  enum class Kind { kTcp, kUnix };
  Kind kind = Kind::kTcp;
  std::string host;      ///< TCP only
  std::uint16_t port = 0; ///< TCP only
  std::string path;      ///< unix only
  std::string text;      ///< the spec as written, for error messages
};

/// Parses "HOST:PORT" (TCP; host may be a name or numeric address),
/// "unix:PATH", or a bare path starting with '/' or '.' (unix). Throws
/// std::invalid_argument naming the offending spec.
[[nodiscard]] Endpoint parse_endpoint(std::string_view spec);

struct DialResult {
  int fd = -1;
  std::string error;  ///< empty on success
  [[nodiscard]] bool ok() const noexcept { return fd >= 0; }
};

/// One connect attempt bounded by `timeout_s` (0 = OS default blocking
/// connect). Returns a connected blocking fd or an error message; never
/// throws. TCP endpoints resolve via getaddrinfo and try each address
/// until one connects inside the deadline.
[[nodiscard]] DialResult dial(const Endpoint& ep, double timeout_s);

/// dial() up to `attempts` times, sleeping backoff.delay_s(attempt-1)
/// between tries — the "daemon still binding its socket" race both the
/// service client and the agent transport have to tolerate.
[[nodiscard]] DialResult dial_retry(const Endpoint& ep, double timeout_s,
                                    unsigned attempts,
                                    const util::Backoff& backoff);

/// Writes all of `data` (send with MSG_NOSIGNAL where available; EINTR
/// retried, EAGAIN waits for POLLOUT). False on any hard failure — the
/// caller treats that as a lost peer.
[[nodiscard]] bool write_all(int fd, std::string_view data) noexcept;

enum class IoStatus {
  kData,   ///< ≥1 byte appended to the buffer
  kEof,    ///< orderly shutdown by the peer
  kAgain,  ///< non-blocking fd with nothing to read right now
  kError,  ///< hard read error (connection reset, bad fd, …)
};

/// One read() of up to 64 KiB appended to `out`; EINTR retried.
[[nodiscard]] IoStatus read_some(int fd, std::string& out) noexcept;

/// Sets or clears O_NONBLOCK. Returns false on fcntl failure.
bool set_nonblocking(int fd, bool on) noexcept;

struct ListenResult {
  int fd = -1;
  std::uint16_t port = 0;  ///< actual bound port (resolves port 0)
  std::string error;
  [[nodiscard]] bool ok() const noexcept { return fd >= 0; }
};

/// Bound + listening socket on `ep`. TCP: SO_REUSEADDR, port 0 picks an
/// ephemeral port, reported back. Unix: the path must be free — removing
/// a stale socket file is the caller's decision. Never throws.
[[nodiscard]] ListenResult listen(const Endpoint& ep, int backlog = 128);

}  // namespace kronotri::net
