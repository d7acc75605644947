#include "service/client.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include <poll.h>
#include <unistd.h>

#include "net/socket.hpp"

namespace kronotri::service {

Client::~Client() { close(); }

void Client::connect(const std::string& socket_path) {
  close();
  net::Endpoint ep;
  ep.kind = net::Endpoint::Kind::kUnix;
  ep.path = socket_path;
  const unsigned attempts = std::max(1u, opt_.connect_attempts);
  net::DialResult r =
      net::dial_retry(ep, opt_.connect_timeout_s, attempts, opt_.backoff);
  if (!r.ok()) {
    throw std::runtime_error("service::Client: " + socket_path + ": " +
                             r.error + " (" + std::to_string(attempts) +
                             " attempt" + (attempts > 1 ? "s" : "") + ")");
  }
  fd_ = r.fd;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  reader_.reset();
}

void Client::send(const util::json::Value& request) {
  if (fd_ < 0) throw std::runtime_error("service::Client: not connected");
  if (!net::write_all(fd_, net::encode_message(request))) {
    throw std::runtime_error("service::Client: connection lost while sending");
  }
}

util::json::Value Client::read_response() {
  if (fd_ < 0) throw std::runtime_error("service::Client: not connected");
  // One overall deadline per response frame, not per read(): a server
  // trickling bytes forever must still hit it.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(opt_.request_timeout_s);
  std::string payload;
  while (true) {
    const net::FrameReader::Status fs = reader_.next(payload);
    if (fs == net::FrameReader::Status::kFrame) {
      return util::json::Value::parse(payload);
    }
    if (fs == net::FrameReader::Status::kCorrupt) {
      throw std::runtime_error("service::Client: corrupt response frame");
    }
    if (opt_.request_timeout_s > 0) {
      const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(
          &pfd, 1,
          static_cast<int>(std::max<long long>(0, remaining.count())));
      if (ready == 0) {
        throw std::runtime_error(
            "service::Client: request timed out after " +
            std::to_string(opt_.request_timeout_s) +
            " s waiting for a response");
      }
      if (ready < 0 && errno != EINTR) {
        throw std::runtime_error(std::string("service::Client: poll: ") +
                                 std::strerror(errno));
      }
    }
    const net::IoStatus io = reader_.read_from(fd_);
    if (io == net::IoStatus::kEof) {
      throw std::runtime_error(
          "service::Client: server closed the connection before responding");
    }
    if (io != net::IoStatus::kData) {
      throw std::runtime_error(std::string("service::Client: read: ") +
                               std::strerror(errno));
    }
  }
}

util::json::Value Client::request(const util::json::Value& req) {
  send(req);
  return read_response();
}

util::json::Value Client::submit(const api::RunPlan& plan) {
  util::json::Value req = util::json::Value::object();
  req.set("type", "submit");
  req.set("plan", plan.to_json());
  return request(req);
}

util::json::Value Client::submit_text(std::string_view plan_text) {
  util::json::Value req = util::json::Value::object();
  req.set("type", "submit");
  req.set("plan", plan_text);
  return request(req);
}

util::json::Value Client::stats() {
  util::json::Value req = util::json::Value::object();
  req.set("type", "stats");
  return request(req);
}

}  // namespace kronotri::service
