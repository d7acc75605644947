// Wire framing of every kronotri socket: util::journal CRC-64 frames
// ("KTJ1" | u64 LE length | payload | u64 LE crc64) carried over a
// stream socket, payloads being one JSON object each. The SAME frame
// format the runner journals to disk — a fragment that crossed the
// network verifies with the identical checksum discipline a fragment
// read from a crashed coordinator's journal does.
//
// Agent protocol (all messages carry "type"):
//   coordinator → agent
//     {"type":"hello","proto":1}
//     {"type":"dispatch","unit":U,"attempt":A,"plan":"<RunPlan JSON>",
//      "fault":"<spec>","mem_limit":N,"trace":bool}
//     {"type":"cancel","unit":U,"attempt":A}        kill/forget the attempt
//   agent → coordinator
//     {"type":"welcome","proto":1,"slots":N,"pid":P}
//     {"type":"heartbeat"}                          liveness, every ~250 ms
//     {"type":"result","unit":U,"attempt":A,"wall_s":W,
//      — then runner::AttemptResult::to_json():
//      "outcome":"ok|exit|signal|oom|truncated|spawn_failed|cancelled",
//      "detail":D,"pid":P,"max_rss_bytes":R,"cpu_user_s":…,"cpu_sys_s":…,
//      "fragment":"<RunReport JSON>",               ok only
//      "trace":"<trace doc JSON>"}                  when tracing was asked
//
// Service protocol (`kronotri serve` / `submit`; error codes and
// ordering in service/protocol.hpp):
//   client → server
//     {"type":"submit","plan":{…RunPlan JSON…} or "<plan text>"}
//     {"type":"stats"}                              metrics snapshot
//     {"type":"ping"}                               liveness probe
//   server → client, one response frame per request
//     {"ok":true,"cache":"hit|miss|bypass","plan_hash":"…",
//      "queue_wait_s":…,"execute_s":…,"report":{…RunReport JSON…}}
//     {"ok":true,"stats":{…}}   /   {"ok":true,"pong":true}
//     {"ok":false,"error":{"code":"…","message":"…"}}
//
// A frame that fails its CRC poisons the stream (no resync marker): the
// reader reports kCorrupt and the connection is dropped. The coordinator
// classifies in-flight attempts "garbled" and re-dispatches — exactly
// the torn-journal recovery story, applied to a socket; the service
// answers one bad_request frame first, then hangs up.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "net/socket.hpp"
#include "util/json.hpp"

namespace kronotri::net {

/// Incremental decoder of journal frames from a byte stream. feed()
/// appends received bytes; next() yields verified payloads one at a
/// time without re-checksumming partial frames (the length prefix gates
/// the CRC pass until a whole candidate frame is buffered).
class FrameReader {
 public:
  enum class Status {
    kFrame,     ///< one verified payload extracted
    kNeedMore,  ///< no complete frame buffered yet
    kCorrupt,   ///< bad magic/length/CRC — the stream is poisoned
  };

  void feed(std::string_view bytes) { buf_.append(bytes); }
  /// One read_some() from `fd` straight into the buffer.
  IoStatus read_from(int fd) { return read_some(fd, buf_); }
  Status next(std::string& payload);
  void reset() { buf_.clear(); }

 private:
  std::string buf_;
};

/// `msg` dumped at indent 0 inside one encoded frame — the unit of
/// transmission for every protocol message.
[[nodiscard]] std::string encode_message(const util::json::Value& msg);
/// One frame around an already-serialized JSON document — for messages
/// that splice stored bytes in verbatim (the service's cached reports).
[[nodiscard]] std::string encode_message(std::string_view json_text);

/// Reads a single-frame fragment file — a worker's output or a journaled
/// unit<u>.frag — and returns the payload: exactly one clean frame,
/// nothing after it, else nullopt (missing/torn/dirty). A checksum is the
/// honest version of "the worker finished its write".
[[nodiscard]] std::optional<std::string> read_frame_file(
    const std::string& path);

/// Protocol version stamped into hello/welcome.
inline constexpr int kProtoVersion = 1;

}  // namespace kronotri::net
