// Wire protocol of the kronotri analysis service.
//
// The service speaks the agents' wire format over a unix-domain stream
// socket: every request and every response is one JSON object in one
// CRC-64 frame, sent with net::encode_message and read with
// net::FrameReader. net/framing.hpp lists the request and response
// messages next to the agent ones.
//
// Error codes: bad_request, queue_full, over_budget, draining,
// execution_failed. Responses on one connection come back in request
// order (the connection is handled serially server-side). Bytes that are
// not a frame get one bad_request response, then the server hangs up: a
// corrupt stream cannot resync. A valid frame whose payload is not a JSON
// object gets bad_request and the connection keeps serving.
//
// The cached-report splice: a hit response embeds the report EXACTLY as the
// bytes serialized when the job first executed (string splice, no
// re-parse), so "deterministic result cache" is a byte-level guarantee the
// CI can assert with a diff, not a semantic one.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace kronotri::service {

/// {"ok":false,"error":{"code":code,"message":message}} as a ready frame.
[[nodiscard]] std::string error_frame(std::string_view code,
                                      std::string_view message);

/// Successful submit response frame with `report_json` (an
/// already-serialized RunReport document) spliced in verbatim.
[[nodiscard]] std::string report_frame(std::string_view cache_disposition,
                                       std::uint64_t plan_hash,
                                       double queue_wait_s, double execute_s,
                                       std::string_view report_json);

}  // namespace kronotri::service
