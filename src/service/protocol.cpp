#include "service/protocol.hpp"

#include <cstdio>

#include "net/framing.hpp"
#include "util/json.hpp"

namespace kronotri::service {

std::string error_frame(std::string_view code, std::string_view message) {
  using util::json::Value;
  Value err = Value::object();
  err.set("code", code);
  err.set("message", message);
  Value v = Value::object();
  v.set("ok", false);
  v.set("error", std::move(err));
  return net::encode_message(v);
}

std::string report_frame(std::string_view cache_disposition,
                         std::uint64_t plan_hash, double queue_wait_s,
                         double execute_s, std::string_view report_json) {
  using util::json::Value;
  // Everything except the report goes through the Value writer; the report
  // is spliced verbatim so cached bytes replay exactly.
  Value head = Value::object();
  head.set("ok", true);
  head.set("cache", cache_disposition);
  // Hex string, not a JSON number: 64-bit hashes with the high bit set
  // survive every client-side JSON parser this way.
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(plan_hash));
  head.set("plan_hash", hex);
  head.set("queue_wait_s", queue_wait_s);
  head.set("execute_s", execute_s);
  std::string out = head.dump_string(0);
  // "{…}" → "{…,\"report\":<splice>}"
  out.pop_back();
  out += ",\"report\":";
  out += report_json;
  out += "}";
  return net::encode_message(std::string_view(out));
}

}  // namespace kronotri::service
