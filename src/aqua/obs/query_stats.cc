#include "aqua/obs/query_stats.h"

#include "aqua/obs/json.h"

namespace aqua {
namespace {

std::string FormatWall(int64_t us) {
  char buf[32];
  if (us >= 1000000) {
    std::snprintf(buf, sizeof(buf), "%.3gs", static_cast<double>(us) / 1e6);
  } else if (us >= 1000) {
    std::snprintf(buf, sizeof(buf), "%.3gms", static_cast<double>(us) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%lldus", static_cast<long long>(us));
  }
  return buf;
}

}  // namespace

std::string QueryStats::ToString() const {
  std::string out = "algorithm=\"" + algorithm + "\" semantics=" +
                    mapping_semantics + '/' + aggregate_semantics +
                    " wall=" + FormatWall(wall_time_us) +
                    " steps=" + std::to_string(steps) +
                    " bytes=" + std::to_string(bytes) +
                    " rows=" + std::to_string(rows) +
                    " mappings=" + std::to_string(mappings);
  if (limit_timeout_ms > 0 || limit_steps > 0 || limit_bytes > 0) {
    out += " limits=" + std::to_string(limit_timeout_ms) + "ms/" +
           std::to_string(limit_steps) + "steps/" +
           std::to_string(limit_bytes) + "bytes";
  }
  if (shards > 0) {
    out += " shards=" + std::to_string(shards) +
           " degraded_shards=" + std::to_string(degraded_shards);
  }
  if (samples > 0) {
    out += " samples=" + std::to_string(samples) +
           " sampler_seed=" + std::to_string(sampler_seed);
  }
  if (degraded) out += " degraded (" + degrade_reason + ")";
  return out;
}

std::string QueryStats::ToJson() const {
  std::string out = "{";
  out += obs::JsonString("algorithm", algorithm);
  out += ',' + obs::JsonString("mapping_semantics", mapping_semantics);
  out += ',' + obs::JsonString("aggregate_semantics", aggregate_semantics);
  out += ",\"wall_time_us\":" + std::to_string(wall_time_us);
  out += ",\"steps\":" + std::to_string(steps);
  out += ",\"bytes\":" + std::to_string(bytes);
  out += ",\"rows\":" + std::to_string(rows);
  out += ",\"mappings\":" + std::to_string(mappings);
  out += ",\"limit_timeout_ms\":" + std::to_string(limit_timeout_ms);
  out += ",\"limit_steps\":" + std::to_string(limit_steps);
  out += ",\"limit_bytes\":" + std::to_string(limit_bytes);
  out += ",\"samples\":" + std::to_string(samples);
  out += ",\"sampler_seed\":" + std::to_string(sampler_seed);
  out += std::string(",\"degraded\":") + (degraded ? "true" : "false");
  out += ',' + obs::JsonString("degrade_reason", degrade_reason);
  out += ",\"shards\":" + std::to_string(shards);
  out += ",\"degraded_shards\":" + std::to_string(degraded_shards);
  out += '}';
  return out;
}

}  // namespace aqua
