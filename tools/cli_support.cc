#include "cli_support.h"

#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "aqua/common/string_util.h"
#include "aqua/obs/json.h"

namespace aqua::cli {
namespace {

Result<int64_t> ParseInt64(const std::string& flag, const std::string& v) {
  try {
    size_t pos = 0;
    const int64_t parsed = std::stoll(v, &pos);
    if (pos != v.size()) throw std::invalid_argument(v);
    return parsed;
  } catch (const std::exception&) {
    return Status::InvalidArgument(flag + " expects an integer, got '" + v +
                                   "'");
  }
}

Result<uint64_t> ParseUint64(const std::string& flag, const std::string& v) {
  try {
    size_t pos = 0;
    const uint64_t parsed = std::stoull(v, &pos);
    if (pos != v.size() || (!v.empty() && v[0] == '-')) {
      throw std::invalid_argument(v);
    }
    return parsed;
  } catch (const std::exception&) {
    return Status::InvalidArgument(flag + " expects a non-negative integer, "
                                   "got '" + v + "'");
  }
}

/// JSON number rendering that round-trips doubles and never emits the
/// non-JSON tokens inf/nan (those become null).
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

Result<CliOptions> ParseCliArgs(const std::vector<std::string>& args) {
  CliOptions o;
  for (size_t i = 0; i < args.size(); ++i) {
    // Uniform `--flag=value` support: split once here so every flag below
    // accepts both spellings.
    std::string name = args[i];
    std::optional<std::string> inline_value;
    if (StartsWith(name, "--")) {
      const size_t eq = name.find('=');
      if (eq != std::string::npos) {
        inline_value = name.substr(eq + 1);
        name.resize(eq);
      }
    }
    auto next = [&]() -> Result<std::string> {
      if (inline_value.has_value()) return *inline_value;
      if (i + 1 >= args.size()) {
        return Status::InvalidArgument("missing value for " + name);
      }
      return args[++i];
    };
    auto boolean = [&]() -> Status {
      if (inline_value.has_value()) {
        return Status::InvalidArgument(name + " takes no value");
      }
      return Status::OK();
    };
    if (name == "--help" || name == "-h") {
      o.help = true;
      return o;  // everything else is ignored; required flags are waived
    } else if (name == "--data") {
      AQUA_ASSIGN_OR_RETURN(o.data_path, next());
    } else if (name == "--schema") {
      AQUA_ASSIGN_OR_RETURN(o.schema_spec, next());
    } else if (name == "--mapping") {
      AQUA_ASSIGN_OR_RETURN(o.mapping_path, next());
    } else if (name == "--query") {
      AQUA_ASSIGN_OR_RETURN(o.query, next());
    } else if (name == "--semantics") {
      AQUA_ASSIGN_OR_RETURN(std::string v, next());
      if (v == "by-table") {
        o.mapping_semantics = MappingSemantics::kByTable;
      } else if (v == "by-tuple") {
        o.mapping_semantics = MappingSemantics::kByTuple;
      } else {
        return Status::InvalidArgument("unknown --semantics '" + v + "'");
      }
    } else if (name == "--answer") {
      AQUA_ASSIGN_OR_RETURN(std::string v, next());
      if (v == "range") {
        o.aggregate_semantics = AggregateSemantics::kRange;
      } else if (v == "distribution") {
        o.aggregate_semantics = AggregateSemantics::kDistribution;
      } else if (v == "expected") {
        o.aggregate_semantics = AggregateSemantics::kExpectedValue;
      } else {
        return Status::InvalidArgument("unknown --answer '" + v + "'");
      }
    } else if (name == "--histogram") {
      AQUA_ASSIGN_OR_RETURN(std::string v, next());
      AQUA_ASSIGN_OR_RETURN(uint64_t bins, ParseUint64(name, v));
      o.histogram_bins = static_cast<size_t>(bins);
    } else if (name == "--explain") {
      AQUA_RETURN_NOT_OK(boolean());
      o.explain = true;
    } else if (name == "--stats") {
      AQUA_RETURN_NOT_OK(boolean());
      o.stats = true;
    } else if (name == "--stats-json") {
      AQUA_RETURN_NOT_OK(boolean());
      o.stats_json = true;
    } else if (name == "--trace") {
      AQUA_ASSIGN_OR_RETURN(o.trace_path, next());
    } else if (name == "--metrics") {
      AQUA_ASSIGN_OR_RETURN(std::string v, next());
      if (v == "text") {
        o.metrics = MetricsFormat::kText;
      } else if (v == "json") {
        o.metrics = MetricsFormat::kJson;
      } else {
        return Status::InvalidArgument("unknown --metrics '" + v +
                                       "' (expected text|json)");
      }
    } else if (name == "--timeout-ms") {
      AQUA_ASSIGN_OR_RETURN(std::string v, next());
      AQUA_ASSIGN_OR_RETURN(o.engine.limits.timeout_ms, ParseInt64(name, v));
      if (o.engine.limits.timeout_ms <= 0) {
        return Status::InvalidArgument("--timeout-ms must be positive");
      }
    } else if (name == "--max-sequences") {
      AQUA_ASSIGN_OR_RETURN(std::string v, next());
      AQUA_ASSIGN_OR_RETURN(o.engine.naive.max_sequences,
                            ParseUint64(name, v));
    } else if (name == "--threads") {
      AQUA_ASSIGN_OR_RETURN(std::string v, next());
      AQUA_ASSIGN_OR_RETURN(const int64_t threads, ParseInt64(name, v));
      if (threads < 0) {
        return Status::InvalidArgument(
            "--threads must be >= 0 (0 = hardware concurrency)");
      }
      o.engine.threads = static_cast<int>(threads);
    } else if (name == "--shards") {
      AQUA_ASSIGN_OR_RETURN(std::string v, next());
      AQUA_ASSIGN_OR_RETURN(const int64_t shards, ParseInt64(name, v));
      if (shards < 1) {
        return Status::InvalidArgument("--shards must be >= 1 (1 = off)");
      }
      o.engine.shards = static_cast<int>(shards);
    } else if (name == "--failpoint") {
      AQUA_ASSIGN_OR_RETURN(std::string v, next());
      if (v.find(':') == std::string::npos) {
        return Status::InvalidArgument("--failpoint expects site:spec, got '" +
                                       v + "'");
      }
      o.failpoints.push_back(std::move(v));
    } else if (name == "--sampler-seed") {
      AQUA_ASSIGN_OR_RETURN(std::string v, next());
      AQUA_ASSIGN_OR_RETURN(o.engine.degrade_sampler.seed,
                            ParseUint64(name, v));
    } else if (name == "--degrade") {
      AQUA_ASSIGN_OR_RETURN(std::string v, next());
      if (v == "off") {
        o.engine.degrade = DegradePolicy::kOff;
      } else if (v == "sample") {
        o.engine.degrade = DegradePolicy::kSample;
      } else {
        return Status::InvalidArgument("unknown --degrade '" + v +
                                       "' (expected off|sample)");
      }
    } else {
      return Status::InvalidArgument("unknown flag '" + args[i] + "'");
    }
  }
  if (o.data_path.empty() || o.schema_spec.empty() ||
      o.mapping_path.empty() || o.query.empty()) {
    return Status::InvalidArgument(
        "--data, --schema, --mapping, and --query are all required");
  }
  return o;
}

Result<CliOptions> ParseCliArgs(int argc, char** argv) {
  return ParseCliArgs(std::vector<std::string>(argv + 1, argv + argc));
}

Result<Schema> ParseSchemaSpec(const std::string& spec) {
  std::vector<Attribute> attrs;
  for (std::string_view item : Split(spec, ',')) {
    item = Trim(item);
    if (item.empty()) continue;
    const size_t colon = item.find(':');
    if (colon == std::string_view::npos) {
      return Status::InvalidArgument("schema item '" + std::string(item) +
                                     "' is not name:type");
    }
    const std::string name(Trim(item.substr(0, colon)));
    const std::string type = ToLower(Trim(item.substr(colon + 1)));
    ValueType vt;
    if (type == "int64" || type == "int") {
      vt = ValueType::kInt64;
    } else if (type == "double" || type == "real") {
      vt = ValueType::kDouble;
    } else if (type == "string" || type == "text") {
      vt = ValueType::kString;
    } else if (type == "date") {
      vt = ValueType::kDate;
    } else {
      return Status::InvalidArgument("unknown type '" + type + "'");
    }
    attrs.push_back(Attribute{name, vt});
  }
  return Schema::Make(std::move(attrs));
}

namespace {

/// `AnswerToJson` without its stats member and closing brace.
std::string AnswerMembersJson(const AggregateAnswer& answer) {
  std::string out = "{";
  out += obs::JsonString("semantics",
                         AggregateSemanticsToString(answer.semantics));
  switch (answer.semantics) {
    case AggregateSemantics::kRange:
      out += ",\"range\":{\"low\":" + JsonNumber(answer.range.low) +
             ",\"high\":" + JsonNumber(answer.range.high) + '}';
      break;
    case AggregateSemantics::kDistribution: {
      out += ",\"distribution\":[";
      bool first = true;
      for (const Distribution::Entry& e : answer.distribution.entries()) {
        if (!first) out += ',';
        first = false;
        out += '[' + JsonNumber(e.outcome) + ',' + JsonNumber(e.prob) + ']';
      }
      out += ']';
      break;
    }
    case AggregateSemantics::kExpectedValue:
      out += ",\"expected\":" + JsonNumber(answer.expected_value);
      break;
  }
  out += std::string(",\"approximate\":") +
         (answer.approximate ? "true" : "false");
  out += ',' + obs::JsonString("note", answer.note);
  return out;
}

}  // namespace

std::string AnswerToJson(const AggregateAnswer& answer) {
  return AnswerMembersJson(answer) + ",\"stats\":" + answer.stats.ToJson() +
         '}';
}

std::string GroupedToJson(const std::vector<GroupedAnswer>& groups) {
  // By-table groups come from one pass over the table and carry its stats,
  // the same in every group: print them once.
  const bool shared = !groups.empty() &&
                      groups[0].answer.stats.mapping_semantics ==
                          MappingSemanticsToString(MappingSemantics::kByTable);
  std::string out;
  if (shared) out += "\"stats\":" + groups[0].answer.stats.ToJson() + ',';
  out += "\"groups\":[";
  for (size_t i = 0; i < groups.size(); ++i) {
    if (i > 0) out += ',';
    const AggregateAnswer& answer = groups[i].answer;
    out += "{" + obs::JsonString("group", groups[i].group.ToString()) +
           ",\"answer\":" +
           (shared ? AnswerMembersJson(answer) + '}' : AnswerToJson(answer)) +
           '}';
  }
  out += ']';
  return out;
}

}  // namespace aqua::cli
