// Parsing and rendering support for aqua_cli, split out of the binary so
// the flag parser and the JSON emitters are unit-testable (see
// tests/tools/cli_support_test.cc).

#ifndef AQUA_TOOLS_CLI_SUPPORT_H_
#define AQUA_TOOLS_CLI_SUPPORT_H_

#include <string>
#include <vector>

#include "aqua/core/engine.h"
#include "aqua/storage/schema.h"

namespace aqua::cli {

/// How --metrics renders the registry after the query.
enum class MetricsFormat { kOff, kText, kJson };

struct CliOptions {
  /// --help: print usage to stdout and exit 0; required flags are waived.
  bool help = false;

  std::string data_path;
  std::string schema_spec;
  std::string mapping_path;
  std::string query;

  /// --failpoint=site:spec (repeatable), applied via fault::Enable before
  /// the query runs; a bad site or spec is a usage error.
  std::vector<std::string> failpoints;
  MappingSemantics mapping_semantics = MappingSemantics::kByTuple;
  AggregateSemantics aggregate_semantics = AggregateSemantics::kRange;
  size_t histogram_bins = 0;
  bool explain = false;

  /// --stats: append a human-readable QueryStats line per answer.
  bool stats = false;
  /// --stats-json: emit one JSON document (answer + stats) on stdout; the
  /// banner moves to stderr so stdout stays machine-parseable.
  bool stats_json = false;
  /// --trace <file>: collect phase spans and write a Chrome trace-event
  /// JSON file (viewable in about:tracing / Perfetto).
  std::string trace_path;
  /// --metrics text|json: dump the metrics registry to stderr after the
  /// query (stderr so it composes with --stats-json's pure-JSON stdout).
  MetricsFormat metrics = MetricsFormat::kOff;

  EngineOptions engine;
};

/// Parses the CLI argument vector (argv[1..]). Every value-taking flag
/// accepts both `--flag value` and `--flag=value`; boolean flags reject an
/// `=value`. Fails on unknown flags and missing required options.
Result<CliOptions> ParseCliArgs(const std::vector<std::string>& args);

/// argc/argv adapter for main().
Result<CliOptions> ParseCliArgs(int argc, char** argv);

/// Parses a "name:type,..." schema spec (types: int64, double, string,
/// date, plus the int/real/text aliases).
Result<Schema> ParseSchemaSpec(const std::string& spec);

/// Schema-stable JSON for one answer: semantics, active value member,
/// approximate/note, and the embedded QueryStats object.
std::string AnswerToJson(const AggregateAnswer& answer);

/// The members of the grouped --stats-json object after "query":
/// `"groups":[{"group":...,"answer":{...}}...]`. By-table groups share the
/// whole query's stats, which lead once as a `"stats"` member and are left
/// out of each answer; a by-tuple group's answer keeps its own.
std::string GroupedToJson(const std::vector<GroupedAnswer>& groups);

}  // namespace aqua::cli

#endif  // AQUA_TOOLS_CLI_SUPPORT_H_
