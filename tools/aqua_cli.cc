// aqua_cli — run an aggregate query over a CSV source under an uncertain
// schema mapping, from the command line.
//
//   aqua_cli --data bids.csv
//            --schema "transactionID:int64,auction:int64,time:double,
//                      bid:double,currentPrice:double"
//            --mapping matcher_output.pmapping
//            --query "SELECT SUM(price) FROM T2 WHERE auctionId = 34"
//            [--semantics by-tuple] [--answer range|distribution|expected]
//            [--histogram N] [--explain]
//            [--timeout-ms N] [--max-sequences N] [--degrade off|sample]
//            [--stats] [--stats-json] [--trace <file>] [--metrics text|json]
//            [--failpoint site:spec]... [--sampler-seed N]
//
// Every value-taking flag also accepts the `--flag=value` spelling.
//
// Exit codes: 0 = answered; 1 = runtime/query error (bad data file,
// malformed mapping, failed query); 2 = usage error (unknown flag, bad
// flag value, bad --schema spec, bad --failpoint site/spec).
//
// Observability: --stats appends a human-readable per-query stats line;
// --stats-json replaces stdout with one JSON document (answer + stats) and
// moves the banner to stderr; --trace writes a Chrome trace-event file of
// the phase spans; --metrics dumps the metrics registry to stderr.
//
// The mapping file uses the PMappingText format (see
// src/aqua/mapping/serialize.h); the query's FROM relation must be the
// mapping's target relation.

#include <cstdio>
#include <string>

#include "aqua/common/failpoint.h"
#include "aqua/mapping/serialize.h"
#include "aqua/obs/json.h"
#include "aqua/obs/metrics.h"
#include "aqua/obs/trace.h"
#include "aqua/query/parser.h"
#include "aqua/storage/csv.h"
#include "cli_support.h"

namespace {

using namespace aqua;
using cli::CliOptions;

// Exit codes, documented in --help: usage mistakes are distinguishable
// from runtime failures so scripts can tell "fix the invocation" from
// "fix the data/query".
constexpr int kExitOk = 0;
constexpr int kExitRuntime = 1;
constexpr int kExitUsage = 2;

void PrintUsage(std::FILE* out, const char* argv0) {
  std::fprintf(
      out,
      "usage: %s --data <csv> --schema \"name:type,...\" --mapping "
      "<pmapping.txt> --query \"SELECT ...\"\n"
      "          [--semantics by-table|by-tuple]\n"
      "          [--answer range|distribution|expected]\n"
      "          [--histogram <bins>] [--explain]\n"
      "          [--timeout-ms <ms>] [--max-sequences <n>]\n"
      "          [--degrade off|sample] [--sampler-seed <n>]\n"
      "          [--threads <n>] [--shards <n>]\n"
      "          [--stats] [--stats-json] [--trace <file>]\n"
      "          [--metrics text|json]\n"
      "          [--failpoint <site>:<spec>]... [--help]\n"
      "types: int64, double, string, date\n"
      "all value flags also accept --flag=value\n"
      "--threads: 0 = hardware concurrency (default), 1 = serial; the\n"
      "answer is identical at every setting\n"
      "--shards: in-process fault domains for the by-tuple pass (default 1\n"
      "= off); fault-free answers are identical at every setting, shard\n"
      "failures degrade locally (see stats degraded_shards)\n"
      "--failpoint: arm a fault-injection site, e.g.\n"
      "  --failpoint=storage/csv/read-file:once*error(unavailable)\n"
      "(repeatable; the AQUA_FAILPOINTS env var uses site=spec;... form)\n"
      "--sampler-seed: RNG seed of the degraded-mode Monte-Carlo sampler\n"
      "exit codes: 0 = answered, 1 = runtime/query error, 2 = usage error\n",
      argv0);
}

int Usage(const char* argv0) {
  PrintUsage(stderr, argv0);
  return kExitUsage;
}

/// Installs the trace sink for the scope of the query run and writes the
/// file on the way out (including error paths).
class ScopedTrace {
 public:
  explicit ScopedTrace(std::string path) : path_(std::move(path)) {
    if (!path_.empty()) obs::InstallTraceSink(&sink_);
  }
  ~ScopedTrace() {
    if (path_.empty()) return;
    obs::UninstallTraceSink();
    const Status written = sink_.WriteFile(path_);
    if (written.ok()) {
      std::fprintf(stderr, "trace: wrote %zu spans to %s\n", sink_.size(),
                   path_.c_str());
    } else {
      std::fprintf(stderr, "trace: %s\n", written.ToString().c_str());
    }
  }

 private:
  const std::string path_;
  obs::TraceSink sink_;
};

void DumpMetrics(cli::MetricsFormat format) {
  if (format == cli::MetricsFormat::kOff) return;
  const auto& registry = obs::MetricsRegistry::Default();
  const std::string rendered = format == cli::MetricsFormat::kText
                                   ? registry.RenderPrometheusText()
                                   : registry.RenderJson();
  std::fprintf(stderr, "%s", rendered.c_str());
  if (!rendered.empty() && rendered.back() != '\n') std::fprintf(stderr, "\n");
}

int RunCli(const CliOptions& options) {
  // A malformed --schema spec is a mistake in the invocation, not in the
  // data on disk, so it exits 2 like any other bad flag value.
  const auto schema = cli::ParseSchemaSpec(options.schema_spec);
  if (!schema.ok()) {
    std::fprintf(stderr, "schema: %s\n", schema.status().ToString().c_str());
    return kExitUsage;
  }
  const auto table = Csv::ReadFile(options.data_path, *schema);
  if (!table.ok()) {
    std::fprintf(stderr, "data: %s\n", table.status().ToString().c_str());
    return kExitRuntime;
  }
  const auto schema_mapping = PMappingText::ReadSchemaFile(options.mapping_path);
  if (!schema_mapping.ok()) {
    std::fprintf(stderr, "mapping: %s\n",
                 schema_mapping.status().ToString().c_str());
    return kExitRuntime;
  }
  if (schema_mapping->size() != 1) {
    std::fprintf(stderr,
                 "mapping: expected exactly one pmapping block, got %zu\n",
                 schema_mapping->size());
    return kExitRuntime;
  }
  const PMapping& pmapping_value = schema_mapping->mapping(0);
  const PMapping* pmapping = &pmapping_value;

  const Engine engine(options.engine);
  // In --stats-json mode stdout carries exactly one JSON document, so the
  // human-facing banner moves to stderr.
  std::fprintf(options.stats_json ? stderr : stdout,
               "loaded %zu rows; %zu candidate mappings (%s => %s)\n",
               table->num_rows(), pmapping->size(),
               pmapping->source_relation().c_str(),
               pmapping->target_relation().c_str());

  if (options.explain) {
    const auto parsed = SqlParser::Parse(options.query);
    if (parsed.ok() && parsed->kind == ParsedQuery::Kind::kSimple) {
      const auto plan =
          engine.Explain(parsed->simple, options.mapping_semantics,
                         options.aggregate_semantics);
      std::fprintf(options.stats_json ? stderr : stdout, "plan: %s\n",
                   plan.ok() ? plan->c_str()
                             : plan.status().ToString().c_str());
    }
  }

  ScopedTrace trace(options.trace_path);

  // Ungrouped/nested first, then grouped.
  const auto answer =
      engine.AnswerSql(options.query, *pmapping, *table,
                       options.mapping_semantics, options.aggregate_semantics);
  if (answer.ok()) {
    if (options.stats_json) {
      std::printf("{\"query\":\"%s\",\"answer\":%s}\n",
                  obs::JsonEscape(options.query).c_str(),
                  cli::AnswerToJson(*answer).c_str());
    } else {
      std::printf("%s\n", answer->ToString().c_str());
      if (options.stats) {
        std::printf("stats: %s\n", answer->stats.ToString().c_str());
      }
      if (options.histogram_bins > 0 &&
          answer->semantics == AggregateSemantics::kDistribution) {
        const auto bins =
            answer->distribution.ToHistogram(options.histogram_bins);
        if (bins.ok()) {
          for (const auto& b : *bins) {
            const int width = static_cast<int>(b.mass * 60);
            std::printf("[%10.4g, %10.4g) %6.3f %s\n", b.low, b.high, b.mass,
                        std::string(static_cast<size_t>(width), '#').c_str());
          }
        }
      }
    }
    DumpMetrics(options.metrics);
    return kExitOk;
  }
  const bool was_grouped_shape =
      answer.status().message().find("use AnswerGroupedSql") !=
      std::string::npos;
  const auto grouped = engine.AnswerGroupedSql(
      options.query, *pmapping, *table, options.mapping_semantics,
      options.aggregate_semantics);
  if (grouped.ok()) {
    if (options.stats_json) {
      std::printf("{\"query\":\"%s\",%s}\n",
                  obs::JsonEscape(options.query).c_str(),
                  cli::GroupedToJson(*grouped).c_str());
    } else {
      for (const GroupedAnswer& g : *grouped) {
        std::printf("%-14s %s\n", g.group.ToString().c_str(),
                    g.answer.ToString().c_str());
        if (options.stats) {
          std::printf("  stats: %s\n", g.answer.stats.ToString().c_str());
        }
      }
    }
    DumpMetrics(options.metrics);
    return kExitOk;
  }
  // Report the error from whichever path matched the statement's shape.
  std::fprintf(stderr, "query: %s\n",
               was_grouped_shape ? grouped.status().ToString().c_str()
                                 : answer.status().ToString().c_str());
  DumpMetrics(options.metrics);
  return kExitRuntime;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = cli::ParseCliArgs(argc, argv);
  if (!options.ok()) {
    std::fprintf(stderr, "%s\n", options.status().ToString().c_str());
    return Usage(argv[0]);
  }
  if (options->help) {
    PrintUsage(stdout, argv[0]);
    return kExitOk;
  }
  const Status env_faults = fault::ConfigureFromEnv();
  if (!env_faults.ok()) {
    std::fprintf(stderr, "AQUA_FAILPOINTS: %s\n",
                 env_faults.ToString().c_str());
    return kExitUsage;
  }
  for (const std::string& fp : options->failpoints) {
    const size_t colon = fp.find(':');
    const Status armed =
        fault::Enable(fp.substr(0, colon), fp.substr(colon + 1));
    if (!armed.ok()) {
      std::fprintf(stderr, "--failpoint=%s: %s\n", fp.c_str(),
                   armed.ToString().c_str());
      return kExitUsage;
    }
  }
  return RunCli(*options);
}
