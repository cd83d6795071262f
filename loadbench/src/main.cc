// loadbench — end-to-end load benchmark of aquad.
//
//   loadbench --workload scan|dist|small --seed N --seconds S --trace 0|1
//             --work-dir DIR
//
// Generates the workload from the seed, starts the real aquad on it
// (several times, for the set-up time), drives it over loopback in a closed
// loop with two connections, and checks every answer against a reference
// computed in-process. With --trace 1 it then replays the same request
// stream through each layer in-process and reports the per-layer metrics
// instead of the end-to-end ones. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "daemon.h"
#include "latency.h"
#include "load.h"
#include "replay.h"
#include "workloads.h"

namespace loadbench {
namespace {

constexpr int kConnections = 2;
constexpr int kSetupRuns = 9;
constexpr int kWindows = 10;  // spans of the run for qps and p50; most
                              // chunks for p99

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = 0;
  std::string work_dir;
};

bool ParseArgs(int argc, char** argv, Args* out) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        out->workload = value;
      } else if (flag == "--seed") {
        out->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        out->seconds = std::stod(value);
      } else if (flag == "--trace") {
        out->trace = std::stoi(value);
      } else if (flag == "--work-dir") {
        out->work_dir = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !out->workload.empty() && out->seconds > 0 &&
         (out->trace == 0 || out->trace == 1) && !out->work_dir.empty();
}

const std::map<std::string, std::string>& Units() {
  static const auto* units = new std::map<std::string, std::string>{
      {"setup_s", "s"},
      {"qps", "1/s"},
      {"latency_p50_ms", "ms"},
      {"latency_p99_ms", "ms"},
      {"error_rate", "fraction"},
      {"exact_fraction", "fraction"},
      {"deadline_miss_rate", "fraction"},
      {"server_rss_mb", "MB"},
      {"core.engine_us_p50", "us"},
      {"server.overhead_us_p50", "us"},
      {"core.steps_per_query", "count"},
      {"server.response_bytes", "bytes"},
      {"server.shed_fraction", "fraction"},
      {"core.samples_per_degraded", "count"},
      {"loadgen.cpu_per_request_us", "us"},
      {"loadgen.busy_fraction", "fraction"},
      {"loadgen.p99_tail_samples", "count"},
      {"storage.csv_read_s", "s"},
      {"mapping.read_ms", "ms"},
      {"expr.predicate_ns_per_cell", "ns"},
      {"core.dp_ns_per_cell", "ns"},
      {"exec.dp_speedup_t2", "ratio"},
      {"exec.grouped_speedup_t2", "ratio"},
      {"shard.speedup_s4", "ratio"},
  };
  return *units;
}

std::string UnitOf(const std::string& name) {
  const auto it = Units().find(name);
  return it != Units().end() ? it->second : "us";
}

struct RunMetrics {
  /// The end-to-end metrics reported with --trace 0.
  LayerMetrics end_to_end;
  /// error_rate, exact_fraction, deadline_miss_rate: end-to-end in the
  /// report, but exactly 0 (or 1) on a healthy run of scan and small, so
  /// they are reported with the per-layer metrics, which have no bound.
  LayerMetrics rates;
  /// Per-layer metrics read off the load run's responses and the client.
  LayerMetrics load_layers;
  size_t attempted = 0;
  size_t failed = 0;
  double engine_us_p50 = 0;
  Tail tail;
};

double Mean(double sum, size_t n) {
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

RunMetrics Summarize(const Workload& w, const LoadResult& load,
                     double setup_s, double rss_mb) {
  RunMetrics m;
  std::vector<Outcome> outcomes;
  std::vector<double> engine_us, overhead_us;
  std::map<uint32_t, uint64_t> class_steps;
  size_t exact = 0, shed = 0, degraded = 0, ok_bytes = 0;
  double samples_sum = 0;
  for (const Sample& s : load.samples) {
    const RequestClass& c = w.classes[s.cls];
    const bool ok = Succeeded(s.checked.verdict);
    outcomes.push_back({s.latency_ms, ok, c.EffectiveDeadlineMs(), s.done_s});
    if (!ok) continue;
    ok_bytes += s.body_bytes;
    if (s.checked.decision != "admit") ++shed;
    if (s.checked.verdict == Verdict::kExact) {
      ++exact;
      class_steps.emplace(s.cls, s.checked.steps);
    } else {
      ++degraded;
      samples_sum += static_cast<double>(s.checked.samples);
    }
    if (!s.checked.grouped) {
      const double wall = static_cast<double>(s.checked.wall_time_us);
      engine_us.push_back(wall);
      overhead_us.push_back(s.latency_ms * 1e3 - wall);
    }
  }
  m.attempted = load.samples.size();
  m.failed = m.attempted - (exact + degraded);
  const size_t ok = exact + degraded;
  m.tail = SummarizeTail(outcomes, kWindows);
  const Windowed windowed =
      SummarizeWindows(outcomes, load.elapsed_s, kWindows);
  // A failed request is infinitely slow; a percentile that lands on one
  // is reported as the whole run's length.
  auto finite = [&](double ms) {
    return std::isfinite(ms) ? ms : load.elapsed_s * 1e3;
  };
  double steps_sum = 0;
  for (const auto& [cls, steps] : class_steps) {
    steps_sum += static_cast<double>(steps);
  }
  m.engine_us_p50 = engine_us.empty() ? 0.0 : Median(engine_us);
  m.end_to_end = {
      {"setup_s", setup_s},
      {"qps", windowed.qps},
      {"latency_p50_ms", finite(windowed.p50_ms)},
      {"latency_p99_ms", finite(m.tail.p99_ms)},
      {"server_rss_mb", rss_mb},
  };
  m.rates = {
      {"error_rate", Mean(static_cast<double>(m.failed), m.attempted)},
      {"exact_fraction", Mean(static_cast<double>(exact), ok)},
      {"deadline_miss_rate", DeadlineMissRate(outcomes)},
  };
  m.load_layers = {
      {"core.engine_us_p50", m.engine_us_p50},
      {"server.overhead_us_p50",
       overhead_us.empty() ? 0.0 : Median(overhead_us)},
      // Per class, the steps of an exact answer are a fixed count; the
      // mean over classes is therefore fixed unless the work changes.
      {"core.steps_per_query", Mean(steps_sum, class_steps.size())},
      {"server.response_bytes", Mean(static_cast<double>(ok_bytes), ok)},
      {"server.shed_fraction", Mean(static_cast<double>(shed), m.attempted)},
      {"core.samples_per_degraded", Mean(samples_sum, degraded)},
      {"loadgen.cpu_per_request_us", Mean(load.cpu_s * 1e6, m.attempted)},
      {"loadgen.busy_fraction", load.cpu_s / load.elapsed_s},
      {"loadgen.p99_tail_samples", static_cast<double>(m.tail.beyond_p99)},
  };
  return m;
}

void PrintMetrics(const LayerMetrics& metrics) {
  for (const auto& [name, value] : metrics) {
    std::printf("  %-34s %14.6g %s\n", name.c_str(), value,
                UnitOf(name).c_str());
  }
}

void PrintMix(const Workload& w, const LoadResult& load) {
  struct Row {
    size_t classes = 0, exact = 0, approximate = 0, failed = 0;
    uint64_t min_samples = 0;  // fewest samples behind an approximate answer
  };
  std::map<std::string, Row> rows;
  for (const RequestClass& c : w.classes) ++rows[c.group].classes;
  for (const Sample& s : load.samples) {
    Row& r = rows[w.classes[s.cls].group];
    if (s.checked.verdict == Verdict::kExact) {
      ++r.exact;
    } else if (s.checked.verdict == Verdict::kApproximate) {
      r.min_samples = r.approximate == 0
                          ? s.checked.samples
                          : std::min(r.min_samples, s.checked.samples);
      ++r.approximate;
    } else {
      ++r.failed;
    }
  }
  for (const auto& [group, r] : rows) {
    std::printf("  class %-20s %3zu queries, %6zu exact, %6zu approximate "
                "(>= %llu samples), %zu failed\n",
                group.c_str(), r.classes, r.exact, r.approximate,
                static_cast<unsigned long long>(r.min_samples), r.failed);
  }
}

int Run(const Args& args) {
  aqua::Result<Workload> made =
      MakeWorkload(args.workload, args.seed, args.work_dir);
  if (!made.ok()) {
    std::fprintf(stderr, "workload: %s\n", made.status().ToString().c_str());
    return 1;
  }
  const Workload& w = *made;

  DaemonConfig config;
  config.binary = LOADBENCH_AQUAD;
  config.csv_path = w.csv_path;
  config.mapping_path = w.mapping_path;
  config.schema_spec = w.schema_spec;
  config.log_path = args.work_dir + "/aquad.log";
  config.threads = kServerThreads;
  std::vector<double> setup_times;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < kSetupRuns; ++i) {
    if (daemon != nullptr) {
      if (const aqua::Status s = daemon->Stop(); !s.ok()) {
        std::fprintf(stderr, "aquad: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    aqua::Result<std::unique_ptr<Daemon>> started = Daemon::Start(config);
    if (!started.ok()) {
      std::fprintf(stderr, "aquad: %s\n", started.status().ToString().c_str());
      return 1;
    }
    daemon = std::move(started).value();
    setup_times.push_back(daemon->setup_s());
  }

  if (const aqua::Status s = Warmup(w, daemon->port()); !s.ok()) {
    std::fprintf(stderr, "warm-up: %s\n", s.ToString().c_str());
    return 1;
  }
  const LoadResult load =
      RunLoad(w, daemon->port(), args.seconds, kConnections);
  const aqua::Result<double> rss = daemon->PeakRssMb();
  const aqua::Status stopped = daemon->Stop();
  if (!rss.ok() || !stopped.ok()) {
    std::fprintf(stderr, "aquad: %s\n",
                 (rss.ok() ? stopped : rss.status()).ToString().c_str());
    return 1;
  }
  const RunMetrics m = Summarize(w, load, Median(setup_times), *rss);

  std::printf("loadbench workload=%s seed=%llu rows=%zu mappings=%zu "
              "groups=%zu (%s) queries=%zu requests=%zu seconds=%.2f\n",
              w.name.c_str(), static_cast<unsigned long long>(w.seed),
              w.table.num_rows(), w.pmapping.size(), w.distinct_groups,
              w.group_by.c_str(), w.classes.size(), load.samples.size(),
              load.elapsed_s);
  PrintMix(w, load);
  for (const Sample& s : load.samples) {
    if (!Succeeded(s.checked.verdict)) {
      std::fprintf(stderr, "failed: %s -> %s\n",
                   w.classes[s.cls].body.c_str(), s.checked.detail.c_str());
      break;
    }
  }
  std::printf("end to end:\n");
  PrintMetrics(m.end_to_end);
  PrintMetrics(m.rates);
  std::printf("  (latency_p99_ms: median over %zu chunks of >= %zu requests, "
              ">= %zu beyond each chunk's p99)\n",
              m.tail.chunks, m.tail.requests_per_chunk, m.tail.beyond_p99);
  std::printf("per layer (load run):\n");
  PrintMetrics(m.load_layers);
  const double busy = load.cpu_s / load.elapsed_s;
  if (busy > 0.5) {
    std::printf("WARNING: the load generator was busy %.0f%% of one core; "
                "these numbers may measure the client\n",
                busy * 100);
  }

  LayerMetrics reported = m.end_to_end;
  if (args.trace == 1) {
    aqua::Result<LayerMetrics> replay =
        Replay(w, m.engine_us_p50, args.seconds);
    if (!replay.ok()) {
      std::fprintf(stderr, "replay: %s\n", replay.status().ToString().c_str());
      return 1;
    }
    std::printf("per layer (traced replay):\n");
    PrintMetrics(*replay);
    reported = m.rates;
    reported.insert(reported.end(), m.load_layers.begin(),
                    m.load_layers.end());
    reported.insert(reported.end(), replay->begin(), replay->end());
  }

  std::string json = "{\"correct\": " +
                     std::string(m.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(m.attempted) +
                     ", \"failed\": " + std::to_string(m.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < reported.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", reported[i].second);
    json += (i > 0 ? ", \"" : "\"") + reported[i].first +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            UnitOf(reported[i].first) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace loadbench

int main(int argc, char** argv) {
  loadbench::Args args;
  if (!loadbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload scan|dist|small --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR\n",
                 argv[0]);
    return 2;
  }
  return loadbench::Run(args);
}
