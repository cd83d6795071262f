#include "replay.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>

#include "aqua/core/by_table.h"
#include "aqua/core/by_tuple_count.h"
#include "aqua/core/by_tuple_minmax.h"
#include "aqua/core/by_tuple_sum.h"
#include "aqua/core/engine.h"
#include "aqua/core/sampler.h"
#include "aqua/expr/predicate.h"
#include "aqua/mapping/serialize.h"
#include "aqua/obs/json.h"
#include "aqua/query/parser.h"
#include "aqua/reformulate/reformulator.h"
#include "aqua/server/http.h"
#include "aqua/server/json.h"
#include "aqua/storage/csv.h"
#include "latency.h"

namespace loadbench {
namespace {

using aqua::AggregateFunction;
using aqua::AggregateQuery;
using aqua::AggregateSemantics;
using aqua::MappingSemantics;
using aqua::Result;
using aqua::Status;
using Clock = std::chrono::steady_clock;

/// Kernels absent from a workload's mix are timed on a probe over at most
/// this many rows, so a quadratic kernel stays affordable on `scan`.
constexpr size_t kProbeRows = 10000;

constexpr Kernel kAllKernels[] = {
    Kernel::kRangeCount,   Kernel::kRangeSum,    Kernel::kRangeAvg,
    Kernel::kRangeMinMax,  Kernel::kExpectedSum, Kernel::kExpectedCount,
    Kernel::kByTable,      Kernel::kCountDist,   Kernel::kMinMaxDist,
    Kernel::kSampler};

volatile size_t g_sink = 0;  // keeps timed loops from being optimised away

double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Times `fn` in microseconds; fails when `fn` does.
template <typename Fn>
Result<double> TimeUs(Fn&& fn) {
  const auto start = Clock::now();
  const Status s = fn();
  const double us = Us(Clock::now() - start);
  if (!s.ok()) return s;
  return us;
}

template <typename T>
Status StatusOf(const Result<T>& r) {
  return r.ok() ? Status::OK() : r.status();
}

/// Calls the kernel entry point of `kernel` with default ctx arguments.
Status CallKernel(Kernel kernel, const AggregateQuery& q,
                  AggregateSemantics semantics, const Workload& w,
                  const std::vector<uint32_t>* rows) {
  const aqua::PMapping& pm = w.pmapping;
  const aqua::Table& t = w.table;
  const bool min = q.func == AggregateFunction::kMin;
  switch (kernel) {
    case Kernel::kRangeCount:
      return StatusOf(aqua::ByTupleCount::Range(q, pm, t, rows));
    case Kernel::kRangeSum:
      return StatusOf(aqua::ByTupleSum::RangeSum(q, pm, t, rows));
    case Kernel::kRangeAvg:
      return StatusOf(aqua::ByTupleSum::RangeAvgExact(q, pm, t, rows));
    case Kernel::kRangeMinMax:
      return StatusOf(min ? aqua::ByTupleMinMax::RangeMin(q, pm, t, rows)
                          : aqua::ByTupleMinMax::RangeMax(q, pm, t, rows));
    case Kernel::kExpectedSum:
      return StatusOf(aqua::ByTupleSum::ExpectedSumLinear(q, pm, t, rows));
    case Kernel::kExpectedCount:
      return StatusOf(aqua::ByTupleCount::Expected(q, pm, t, rows));
    case Kernel::kByTable:
      return StatusOf(aqua::ByTable::Answer(q, pm, t, semantics));
    case Kernel::kCountDist:
      return StatusOf(aqua::ByTupleCount::Dist(q, pm, t, rows));
    case Kernel::kMinMaxDist:
      if (semantics == AggregateSemantics::kExpectedValue) {
        return StatusOf(min ? aqua::ByTupleMinMax::ExpectedMin(q, pm, t, rows)
                            : aqua::ByTupleMinMax::ExpectedMax(q, pm, t, rows));
      }
      return StatusOf(min ? aqua::ByTupleMinMax::DistMin(q, pm, t, rows)
                          : aqua::ByTupleMinMax::DistMax(q, pm, t, rows));
    case Kernel::kSampler:
      return StatusOf(aqua::ByTupleSampler::Sample(q, pm, t, {}, rows));
    case Kernel::kNone:
      break;
  }
  return Status::InvalidArgument("no kernel");
}

/// The response body aquad renders for an answer (service.cc's OkBody /
/// OkGroupedBody), serialised as the HTTP response.
std::string Render(const Result<aqua::AggregateAnswer>* answer,
                   const Result<std::vector<aqua::GroupedAnswer>>* groups) {
  std::string body = "{\"ok\":true," +
                     aqua::obs::JsonString("decision", "admit");
  if (answer != nullptr) {
    body += ",\"answer\":" + aqua::server::RenderAnswer(**answer) +
            ",\"stats\":" + (*answer)->stats.ToJson();
  } else {
    body += ",\"groups\":[";
    for (size_t i = 0; i < (*groups)->size(); ++i) {
      const aqua::GroupedAnswer& g = (**groups)[i];
      if (i > 0) body += ',';
      body += "{" + aqua::obs::JsonString("group", g.group.ToString()) +
              ",\"answer\":" + aqua::server::RenderAnswer(g.answer) +
              ",\"stats\":" + g.answer.stats.ToJson() + '}';
    }
    body += ']';
  }
  body += '}';
  return aqua::server::SerializeHttpResponse(200, "application/json", body);
}

/// The engine aquad runs a request with: its --threads and the request's
/// deadline and step budget, degrading to the sampler on overrun.
aqua::Engine ServiceEngine(const RequestClass& c) {
  aqua::EngineOptions options;
  options.threads = kServerThreads;
  options.limits.timeout_ms = c.EffectiveDeadlineMs();
  options.limits.max_steps = c.max_steps;
  options.degrade = aqua::DegradePolicy::kSample;
  return aqua::Engine(options);
}

/// A query for probing `kernel`: the WHERE clause of the workload's first
/// ungrouped by-tuple class, with the aggregate the kernel answers.
AggregateQuery ProbeQuery(const Workload& w, Kernel kernel) {
  AggregateQuery q = w.classes.front().query;
  for (const RequestClass& c : w.classes) {
    if (!c.grouped() && c.mapping == MappingSemantics::kByTuple) {
      q = c.query;
      break;
    }
  }
  q.group_by.clear();
  q.distinct = false;
  q.attribute = w.attribute;
  switch (kernel) {
    case Kernel::kRangeCount:
    case Kernel::kExpectedCount:
    case Kernel::kCountDist:
    case Kernel::kByTable:
      q.func = AggregateFunction::kCount;
      q.attribute.clear();
      break;
    case Kernel::kRangeAvg:
      q.func = AggregateFunction::kAvg;
      break;
    case Kernel::kRangeMinMax:
    case Kernel::kMinMaxDist:
      q.func = AggregateFunction::kMax;
      break;
    default:
      q.func = AggregateFunction::kSum;
  }
  return q;
}

AggregateSemantics ProbeSemantics(Kernel kernel) {
  switch (kernel) {
    case Kernel::kExpectedSum:
    case Kernel::kExpectedCount:
      return AggregateSemantics::kExpectedValue;
    case Kernel::kCountDist:
    case Kernel::kMinMaxDist:
    case Kernel::kSampler:
      return AggregateSemantics::kDistribution;
    default:
      return AggregateSemantics::kRange;
  }
}

/// Median over `reps` alternating runs of time(a) / time(b).
template <typename A, typename B>
Result<double> SpeedupRatio(int reps, A&& a, B&& b) {
  std::vector<double> ratios;
  for (int i = 0; i < reps; ++i) {
    AQUA_ASSIGN_OR_RETURN(const double ta, TimeUs(a));
    AQUA_ASSIGN_OR_RETURN(const double tb, TimeUs(b));
    ratios.push_back(ta / tb);
  }
  return Median(ratios);
}

}  // namespace

Result<LayerMetrics> Replay(const Workload& w, double engine_us_p50,
                            double budget_s) {
  std::map<std::string, std::vector<double>> samples;
  auto record = [&](const std::string& name, double v) {
    samples[name].push_back(v);
  };
  // `n` is the number of rows the kernel ran over.
  auto record_kernel = [&](Kernel k, double us, size_t n) {
    record("core.kernel_us." + std::string(KernelName(k)), us);
    if (k == Kernel::kCountDist) {
      const double cells = static_cast<double>(n) * (n + 1) / 2;
      record("core.dp_ns_per_cell", us * 1e3 / cells);
    }
  };

  // Start-up layers, timed on the files aquad loads.
  for (int i = 0; i < 3; ++i) {
    AQUA_ASSIGN_OR_RETURN(const double us, TimeUs([&] {
      return StatusOf(aqua::Csv::ReadFile(w.csv_path, w.table.schema()));
    }));
    record("storage.csv_read_s", us * 1e-6);
  }
  for (int i = 0; i < 5; ++i) {
    AQUA_ASSIGN_OR_RETURN(const double us, TimeUs([&] {
      return StatusOf(aqua::PMappingText::ReadSchemaFile(w.mapping_path));
    }));
    record("mapping.read_ms", us * 1e-3);
  }

  // The request stream, in order, through each layer.
  const size_t rows = w.table.num_rows();
  const size_t mappings = w.pmapping.size();
  std::set<uint32_t> seen;
  bool sampled = false;
  std::vector<double> replay_engine_us;
  const auto start = Clock::now();
  for (size_t i = 0;; ++i) {
    const double elapsed = Us(Clock::now() - start) * 1e-6;
    if (elapsed >= budget_s ||
        (elapsed >= 1.0 && seen.size() == w.classes.size())) {
      break;
    }
    const uint32_t cls = w.stream[i % w.stream.size()];
    const RequestClass& c = w.classes[cls];
    seen.insert(cls);

    Result<aqua::server::HttpRequest> http = Status::Internal("unset");
    AQUA_ASSIGN_OR_RETURN(double us, TimeUs([&] {
      http = aqua::server::ParseHttpRequest(c.request);
      return StatusOf(http);
    }));
    record("server.http_parse_us", us);
    AQUA_ASSIGN_OR_RETURN(us, TimeUs([&] {
      return StatusOf(aqua::server::FlatJson::Parse(http->body));
    }));
    record("server.json_parse_us", us);
    Result<aqua::ParsedQuery> parsed = Status::Internal("unset");
    AQUA_ASSIGN_OR_RETURN(us, TimeUs([&] {
      parsed = aqua::SqlParser::Parse(c.sql);
      return StatusOf(parsed);
    }));
    record("query.sql_parse_us", us);

    AggregateQuery ungrouped = parsed->simple;
    ungrouped.group_by.clear();
    AQUA_ASSIGN_OR_RETURN(us, TimeUs([&] {
      return StatusOf(
          aqua::Reformulator::BindAll(ungrouped, w.pmapping, w.table));
    }));
    record("reformulate.bind_us", us);

    if (ungrouped.where != nullptr) {
      AQUA_ASSIGN_OR_RETURN(us, TimeUs([&]() -> Status {
        size_t matched = 0;
        for (size_t j = 0; j < mappings; ++j) {
          AQUA_ASSIGN_OR_RETURN(
              AggregateQuery q,
              aqua::Reformulator::Reformulate(ungrouped, w.pmapping.mapping(j)));
          AQUA_ASSIGN_OR_RETURN(
              aqua::BoundPredicate p,
              aqua::BoundPredicate::Bind(q.where, w.table.schema()));
          for (size_t r = 0; r < rows; ++r) matched += p.Matches(w.table, r);
        }
        g_sink = g_sink + matched;
        return Status::OK();
      }));
      record("expr.predicate_ns_per_cell",
             us * 1e3 / static_cast<double>(rows * mappings));
    }

    double kernel_us = -1;
    if (c.kernel != Kernel::kNone && !(c.kernel == Kernel::kSampler && sampled)) {
      AQUA_ASSIGN_OR_RETURN(kernel_us, TimeUs([&] {
        return CallKernel(c.kernel, parsed->simple, c.semantics, w, nullptr);
      }));
      record_kernel(c.kernel, kernel_us, rows);
      // One default-size sampler run costs seconds; once per replay.
      sampled = sampled || c.kernel == Kernel::kSampler;
    }

    const aqua::Engine engine = ServiceEngine(c);
    Result<aqua::AggregateAnswer> answer = Status::Internal("unset");
    Result<std::vector<aqua::GroupedAnswer>> groups = Status::Internal("unset");
    AQUA_ASSIGN_OR_RETURN(const double engine_us, TimeUs([&] {
      if (c.grouped()) {
        groups = engine.AnswerGrouped(parsed->simple, w.pmapping, w.table,
                                      c.mapping, c.semantics);
        return StatusOf(groups);
      }
      answer = engine.Answer(parsed->simple, w.pmapping, w.table, c.mapping,
                             c.semantics);
      return StatusOf(answer);
    }));
    if (!c.grouped()) {
      replay_engine_us.push_back(engine_us);
      // The engine runs the DP and the sampler on two threads, the timed
      // kernel call on one; their difference is not engine overhead.
      if (kernel_us >= 0 && !answer->approximate &&
          c.kernel != Kernel::kCountDist && c.kernel != Kernel::kSampler) {
        record("core.engine_self_us", engine_us - kernel_us);
      }
    }
    AQUA_ASSIGN_OR_RETURN(us, TimeUs([&] {
      g_sink = g_sink + Render(c.grouped() ? nullptr : &answer,
                               c.grouped() ? &groups : nullptr)
                            .size();
      return Status::OK();
    }));
    record("server.render_us", us);
  }

  // Kernels the mix does not exercise, on a probe query.
  std::vector<uint32_t> probe_rows;
  const std::vector<uint32_t>* probe = nullptr;
  if (rows > kProbeRows) {
    for (uint32_t r = 0; r < kProbeRows; ++r) probe_rows.push_back(r);
    probe = &probe_rows;
  }
  for (Kernel k : kAllKernels) {
    const std::string name = "core.kernel_us." + std::string(KernelName(k));
    if (samples.count(name) > 0) continue;
    AQUA_ASSIGN_OR_RETURN(const double us, TimeUs([&] {
      return CallKernel(k, ProbeQuery(w, k), ProbeSemantics(k), w, probe);
    }));
    record_kernel(k, us, probe != nullptr ? kProbeRows : rows);
  }

  // Parallel mechanisms, each at two settings on the same work.
  const AggregateQuery dp_query = ProbeQuery(w, Kernel::kCountDist);
  AQUA_ASSIGN_OR_RETURN(
      const double dp_speedup,
      SpeedupRatio(
          3,
          [&] {
            return StatusOf(aqua::ByTupleCount::Dist(
                dp_query, w.pmapping, w.table, probe, nullptr,
                aqua::exec::ExecPolicy{1}));
          },
          [&] {
            return StatusOf(aqua::ByTupleCount::Dist(
                dp_query, w.pmapping, w.table, probe, nullptr,
                aqua::exec::ExecPolicy{2}));
          }));

  AggregateQuery grouped_query = ProbeQuery(w, Kernel::kRangeCount);
  grouped_query.group_by = w.group_by;
  MappingSemantics grouped_mapping = MappingSemantics::kByTuple;
  AggregateSemantics grouped_semantics = AggregateSemantics::kRange;
  for (const RequestClass& c : w.classes) {
    if (c.grouped()) {
      grouped_query = c.query;
      grouped_mapping = c.mapping;
      grouped_semantics = c.semantics;
      break;
    }
  }
  auto grouped_at = [&](int threads) {
    return [&, threads] {
      aqua::EngineOptions options;
      options.threads = threads;
      return StatusOf(aqua::Engine(options).AnswerGrouped(
          grouped_query, w.pmapping, w.table, grouped_mapping,
          grouped_semantics));
    };
  };
  AQUA_ASSIGN_OR_RETURN(const double grouped_speedup,
                        SpeedupRatio(3, grouped_at(1), grouped_at(2)));

  // Sharding on the ungrouped by-tuple classes that have an exact answer.
  std::vector<const RequestClass*> shardable;
  for (const RequestClass& c : w.classes) {
    if (!c.grouped() && c.mapping == MappingSemantics::kByTuple &&
        c.reference.exact_answer.has_value() && shardable.size() < 6) {
      shardable.push_back(&c);
    }
  }
  auto sharded_at = [&](int shards) {
    return [&, shards]() -> Status {
      aqua::EngineOptions options;
      options.threads = kServerThreads;
      options.shards = shards;
      const aqua::Engine engine(options);
      for (const RequestClass* c : shardable) {
        AQUA_RETURN_NOT_OK(StatusOf(engine.Answer(
            c->query, w.pmapping, w.table, c->mapping, c->semantics)));
      }
      return Status::OK();
    };
  };
  AQUA_ASSIGN_OR_RETURN(const double shard_speedup,
                        SpeedupRatio(2, sharded_at(1), sharded_at(4)));

  LayerMetrics out;
  for (const char* name :
       {"storage.csv_read_s", "mapping.read_ms", "server.http_parse_us",
        "server.json_parse_us", "query.sql_parse_us", "reformulate.bind_us",
        "expr.predicate_ns_per_cell"}) {
    out.emplace_back(name, Median(samples[name]));
  }
  for (Kernel k : kAllKernels) {
    const std::string name = "core.kernel_us." + std::string(KernelName(k));
    out.emplace_back(name, Median(samples[name]));
  }
  out.emplace_back("core.dp_ns_per_cell", Median(samples["core.dp_ns_per_cell"]));
  out.emplace_back("core.engine_self_us",
                   samples.count("core.engine_self_us") > 0
                       ? Median(samples["core.engine_self_us"])
                       : 0.0);
  out.emplace_back("server.render_us", Median(samples["server.render_us"]));
  out.emplace_back("exec.dp_speedup_t2", dp_speedup);
  out.emplace_back("exec.grouped_speedup_t2", grouped_speedup);
  out.emplace_back("shard.speedup_s4", shard_speedup);
  out.emplace_back("trace.engine_gap_us",
                   Median(replay_engine_us) - engine_us_p50);
  return out;
}

}  // namespace loadbench
