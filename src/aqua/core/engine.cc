#include "aqua/core/engine.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "aqua/common/check.h"
#include "aqua/common/failpoint.h"
#include "aqua/common/string_util.h"
#include "aqua/core/by_table.h"
#include "aqua/core/cells.h"
#include "aqua/core/merge.h"
#include "aqua/core/nested.h"
#include "aqua/core/shards.h"
#include "aqua/core/tuple_scan.h"
#include "aqua/obs/metrics.h"
#include "aqua/obs/trace.h"
#include "aqua/query/executor.h"
#include "aqua/query/parser.h"

namespace aqua {
namespace {

/// Budget failures that are eligible for graceful degradation. A cancel is
/// a caller decision and is always honoured; kResourceExhausted from the
/// up-front naive guard and kDeadlineExceeded from mid-flight polling both
/// mean "the exact path is too expensive", which is exactly what sampling
/// is for.
bool DegradableFailure(const Status& s) {
  return s.code() == StatusCode::kResourceExhausted ||
         s.code() == StatusCode::kDeadlineExceeded;
}

using Clock = std::chrono::steady_clock;

int64_t ElapsedUs(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               start)
      .count();
}

/// Low-cardinality Figure 6 cell label for metrics, derived from the
/// request rather than the (wordier) Explain text: "by-tuple/SUM/range".
std::string CellLabel(AggregateFunction func, MappingSemantics ms,
                      AggregateSemantics as) {
  return std::string(MappingSemanticsToString(ms)) + '/' +
         std::string(AggregateFunctionToString(func)) + '/' +
         std::string(AggregateSemanticsToString(as));
}

/// One bundle of per-query metrics: queries_total{cell,outcome}, the
/// charged-work counters, and the end-to-end latency histogram.
void RecordQueryMetrics(const std::string& cell, std::string_view outcome,
                        int64_t wall_us, uint64_t steps, uint64_t bytes) {
  auto& registry = obs::MetricsRegistry::Default();
  registry
      .GetCounter("aqua_queries_total",
                  {{"cell", cell}, {"outcome", std::string(outcome)}})
      .Increment();
  if (steps > 0) {
    registry.GetCounter("aqua_steps_charged_total").Increment(steps);
  }
  if (bytes > 0) {
    registry.GetCounter("aqua_bytes_charged_total").Increment(bytes);
  }
  registry.GetHistogram("aqua_answer_latency_us")
      .Observe(static_cast<double>(wall_us));
}

/// Explain-style cell name for the nested form (which Engine::Explain does
/// not cover; QueryStats reuses this naming for nested answers).
std::string NestedCellName(MappingSemantics ms, AggregateSemantics as) {
  if (ms == MappingSemantics::kByTable) {
    return "ByTableNested (evaluate the nested query per candidate), O(l*n)";
  }
  if (as == AggregateSemantics::kRange) {
    return "NestedByTupleRange (interval arithmetic over groups), O(n*m)";
  }
  return "NestedByTuple (enumerate mapping sequences), O(l^n * n)";
}

Result<std::string> ExplainCell(const AggregateQuery& query,
                                MappingSemantics mapping_semantics,
                                AggregateSemantics aggregate_semantics) {
  AQUA_RETURN_NOT_OK(query.Validate());
  if (mapping_semantics == MappingSemantics::kByTable) {
    return std::string("ByTableAggregateQuery (reformulate per candidate, "
                       "execute, CombineResults), O(l) scans = O(l*n)");
  }
  return std::string(FindByTupleCell(query.func, aggregate_semantics).explain);
}

/// ExplainCell's text as QueryStats reports it.
std::string CellName(const AggregateQuery& query, MappingSemantics ms,
                     AggregateSemantics as) {
  Result<std::string> cell = ExplainCell(query, ms, as);
  return cell.ok() ? *std::move(cell) : "unknown";
}

/// The extent fields of QueryStats: wall time and the charged counters.
void SetCharges(QueryStats* stats, int64_t wall_us, const ExecContext& ctx) {
  stats->wall_time_us = wall_us;
  stats->steps = ctx.steps();
  stats->bytes = ctx.bytes();
}

bool Degraded(const AggregateAnswer& answer) { return answer.stats.degraded; }
bool Degraded(const std::vector<GroupedAnswer>&) { return false; }

/// The one tail every Answer* entry point returns through, early returns
/// included, so that every request is counted in aqua_queries_total. On
/// success `stamp(answer, wall_us)` fills the answer's QueryStats; then the
/// query's metrics are recorded with `ctx`'s charges under `outcome` —
/// "degraded" in place of "ok" when the answer was, "error" on failure.
template <typename T, typename Stamp>
Result<T> Finish(Result<T> result, const std::string& cell,
                 Clock::time_point start, const ExecContext& ctx,
                 std::string_view outcome, Stamp&& stamp) {
  const int64_t wall = ElapsedUs(start);
  if (!result.ok()) {
    outcome = "error";
  } else {
    stamp(result.value(), wall);
    if (outcome == "ok" && Degraded(result.value())) outcome = "degraded";
  }
  RecordQueryMetrics(cell, outcome, wall, ctx.steps(), ctx.bytes());
  return result;
}

}  // namespace

Result<AggregateAnswer> Engine::AnswerByTuple(
    const AggregateQuery& query, const PMapping& pmapping,
    const Table& source, AggregateSemantics semantics, RowSpan rows,
    ExecContext* ctx, const exec::ExecPolicy& policy, int shards) const {
  const ByTupleCell& cell = FindByTupleCell(query.func, semantics);
  const size_t num_rows = source.num_rows();
  // Cells without a merge law, tables of one row, and every grouped call
  // run the 1-shard plan: the kernel inline, its partial unmerged.
  const std::vector<RowSpan> plan =
      cell.merge != nullptr && shards > 1 && num_rows > 1
          ? PlanShards(num_rows, shards)
          : std::vector<RowSpan>{rows};

  // The jobs capture two references so std::function stores them inline:
  // a grouped query makes one 1-shard call per group.
  const CellCall call{query, pmapping, source, semantics,
                      rows, ctx, policy, options_.naive};
  const ShardJob exact =
      [&cell, &call](size_t, RowSpan span, ExecContext* shard_ctx,
                     const exec::ExecPolicy& shard_policy)
      -> Result<merge::ShardPartial> {
    CellCall shard = call;
    shard.rows = span;
    shard.ctx = shard_ctx;
    shard.policy = shard_policy;
    AQUA_ASSIGN_OR_RETURN(merge::ShardPartial p, cell.kernel(shard));
    p.rows_covered = span.size(call.source.num_rows());
    return p;
  };
  // The degraded shard job: Monte-Carlo sampling over just this shard's
  // rows, with a per-shard seed so degraded shards draw independent
  // streams, reshaped into the partial the cell's merge law expects.
  const ShardJob sampled =
      [this, &call](size_t s, RowSpan span, ExecContext* shard_ctx,
                    const exec::ExecPolicy& shard_policy)
      -> Result<merge::ShardPartial> {
    const ByTupleCell& cell = FindByTupleCell(call.query.func, call.semantics);
    SamplerOptions sampler = options_.degrade_sampler;
    sampler.seed ^= 0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(s) + 1);
    AQUA_ASSIGN_OR_RETURN(
        SampledAnswer answer,
        ByTupleSampler::Sample(call.query, call.pmapping, call.source, sampler,
                               span, shard_ctx, shard_policy));
    const size_t samples = answer.num_samples;
    merge::ShardPartial p = cell.merge->from_sample(std::move(answer));
    p.rows_covered = span.size(call.source.num_rows());
    p.note = "shard " + std::to_string(s) + " sampled (" +
             std::to_string(samples) + " samples)";
    return p;
  };
  AQUA_ASSIGN_OR_RETURN(
      std::vector<merge::ShardPartial> parts,
      RunShards(plan, num_rows, policy, ctx, exact,
                options_.degrade == DegradePolicy::kSample ? &sampled
                                                           : nullptr));
  if (parts.size() == 1) return cell.finish(std::move(parts[0]));

  // An error here proves a merge-stage failure surfaces as a clean
  // Status, never a half-merged answer.
  AQUA_FAILPOINT("shard/merge");
  const auto merge_start = Clock::now();
  AQUA_ASSIGN_OR_RETURN(merge::ShardPartial merged,
                        cell.merge->merge(parts, ctx));
  AQUA_ASSIGN_OR_RETURN(AggregateAnswer answer,
                        cell.finish(std::move(merged)));
  obs::MetricsRegistry::Default()
      .GetHistogram("aqua_shard_merge_latency_us")
      .Observe(static_cast<double>(ElapsedUs(merge_start)));

  uint64_t degraded = 0;
  std::string degrade_notes;
  for (const merge::ShardPartial& p : parts) {
    if (!p.approximate) continue;
    ++degraded;
    if (!p.note.empty()) {
      if (!degrade_notes.empty()) degrade_notes += "; ";
      degrade_notes += p.note;
    }
  }
  answer.stats.shards = parts.size();
  answer.stats.degraded_shards = degraded;
  if (degraded > 0) {
    const std::string note = std::to_string(degraded) + " of " +
                             std::to_string(parts.size()) +
                             " shards degraded to sampling";
    answer.approximate = true;
    answer.note = degrade_notes.empty() ? note : note + " (" +
                                                     degrade_notes + ")";
    answer.stats.degraded = true;
    answer.stats.degrade_reason = "shard-local degradation: " + note;
    answer.stats.sampler_seed = options_.degrade_sampler.seed;
  }
  return answer;
}

void Engine::FillCommonStats(QueryStats* stats, std::string algorithm,
                             const PMapping& pmapping,
                             MappingSemantics mapping_semantics,
                             AggregateSemantics aggregate_semantics,
                             uint64_t rows) const {
  stats->algorithm = std::move(algorithm);
  stats->mapping_semantics = MappingSemanticsToString(mapping_semantics);
  stats->aggregate_semantics = AggregateSemanticsToString(aggregate_semantics);
  stats->rows = rows;
  stats->mappings = pmapping.size();
  stats->limit_timeout_ms = options_.limits.timeout_ms;
  stats->limit_steps = options_.limits.max_steps;
  stats->limit_bytes = options_.limits.max_bytes;
}

Result<AggregateAnswer> Engine::DegradeToSampling(
    const AggregateQuery& query, const PMapping& pmapping,
    const Table& source, AggregateSemantics semantics,
    const Status& exact_failure, ExecContext* request) const {
  obs::TraceSpan span("Engine::DegradeToSampling");
  // An error here proves the ladder's last rung: when even the degraded
  // pass fails, the caller gets a clean Status, never a crash.
  AQUA_FAILPOINT("core/engine/degrade");
  obs::MetricsRegistry::Default()
      .GetCounter(
          "aqua_degrade_total",
          {{"reason", std::string(StatusCodeToString(exact_failure.code()))}})
      .Increment();
  // The exact pass already spent its step and byte budgets; the degraded
  // pass gets them afresh, so the worst-case work of an Answer call is
  // twice the configured budget. The deadline is the request's, absolute:
  // it bounds both passes together. The sampler truncates gracefully once
  // it has a usable estimate (see SamplerOptions::min_samples_on_budget).
  ExecContext ctx = request->Renewed();
  Result<SampledAnswer> run = ByTupleSampler::Sample(
      query, pmapping, source, options_.degrade_sampler, /*rows=*/{}, &ctx,
      exec::ExecPolicy{options_.threads});
  request->Absorb(ctx);
  AQUA_ASSIGN_OR_RETURN(SampledAnswer sampled, std::move(run));
  std::string note = "degraded to sampling (" + exact_failure.message() +
                     "); " + std::to_string(sampled.num_samples) + " samples";
  if (sampled.truncated) note += " (budget-truncated)";
  AggregateAnswer answer;
  switch (semantics) {
    case AggregateSemantics::kRange:
      answer = AggregateAnswer::MakeRange(sampled.observed_range);
      note += "; observed range is an inner approximation";
      break;
    case AggregateSemantics::kDistribution:
      if (sampled.undefined_samples > 0) {
        return Status::InvalidArgument(
            "degraded sampling: the aggregate was undefined in " +
            std::to_string(sampled.undefined_samples) +
            " samples; no total distribution exists");
      }
      answer = AggregateAnswer::MakeDistribution(std::move(sampled.empirical));
      break;
    case AggregateSemantics::kExpectedValue:
      if (sampled.undefined_samples > 0) {
        return Status::InvalidArgument(
            "degraded sampling: the aggregate was undefined in " +
            std::to_string(sampled.undefined_samples) + " samples");
      }
      answer = AggregateAnswer::MakeExpected(sampled.expected);
      note += "; std error " + FormatDouble(sampled.std_error);
      break;
  }
  answer.approximate = true;
  answer.note = std::move(note);
  answer.stats.degraded = true;
  answer.stats.degrade_reason = exact_failure.ToString();
  answer.stats.samples = sampled.num_samples;
  answer.stats.sampler_seed = options_.degrade_sampler.seed;
  return answer;
}

Result<AggregateAnswer> Engine::Answer(
    const AggregateQuery& query, const PMapping& pmapping, const Table& source,
    MappingSemantics mapping_semantics,
    AggregateSemantics aggregate_semantics, CancellationToken cancel) const {
  obs::TraceSpan span("Engine::Answer");
  const auto start = Clock::now();
  ExecContext ctx(options_.limits, cancel);
  Result<AggregateAnswer> answer = [&]() -> Result<AggregateAnswer> {
    AQUA_RETURN_NOT_OK(query.Validate());
    if (!query.group_by.empty()) {
      return Status::InvalidArgument(
          "grouped query passed to Engine::Answer; use AnswerGrouped");
    }
    if (mapping_semantics == MappingSemantics::kByTable) {
      return ByTable::Answer(query, pmapping, source, aggregate_semantics,
                             &ctx);
    }
    // A degradable request's exact pass may spend only the first half of
    // the deadline, so that the sampler always has the second.
    ExecContext exact_ctx =
        ctx.Renewed(options_.degrade == DegradePolicy::kSample ? 0.5 : 1.0);
    Result<AggregateAnswer> exact = [&]() -> Result<AggregateAnswer> {
      // error(resource-exhausted) here deterministically drives the
      // exact-to-sampler degradation edge without needing a tight budget.
      AQUA_FAILPOINT("core/engine/exact");
      return AnswerByTuple(query, pmapping, source, aggregate_semantics,
                           /*rows=*/{}, &exact_ctx,
                           exec::ExecPolicy{options_.threads},
                           options_.shards);
    }();
    ctx.Absorb(exact_ctx);
    if (exact.ok() || options_.degrade == DegradePolicy::kOff ||
        !DegradableFailure(exact.status())) {
      return exact;
    }
    return DegradeToSampling(query, pmapping, source, aggregate_semantics,
                             exact.status(), &ctx);
  }();
  // The stats cover both passes when degraded: the sampling pass's charges
  // were added to ctx.
  return Finish(std::move(answer),
                CellLabel(query.func, mapping_semantics, aggregate_semantics),
                start, ctx, "ok", [&](AggregateAnswer& a, int64_t wall) {
                  FillCommonStats(&a.stats,
                                  CellName(query, mapping_semantics,
                                           aggregate_semantics),
                                  pmapping, mapping_semantics,
                                  aggregate_semantics, source.num_rows());
                  SetCharges(&a.stats, wall, ctx);
                });
}

Result<AggregateAnswer> Engine::AnswerForcedSample(
    const AggregateQuery& query, const PMapping& pmapping, const Table& source,
    AggregateSemantics aggregate_semantics, const std::string& reason,
    CancellationToken cancel) const {
  obs::TraceSpan span("Engine::AnswerForcedSample");
  const auto start = Clock::now();
  ExecContext ctx(options_.limits, cancel);
  Result<AggregateAnswer> sampled = [&]() -> Result<AggregateAnswer> {
    AQUA_RETURN_NOT_OK(query.Validate());
    if (!query.group_by.empty()) {
      return Status::InvalidArgument(
          "grouped query passed to Engine::AnswerForcedSample; shed grouped "
          "requests with a retryable error instead");
    }
    // Reuse the degrade ladder wholesale: a shed request is a degradation
    // whose "budget failure" was decided before any work ran.
    return DegradeToSampling(query, pmapping, source, aggregate_semantics,
                             Status::ResourceExhausted(reason), &ctx);
  }();
  return Finish(
      std::move(sampled),
      CellLabel(query.func, MappingSemantics::kByTuple, aggregate_semantics),
      start, ctx, "shed", [&](AggregateAnswer& a, int64_t wall) {
        FillCommonStats(&a.stats,
                        CellName(query, MappingSemantics::kByTuple,
                                 aggregate_semantics),
                        pmapping, MappingSemantics::kByTuple,
                        aggregate_semantics, source.num_rows());
        SetCharges(&a.stats, wall, ctx);
      });
}

Result<std::vector<GroupedAnswer>> Engine::AnswerGrouped(
    const AggregateQuery& query, const PMapping& pmapping, const Table& source,
    MappingSemantics mapping_semantics,
    AggregateSemantics aggregate_semantics, CancellationToken cancel) const {
  obs::TraceSpan span("Engine::AnswerGrouped");
  const auto start = Clock::now();
  // One budget covers the whole grouped query.
  ExecContext ctx(options_.limits, cancel);
  Result<std::vector<GroupedAnswer>> grouped =
      [&]() -> Result<std::vector<GroupedAnswer>> {
    AQUA_RETURN_NOT_OK(query.Validate());
    if (query.group_by.empty()) {
      return Status::InvalidArgument(
          "ungrouped query passed to Engine::AnswerGrouped; use Answer");
    }
    if (mapping_semantics == MappingSemantics::kByTable) {
      return ByTable::AnswerGrouped(query, pmapping, source,
                                    aggregate_semantics, &ctx);
    }
    if (query.having.has_value()) {
      return Status::Unimplemented(
          "HAVING under by-tuple semantics would make group membership "
          "probabilistic; use by-table semantics");
    }
    AQUA_ASSIGN_OR_RETURN(
        CertainGroups groups,
        PartitionByCertainGroup(query.group_by, pmapping, source));
    AggregateQuery ungrouped = query;
    ungrouped.group_by.clear();
    // Surface binding errors (unmapped attributes, incomparable literals)
    // once, up front: the per-group loop below treats kInvalidArgument as
    // "this group's aggregate is undefined" and would silently drop every
    // group otherwise.
    AQUA_RETURN_NOT_OK(
        TupleScan::Bind(ungrouped, ungrouped.func, pmapping, source).status());
    // Compute the per-group stats template once: every group runs the same
    // algorithm cell against the same p-mapping.
    QueryStats stats_template;
    FillCommonStats(&stats_template,
                    CellName(ungrouped, mapping_semantics, aggregate_semantics),
                    pmapping, mapping_semantics, aggregate_semantics, 0);
    // ParallelFor splits the remaining budget across groups proportionally
    // to group size (the shares sum exactly to the total), each group
    // charges its own child context, and at the join the children are
    // absorbed back — so the per-group stats are race-free and sum exactly
    // to ctx's totals, serial or concurrent. Groups are the parallel axis;
    // the per-group algorithms run under the serial policy.
    const size_t num_groups = groups.rows.size();
    std::vector<std::optional<GroupedAnswer>> slots(num_groups);
    std::vector<uint64_t> weights(num_groups);
    for (size_t g = 0; g < num_groups; ++g) {
      weights[g] = std::max<uint64_t>(1, groups.rows[g].size());
    }
    AQUA_RETURN_NOT_OK(exec::ParallelFor(
        exec::ExecPolicy{options_.threads}, num_groups, /*chunk_size=*/1,
        &ctx,
        [&](const exec::Chunk& chunk, ExecContext* child) -> Status {
          const size_t g = chunk.begin;
          const auto group_start = Clock::now();
          Result<AggregateAnswer> answer =
              AnswerByTuple(ungrouped, pmapping, source, aggregate_semantics,
                            &groups.rows[g], child, exec::ExecPolicy{},
                            /*shards=*/1);
          if (!answer.ok()) {
            // Groups where the aggregate is undefined under every sequence
            // (no tuple ever satisfies) are omitted, like SQL omits empty
            // groups.
            if (answer.status().code() == StatusCode::kInvalidArgument) {
              return Status::OK();
            }
            return answer.status();
          }
          AggregateAnswer group_answer = std::move(answer).value();
          QueryStats& stats = group_answer.stats;
          stats = stats_template;
          stats.rows = groups.rows[g].size();
          SetCharges(&stats, ElapsedUs(group_start), *child);
          slots[g] = GroupedAnswer{groups.values[g], std::move(group_answer)};
          return Status::OK();
        },
        &weights));
    std::vector<GroupedAnswer> out;
    out.reserve(num_groups);
    // The grouped budget partitions exactly: every step a group charged
    // was carved out of this query's budget and absorbed back at the join,
    // so the per-group stats can never account for more work than the
    // query's own counters (groups omitted as undefined charge but record
    // nothing, hence <=, with equality when no group was omitted).
    uint64_t group_steps = 0;
    for (std::optional<GroupedAnswer>& slot : slots) {
      if (!slot.has_value()) continue;
      group_steps += slot->answer.stats.steps;
      out.push_back(*std::move(slot));
    }
    AQUA_DCHECK(group_steps <= ctx.steps())
        << "per-group stats account for " << group_steps
        << " steps, query charged only " << ctx.steps();
    return out;
  }();
  return Finish(
      std::move(grouped),
      CellLabel(query.func, mapping_semantics, aggregate_semantics), start,
      ctx, "ok", [&](std::vector<GroupedAnswer>& groups, int64_t wall) {
        // By-tuple groups carry their own stats. By-table groups share the
        // l scans, so each reports the whole query's, like its wall time.
        if (mapping_semantics != MappingSemantics::kByTable) return;
        for (GroupedAnswer& g : groups) {
          FillCommonStats(&g.answer.stats,
                          CellName(query, mapping_semantics,
                                   aggregate_semantics),
                          pmapping, mapping_semantics, aggregate_semantics,
                          source.num_rows());
          SetCharges(&g.answer.stats, wall, ctx);
        }
      });
}

Result<AggregateAnswer> Engine::AnswerNested(
    const NestedAggregateQuery& query, const PMapping& pmapping,
    const Table& source, MappingSemantics mapping_semantics,
    AggregateSemantics aggregate_semantics, CancellationToken cancel) const {
  obs::TraceSpan span("Engine::AnswerNested");
  const auto start = Clock::now();
  ExecContext ctx(options_.limits, cancel);
  Result<AggregateAnswer> answer = [&]() -> Result<AggregateAnswer> {
    AQUA_RETURN_NOT_OK(query.Validate());
    if (mapping_semantics == MappingSemantics::kByTable) {
      return ByTable::AnswerNested(query, pmapping, source,
                                   aggregate_semantics, &ctx);
    }
    if (aggregate_semantics == AggregateSemantics::kRange) {
      AQUA_ASSIGN_OR_RETURN(
          Interval r,
          NestedByTuple::Range(query, pmapping, source, &ctx,
                               exec::ExecPolicy{options_.threads}));
      return AggregateAnswer::MakeRange(r);
    }
    AQUA_ASSIGN_OR_RETURN(
        NaiveAnswer naive,
        NestedByTuple::NaiveDist(query, pmapping, source, options_.naive,
                                 &ctx));
    if (aggregate_semantics == AggregateSemantics::kDistribution) {
      AQUA_ASSIGN_OR_RETURN(Distribution d,
                            DefinedDistribution(std::move(naive)));
      return AggregateAnswer::MakeDistribution(std::move(d));
    }
    AQUA_ASSIGN_OR_RETURN(double e, DefinedExpectation(naive));
    return AggregateAnswer::MakeExpected(e);
  }();
  // Nested cells are not covered by Engine::Explain, so the cell name
  // comes from NestedCellName.
  return Finish(
      std::move(answer),
      "nested/" +
          CellLabel(query.outer, mapping_semantics, aggregate_semantics),
      start, ctx, "ok", [&](AggregateAnswer& a, int64_t wall) {
        FillCommonStats(&a.stats,
                        NestedCellName(mapping_semantics, aggregate_semantics),
                        pmapping, mapping_semantics, aggregate_semantics,
                        source.num_rows());
        SetCharges(&a.stats, wall, ctx);
      });
}

Result<std::string> Engine::Explain(
    const AggregateQuery& query, MappingSemantics mapping_semantics,
    AggregateSemantics aggregate_semantics) const {
  AQUA_ASSIGN_OR_RETURN(
      std::string text,
      ExplainCell(query, mapping_semantics, aggregate_semantics));
  if (mapping_semantics == MappingSemantics::kByTuple &&
      options_.degrade == DegradePolicy::kSample) {
    text +=
        "; degrade=sample: on deadline/budget exhaustion the engine "
        "re-answers via Monte-Carlo sampling and flags the answer "
        "approximate";
  }
  return text;
}

Result<AggregateAnswer> Engine::AnswerSql(
    std::string_view sql, const PMapping& pmapping, const Table& source,
    MappingSemantics mapping_semantics,
    AggregateSemantics aggregate_semantics, CancellationToken cancel) const {
  AQUA_ASSIGN_OR_RETURN(ParsedQuery parsed, SqlParser::Parse(sql));
  if (parsed.kind == ParsedQuery::Kind::kNested) {
    return AnswerNested(parsed.nested, pmapping, source, mapping_semantics,
                        aggregate_semantics, cancel);
  }
  if (!parsed.simple.group_by.empty()) {
    return Status::InvalidArgument(
        "grouped SQL statement passed to AnswerSql; use AnswerGroupedSql");
  }
  return Answer(parsed.simple, pmapping, source, mapping_semantics,
                aggregate_semantics, cancel);
}

Result<std::vector<GroupedAnswer>> Engine::AnswerGroupedSql(
    std::string_view sql, const PMapping& pmapping, const Table& source,
    MappingSemantics mapping_semantics,
    AggregateSemantics aggregate_semantics, CancellationToken cancel) const {
  AQUA_ASSIGN_OR_RETURN(AggregateQuery query, SqlParser::ParseSimple(sql));
  return AnswerGrouped(query, pmapping, source, mapping_semantics,
                       aggregate_semantics, cancel);
}

}  // namespace aqua
