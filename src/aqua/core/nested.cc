#include "aqua/core/nested.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "aqua/common/check.h"
#include "aqua/core/cells.h"
#include "aqua/core/tuple_scan.h"
#include "aqua/obs/trace.h"
#include "aqua/query/executor.h"

namespace aqua {
namespace {

/// Resolves the (certain) inner GROUP BY attribute and partitions rows by
/// group.
Result<std::vector<std::vector<uint32_t>>> PartitionByGroup(
    const NestedAggregateQuery& query, const PMapping& pmapping,
    const Table& source) {
  const std::string& group_attr = query.inner.group_by;
  if (!pmapping.IsCertainTarget(group_attr)) {
    return Status::Unimplemented(
        "by-tuple nested aggregation requires a certain GROUP BY attribute; "
        "'" +
        group_attr + "' maps differently across candidate mappings");
  }
  AQUA_ASSIGN_OR_RETURN(std::string source_attr,
                        pmapping.mapping(0).SourceFor(group_attr));
  AQUA_ASSIGN_OR_RETURN(size_t col, source.schema().IndexOf(source_attr));
  AQUA_ASSIGN_OR_RETURN(GroupIndex index, GroupIndex::Build(source, col));
  std::vector<std::vector<uint32_t>> groups(index.num_groups());
  for (size_t r = 0; r < source.num_rows(); ++r) {
    groups[index.row_groups()[r]].push_back(static_cast<uint32_t>(r));
  }
  return groups;
}

}  // namespace

Result<Interval> NestedByTuple::Range(const NestedAggregateQuery& query,
                                      const PMapping& pmapping,
                                      const Table& source, ExecContext* ctx,
                                      const exec::ExecPolicy& policy) {
  obs::TraceSpan span("NestedByTuple::Range");
  AQUA_RETURN_NOT_OK(query.Validate());
  AQUA_ASSIGN_OR_RETURN(std::vector<std::vector<uint32_t>> groups,
                        PartitionByGroup(query, pmapping, source));

  AggregateQuery inner = query.inner;
  inner.group_by.clear();
  AQUA_ASSIGN_OR_RETURN(
      TupleScan scan, TupleScan::Bind(inner, inner.func, pmapping, source));
  // The inner aggregate's by-tuple range cell, run once per group.
  const EngineOptions options;
  const ByTupleCell& range_cell =
      FindByTupleCell(inner.func, AggregateSemantics::kRange, options);
  // One task per group; slot g stays empty when group g never qualifies
  // under any sequence. The parent's remaining budget is split across
  // groups proportionally to group size.
  std::vector<std::optional<Interval>> slots(groups.size());
  std::vector<uint64_t> weights(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    weights[g] = std::max<uint64_t>(1, groups[g].size());
  }
  AQUA_RETURN_NOT_OK(exec::ParallelFor(
      policy, groups.size(), /*chunk_size=*/1, ctx,
      [&](const exec::Chunk& chunk, ExecContext* child) -> Status {
        const size_t g = chunk.begin;
        const std::vector<uint32_t>& rows = groups[g];
        // Precondition: no group may vanish under any sequence. A group is
        // safe iff it has a tuple satisfying the inner condition under all
        // mappings. This loop does not fold over `scan.Run`: it stops at
        // the first mandatory tuple and charges only the rows it visited,
        // where Run charges the whole span up front.
        bool has_mandatory = false;
        bool has_any = false;
        for (uint32_t r : rows) {
          AQUA_RETURN_NOT_OK(ExecCharge(child, scan.num_mappings()));
          bool all = true;
          bool any = false;
          for (size_t j = 0; j < scan.num_mappings(); ++j) {
            if (scan.Satisfies(j, r)) {
              any = true;
            } else {
              all = false;
            }
          }
          has_any = has_any || any;
          if (all) {
            has_mandatory = true;
            break;
          }
        }
        if (!has_any) return Status::OK();
        if (!has_mandatory) {
          return Status::Unimplemented(
              "by-tuple nested range: a group can vanish under some mapping "
              "sequence, which makes the outer aggregate non-monotone; no "
              "exact PTIME method is implemented for this case");
        }
        AQUA_ASSIGN_OR_RETURN(
            merge::ShardPartial inner_range,
            range_cell.kernel(CellCall{inner, pmapping, source,
                                       AggregateSemantics::kRange, options,
                                       &rows, child, exec::ExecPolicy{}}));
        slots[g] = inner_range.range;
        return Status::OK();
      },
      &weights));
  std::vector<double> lows, highs;
  for (const std::optional<Interval>& slot : slots) {
    if (!slot.has_value()) continue;
    lows.push_back(slot->low);
    highs.push_back(slot->high);
  }
  if (lows.empty()) {
    return Status::InvalidArgument(
        "nested aggregate is undefined: no group qualifies");
  }
  const std::optional<double> low = Executor::Fold(query.outer, lows);
  const std::optional<double> high = Executor::Fold(query.outer, highs);
  if (!low.has_value() || !high.has_value()) {
    return Status::Internal("outer fold returned no value");
  }
  // The per-group inner ranges are ordered, and MIN/MAX/AVG-style outer
  // folds are monotone, so the folded endpoints must stay ordered too.
  AQUA_CHECK_INTERVAL(*low, *high) << "(nested outer fold)";
  return Interval{*low, *high};
}

Result<NaiveAnswer> NestedByTuple::NaiveDist(const NestedAggregateQuery& query,
                                             const PMapping& pmapping,
                                             const Table& source,
                                             const NaiveOptions& options,
                                             ExecContext* ctx) {
  obs::TraceSpan span("NestedByTuple::NaiveDist");
  AQUA_RETURN_NOT_OK(query.Validate());
  AQUA_ASSIGN_OR_RETURN(std::vector<std::vector<uint32_t>> group_rows,
                        PartitionByGroup(query, pmapping, source));
  AggregateQuery inner = query.inner;
  inner.group_by.clear();
  AQUA_ASSIGN_OR_RETURN(
      TupleMappingGrid grid,
      BuildTupleMappingGrid(inner, pmapping, source, /*rows=*/{}));
  const size_t n = grid.n;
  const size_t m = grid.m;
  double log_sequences =
      static_cast<double>(n) * std::log2(static_cast<double>(m));
  if (m == 1) log_sequences = 0.0;
  if (log_sequences >
      std::log2(static_cast<double>(options.max_sequences)) + 1e-9) {
    return Status::ResourceExhausted(
        "naive nested enumeration would visit " + std::to_string(m) + "^" +
        std::to_string(n) + " sequences, over the budget");
  }
  AQUA_RETURN_NOT_OK(ExecCheckNow(ctx));

  // Row -> group id for the per-sequence grouped fold.
  std::vector<int32_t> row_group(n, -1);
  for (size_t g = 0; g < group_rows.size(); ++g) {
    for (uint32_t r : group_rows[g]) row_group[r] = static_cast<int32_t>(g);
  }

  NaiveAnswer answer;
  std::vector<size_t> seq(n, 0);
  struct GroupAcc {
    int64_t count = 0;
    double sum = 0.0, mn = 0.0, mx = 0.0;
  };
  std::vector<GroupAcc> accs(group_rows.size());
  while (true) {
    AQUA_RETURN_NOT_OK(ExecCharge(ctx, 1));
    double prob = 1.0;
    for (auto& a : accs) a = GroupAcc{};
    for (size_t i = 0; i < n; ++i) {
      const size_t j = seq[i];
      prob *= grid.prob[j];
      if (!grid.Sat(i, j)) continue;
      GroupAcc& a = accs[row_group[i]];
      const double v = grid.Val(i, j);
      ++a.count;
      a.sum += v;
      if (a.count == 1) {
        a.mn = a.mx = v;
      } else {
        a.mn = std::min(a.mn, v);
        a.mx = std::max(a.mx, v);
      }
    }
    std::vector<double> group_values;
    for (const GroupAcc& a : accs) {
      if (a.count == 0) continue;  // group vanished in this sequence
      switch (inner.func) {
        case AggregateFunction::kCount:
          group_values.push_back(static_cast<double>(a.count));
          break;
        case AggregateFunction::kSum:
          group_values.push_back(a.sum);
          break;
        case AggregateFunction::kAvg:
          group_values.push_back(a.sum / static_cast<double>(a.count));
          break;
        case AggregateFunction::kMin:
          group_values.push_back(a.mn);
          break;
        case AggregateFunction::kMax:
          group_values.push_back(a.mx);
          break;
      }
    }
    const std::optional<double> outcome =
        Executor::Fold(query.outer, group_values);
    if (outcome.has_value()) {
      answer.distribution.AddMass(*outcome, prob);
    } else {
      answer.undefined_mass += prob;
    }
    size_t pos = 0;
    while (pos < n && ++seq[pos] == m) {
      seq[pos] = 0;
      ++pos;
    }
    if (pos == n) break;
  }
  return answer;
}

}  // namespace aqua
