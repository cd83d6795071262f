#include "aqua/core/nested.h"

#include <algorithm>
#include <optional>

#include "aqua/common/check.h"
#include "aqua/core/cells.h"
#include "aqua/core/tuple_scan.h"
#include "aqua/obs/trace.h"
#include "aqua/query/executor.h"

namespace aqua {

Result<CertainGroups> PartitionByCertainGroup(const std::string& group_by,
                                              const PMapping& pmapping,
                                              const Table& source) {
  if (!pmapping.IsCertainTarget(group_by)) {
    return Status::Unimplemented(
        "by-tuple grouped aggregation requires a certain GROUP BY "
        "attribute; '" +
        group_by + "' maps differently across candidate mappings");
  }
  AQUA_ASSIGN_OR_RETURN(std::string source_attr,
                        pmapping.mapping(0).SourceFor(group_by));
  AQUA_ASSIGN_OR_RETURN(size_t col, source.schema().IndexOf(source_attr));
  AQUA_ASSIGN_OR_RETURN(GroupIndex index, GroupIndex::Build(source, col));
  CertainGroups groups;
  groups.values = index.group_values();
  groups.rows.resize(index.num_groups());
  for (size_t r = 0; r < source.num_rows(); ++r) {
    groups.rows[index.row_groups()[r]].push_back(static_cast<uint32_t>(r));
  }
  return groups;
}

Result<Interval> NestedByTuple::Range(const NestedAggregateQuery& query,
                                      const PMapping& pmapping,
                                      const Table& source, ExecContext* ctx,
                                      const exec::ExecPolicy& policy) {
  obs::TraceSpan span("NestedByTuple::Range");
  AQUA_RETURN_NOT_OK(query.Validate());
  AQUA_ASSIGN_OR_RETURN(
      CertainGroups partition,
      PartitionByCertainGroup(query.inner.group_by, pmapping, source));
  const std::vector<std::vector<uint32_t>>& groups = partition.rows;

  AggregateQuery inner = query.inner;
  inner.group_by.clear();
  AQUA_ASSIGN_OR_RETURN(
      TupleScan scan, TupleScan::Bind(inner, inner.func, pmapping, source));
  // The inner aggregate's by-tuple range cell, run once per group.
  const ByTupleCell& range_cell =
      FindByTupleCell(inner.func, AggregateSemantics::kRange);
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
                                       AggregateSemantics::kRange, &rows,
                                       child, exec::ExecPolicy{},
                                       /*naive=*/{}}));
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
  AQUA_ASSIGN_OR_RETURN(
      CertainGroups partition,
      PartitionByCertainGroup(query.inner.group_by, pmapping, source));
  AggregateQuery inner = query.inner;
  inner.group_by.clear();
  AQUA_ASSIGN_OR_RETURN(
      TupleMappingGrid grid,
      BuildTupleMappingGrid(inner, pmapping, source, /*rows=*/{}));
  // Row -> group id for the per-sequence grouped fold.
  std::vector<uint32_t> row_group(grid.n);
  for (size_t g = 0; g < partition.rows.size(); ++g) {
    for (uint32_t r : partition.rows[g]) {
      row_group[r] = static_cast<uint32_t>(g);
    }
  }
  std::vector<AggregateFold> folds(partition.rows.size());
  std::vector<double> group_values;
  return EnumerateSequences(
      grid, options, ctx, [&](const std::vector<size_t>& seq) {
        std::fill(folds.begin(), folds.end(), AggregateFold{});
        for (size_t i = 0; i < grid.n; ++i) {
          if (grid.Sat(i, seq[i])) {
            folds[row_group[i]].Add(grid.Val(i, seq[i]));
          }
        }
        // A group with no qualifying tuple vanishes in this sequence.
        group_values.clear();
        for (const AggregateFold& fold : folds) {
          if (fold.count > 0) group_values.push_back(*fold.Finish(inner.func));
        }
        return Executor::Fold(query.outer, group_values);
      });
}

}  // namespace aqua
