#ifndef AQUA_QUERY_EXECUTOR_H_
#define AQUA_QUERY_EXECUTOR_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "aqua/common/result.h"
#include "aqua/query/ast.h"
#include "aqua/storage/table.h"

namespace aqua {

/// Dense group assignment for a GROUP BY column: every row is labelled with
/// a group id in [0, num_groups). NULL group values form their own group
/// (SQL semantics). Groups are numbered in order of first appearance.
///
/// This index is shared by the deterministic executor and the grouped
/// variants of the by-tuple algorithms (which run one instance of the
/// per-tuple recurrence per group).
class GroupIndex {
 public:
  /// Builds the index over column `column` of `table`.
  static Result<GroupIndex> Build(const Table& table, size_t column);

  size_t num_groups() const { return group_values_.size(); }

  /// Group id of each row.
  const std::vector<int32_t>& row_groups() const { return row_groups_; }

  /// Representative value of each group (index = group id).
  const std::vector<Value>& group_values() const { return group_values_; }

 private:
  std::vector<int32_t> row_groups_;
  std::vector<Value> group_values_;
};

/// The one per-value aggregate rule: COUNT, SUM, running MIN and MAX over
/// the values added so far, finished with SQL's empty-set cases. The
/// executor folds each group with it; the naive enumerator and the sampler
/// fold each mapping sequence with it. Trivially copyable, so a fresh fold
/// per sequence or per sample costs four stores.
struct AggregateFold {
  int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  void Add(double v) {
    ++count;
    sum += v;
    min = count == 1 ? v : std::min(min, v);
    max = count == 1 ? v : std::max(max, v);
  }

  /// The aggregate's value, or nullopt where SQL makes it NULL: AVG, MIN
  /// and MAX of nothing. COUNT of nothing is 0 and — a deviation from SQL
  /// — so is SUM, matching the paper's ByTupleRangeSUM (its Figure 4
  /// returns [0, 0] when nothing satisfies) so that by-table and by-tuple
  /// semantics agree on the edge case and Theorem 4 holds without caveats.
  std::optional<double> Finish(AggregateFunction func) const {
    switch (func) {
      case AggregateFunction::kCount:
        return static_cast<double>(count);
      case AggregateFunction::kSum:
        return sum;
      case AggregateFunction::kAvg:
        if (count == 0) return std::nullopt;
        return sum / static_cast<double>(count);
      case AggregateFunction::kMin:
        if (count == 0) return std::nullopt;
        return min;
      case AggregateFunction::kMax:
        if (count == 0) return std::nullopt;
        return max;
    }
    return std::nullopt;
  }
};

static_assert(std::is_trivially_copyable_v<AggregateFold>);

/// `AggregateFold` behind SQL's DISTINCT filter: the executor's fold of one
/// group, and by-table's fold of one candidate mapping.
class Accumulator {
 public:
  Accumulator(AggregateFunction func, bool distinct)
      : func_(func), distinct_(distinct) {}

  void Add(double v) {
    if (distinct_ && !seen_.insert(v).second) return;
    fold_.Add(v);
  }

  /// Adds `values[i]` for each of the `n` rows whose `sat[i]` is 1, in
  /// order: `Finish` then gives the bits that `Add` on each would.
  void AddSelected(const uint8_t* sat, const double* values, size_t n);

  /// Counts a row for COUNT(*) (no attribute value involved).
  void AddRow() { ++fold_.count; }

  std::optional<double> Finish() const { return fold_.Finish(func_); }

 private:
  AggregateFunction func_;
  bool distinct_;
  AggregateFold fold_;
  std::unordered_set<double> seen_;
};

/// Deterministic (certain-schema) aggregate evaluation. Grouped and nested
/// by-table queries call it once per candidate mapping — the role
/// PostgreSQL played in the paper's prototype.
///
/// SQL niceties honoured: the aggregate skips NULL attribute values,
/// COUNT(*) counts rows, DISTINCT dedupes values, empty input yields NULL
/// (represented as std::nullopt) for SUM/AVG/MIN/MAX and 0 for COUNT.
class Executor {
 public:
  /// One per-group answer of a grouped aggregate.
  struct GroupResult {
    Value group;
    double value;
  };

  /// Executes an ungrouped query against `table` (which *is* the FROM
  /// relation; relation-name resolution happens a layer above).
  static Result<std::optional<double>> ExecuteScalar(const AggregateQuery& q,
                                                     const Table& table);

  /// Executes a grouped query; results appear in group-first-seen order.
  /// Groups whose aggregate is NULL (all values null) are omitted.
  static Result<std::vector<GroupResult>> ExecuteGrouped(
      const AggregateQuery& q, const Table& table);

  /// Executes the nested form: the inner grouped query, then the outer
  /// aggregate over the per-group values.
  static Result<std::optional<double>> ExecuteNested(
      const NestedAggregateQuery& q, const Table& table);

  /// Folds `func` over `values` with SQL empty-input semantics.
  static std::optional<double> Fold(AggregateFunction func,
                                    const std::vector<double>& values);
};

}  // namespace aqua

#endif  // AQUA_QUERY_EXECUTOR_H_
