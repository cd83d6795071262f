#ifndef AQUA_CORE_NESTED_H_
#define AQUA_CORE_NESTED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "aqua/common/exec_context.h"
#include "aqua/common/interval.h"
#include "aqua/core/naive.h"
#include "aqua/exec/parallel.h"
#include "aqua/mapping/p_mapping.h"
#include "aqua/query/ast.h"
#include "aqua/storage/table.h"

namespace aqua {

/// The rows of a table partitioned by a certain GROUP BY attribute.
struct CertainGroups {
  std::vector<Value> values;                // group value, by group id
  std::vector<std::vector<uint32_t>> rows;  // ascending row ids, by group id
};

/// Partitions `source` by the target attribute `group_by`, numbering groups
/// in order of first appearance (as GroupIndex does). By-tuple grouping
/// needs the attribute certain — mapped identically by every candidate —
/// or group membership itself would be probabilistic (kUnimplemented).
Result<CertainGroups> PartitionByCertainGroup(const std::string& group_by,
                                              const PMapping& pmapping,
                                              const Table& source);

/// By-tuple evaluation of the paper's nested form (its query Q2) — part of
/// the future work the paper sketches in §VII, implemented here.
class NestedByTuple {
 public:
  /// Exact by-tuple/range answer.
  ///
  /// Strategy: mapping choices for tuples of different groups are
  /// independent, and the outer aggregate (AVG/SUM/MIN/MAX/COUNT) is
  /// monotone in each per-group value, so the nested range is the outer
  /// aggregate applied to the per-group lower bounds and upper bounds
  /// respectively. Preconditions, checked and reported as kUnimplemented
  /// when violated:
  ///  * the inner GROUP BY attribute is *certain* under the p-mapping, so
  ///    the grouping itself is not probabilistic;
  ///  * every group contains at least one tuple satisfying the inner
  ///    condition under all mappings (otherwise a sequence can make the
  ///    group vanish, and the outer aggregate ranges over a varying set).
  /// `policy` runs the per-group inner ranges as one parallel task per
  /// group; the answer is identical at every thread count.
  static Result<Interval> Range(const NestedAggregateQuery& query,
                                const PMapping& pmapping, const Table& source,
                                ExecContext* ctx = nullptr,
                                const exec::ExecPolicy& policy = {});

  /// Exhaustive by-tuple distribution of the nested answer: enumerates
  /// mapping sequences and evaluates the full nested query per sequence.
  /// Exponential; guarded by `options.max_sequences`. Sequences where the
  /// outer aggregate is undefined (every group empty) contribute to
  /// `undefined_mass`.
  static Result<NaiveAnswer> NaiveDist(const NestedAggregateQuery& query,
                                       const PMapping& pmapping,
                                       const Table& source,
                                       const NaiveOptions& options = {},
                                       ExecContext* ctx = nullptr);
};

}  // namespace aqua

#endif  // AQUA_CORE_NESTED_H_
