#ifndef AQUA_CORE_BY_TUPLE_COUNT_H_
#define AQUA_CORE_BY_TUPLE_COUNT_H_

#include <cstdint>
#include <vector>

#include "aqua/common/exec_context.h"
#include "aqua/common/interval.h"
#include "aqua/core/row_span.h"
#include "aqua/exec/parallel.h"
#include "aqua/mapping/p_mapping.h"
#include "aqua/prob/distribution.h"
#include "aqua/query/ast.h"
#include "aqua/storage/table.h"

namespace aqua {

/// The paper's PTIME COUNT algorithms under the by-tuple semantics.
///
/// Every entry point takes an optional `rows` span (one shard's range or
/// one group's ids); the default is every row. The query
/// must be `COUNT(*)` or `COUNT(A)` without DISTINCT (COUNT DISTINCT under
/// by-tuple has no known PTIME algorithm and is rejected).
class ByTupleCount {
 public:
  /// `ByTupleRangeCOUNT` (paper Figure 2): one pass over the tuples;
  /// a tuple satisfying the condition under every mapping raises both
  /// bounds, one satisfying under at least one mapping raises only the
  /// upper bound. O(n*m).
  static Result<Interval> Range(const AggregateQuery& query,
                                const PMapping& pmapping, const Table& source,
                                RowSpan rows = {},
                                ExecContext* ctx = nullptr);

  /// `ByTuplePDCOUNT` (paper Figure 3): dynamic program over the count
  /// distribution — after tuple i the count is c or c+1. The paper's
  /// O(m*n + n^2) is what its Figure 9 shows going intractable around 50k
  /// tuples. Here tuples with occurrence probability exactly 1 become a
  /// count offset, those at exactly 0 drop out, and the n' others fold only
  /// the live band of non-zero cells: O(n*m + sum of band widths) <=
  /// O(n*m + n'^2), bit-identical to the full recurrence. `ctx` is charged
  /// n*m plus one step per cell folded. `policy` parallelises only the
  /// O(n*m) occurrence pass; the answer is the same at every thread count.
  static Result<Distribution> Dist(const AggregateQuery& query,
                                   const PMapping& pmapping,
                                   const Table& source,
                                   RowSpan rows = {},
                                   ExecContext* ctx = nullptr,
                                   const exec::ExecPolicy& policy = {});

  /// Expected COUNT. The paper derives it from the distribution; by
  /// linearity of expectation it is simply the sum over tuples of the
  /// probability mass of the mappings under which the tuple satisfies the
  /// condition, which is O(n*m). This direct path is the default; the
  /// derived path is kept for the Figure 9 reproduction (the paper's
  /// `ByTupleExpValCOUNT` curve tracks the quadratic distribution cost).
  static Result<double> Expected(const AggregateQuery& query,
                                 const PMapping& pmapping,
                                 const Table& source,
                                 RowSpan rows = {},
                                 ExecContext* ctx = nullptr);

  /// Expected COUNT computed by building the full distribution first —
  /// the paper's formulation, at the cost of `Dist`.
  static Result<double> ExpectedViaDistribution(
      const AggregateQuery& query, const PMapping& pmapping,
      const Table& source, RowSpan rows = {},
      ExecContext* ctx = nullptr, const exec::ExecPolicy& policy = {});
};

}  // namespace aqua

#endif  // AQUA_CORE_BY_TUPLE_COUNT_H_
