#ifndef AQUA_CORE_BY_TUPLE_MINMAX_H_
#define AQUA_CORE_BY_TUPLE_MINMAX_H_

#include <cstdint>
#include <vector>

#include "aqua/common/interval.h"
#include "aqua/core/naive.h"
#include "aqua/core/row_span.h"
#include "aqua/mapping/p_mapping.h"
#include "aqua/query/ast.h"
#include "aqua/storage/table.h"

namespace aqua {

/// PTIME by-tuple/range algorithms for MAX and MIN (paper Figure 5 and its
/// dual). O(n*m) each. DISTINCT is accepted (it does not change MIN/MAX).
///
/// The paper's formulation `[max_i v_i^min, max_i v_i^max]` assumes every
/// tuple satisfies the condition under every mapping (true in its
/// examples, which have no WHERE clause). With selective conditions a
/// tuple may be *optional* — some sequence excludes it — which these
/// implementations handle exactly:
///  * the upper bound of MAX ranges over every tuple that can satisfy;
///  * the lower bound of MAX ranges only over tuples that satisfy under
///    all mappings (mandatory tuples), since optional ones can be dropped;
///  * when no tuple is mandatory, the minimum achievable MAX keeps a
///    single tuple, so the bound is min_i v_i^min over satisfiable tuples.
/// MIN is symmetric.
class ByTupleMinMax {
 public:
  static Result<Interval> RangeMax(const AggregateQuery& query,
                                   const PMapping& pmapping,
                                   const Table& source,
                                   RowSpan rows = {},
                                   ExecContext* ctx = nullptr);

  static Result<Interval> RangeMin(const AggregateQuery& query,
                                   const PMapping& pmapping,
                                   const Table& source,
                                   RowSpan rows = {},
                                   ExecContext* ctx = nullptr);

  /// Exact by-tuple *distribution* of MAX in polynomial time — an
  /// extension of this repository that resolves cells the paper's
  /// Figure 6 leaves open ("?"). By tuple independence the CDF
  /// factorises:
  ///
  ///   P(MAX <= x) = prod_i q_i(x),
  ///   q_i(x) = Pr(tuple i is excluded) +
  ///            sum_j Pr(m_j) [tuple i satisfies under m_j and v_ij <= x],
  ///
  /// so sweeping the O(n*m) candidate values in ascending order with an
  /// incrementally maintained product gives the full distribution in
  /// O(n*m log(n*m)). Sequences where no tuple qualifies leave MAX
  /// undefined; that mass (prod_i Pr(excluded_i)) is reported separately,
  /// like the naive enumerator does.
  static Result<NaiveAnswer> DistMax(
      const AggregateQuery& query, const PMapping& pmapping,
      const Table& source, RowSpan rows = {},
      ExecContext* ctx = nullptr);

  /// The MIN dual: P(MIN >= x) factorises the same way (descending sweep).
  static Result<NaiveAnswer> DistMin(
      const AggregateQuery& query, const PMapping& pmapping,
      const Table& source, RowSpan rows = {},
      ExecContext* ctx = nullptr);

  /// Expected MIN/MAX derived from the exact distribution; fails when the
  /// aggregate is undefined with positive probability.
  static Result<double> ExpectedMax(
      const AggregateQuery& query, const PMapping& pmapping,
      const Table& source, RowSpan rows = {},
      ExecContext* ctx = nullptr);
  static Result<double> ExpectedMin(
      const AggregateQuery& query, const PMapping& pmapping,
      const Table& source, RowSpan rows = {},
      ExecContext* ctx = nullptr);
};

}  // namespace aqua

#endif  // AQUA_CORE_BY_TUPLE_MINMAX_H_
