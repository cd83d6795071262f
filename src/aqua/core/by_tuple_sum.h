#ifndef AQUA_CORE_BY_TUPLE_SUM_H_
#define AQUA_CORE_BY_TUPLE_SUM_H_

#include <cstdint>
#include <vector>

#include "aqua/common/interval.h"
#include "aqua/core/naive.h"
#include "aqua/core/row_span.h"
#include "aqua/mapping/p_mapping.h"
#include "aqua/prob/distribution.h"
#include "aqua/query/ast.h"
#include "aqua/storage/table.h"

namespace aqua {

/// Options for the quantised by-tuple SUM distribution (see
/// `ByTupleSum::DistQuantized`).
struct QuantizedDistOptions {
  /// Grid step. Contributions are snapped to multiples of `resolution`;
  /// each outcome of the returned distribution is within
  /// n * resolution / 2 of a true outcome. With integer-valued data and
  /// resolution = 1 the result is *exact*.
  double resolution = 1.0;

  /// Refuse when the DP grid (sum range / resolution) exceeds this, which
  /// bounds memory and the O(n * m * buckets) work.
  size_t max_buckets = size_t{1} << 20;

  /// For the joint (count, sum) DP of `DistAvgQuantized`: refuse when
  /// (n+1) * buckets exceeds this.
  size_t max_states = size_t{1} << 24;
};

/// PTIME by-tuple algorithms for SUM and AVG.
class ByTupleSum {
 public:
  /// `ByTupleRangeSUM` (paper Figure 4): accumulate per tuple the minimum
  /// and maximum contribution over the candidate mappings. O(n*m).
  ///
  /// A tuple that satisfies the condition only under some mappings may
  /// also be *excluded* by a sequence, so its contribution range is
  /// widened through 0 — the paper's trace (its Table VI) has every tuple
  /// satisfying under both mappings, where this refinement is inactive.
  static Result<Interval> RangeSum(const AggregateQuery& query,
                                   const PMapping& pmapping,
                                   const Table& source,
                                   RowSpan rows = {},
                                   ExecContext* ctx = nullptr);

  /// SUM under by-tuple/expected-value semantics. By the paper's Theorem 4
  /// this equals the by-table expected value, so it is answered by the
  /// generic by-table algorithm in O(l) scans rather than by sequence
  /// enumeration.
  static Result<double> ExpectedSum(const AggregateQuery& query,
                                    const PMapping& pmapping,
                                    const Table& source);

  /// Expected SUM computed directly from linearity of expectation:
  /// E[SUM] = sum_i sum_j Pr(m_j) * v_ij * [tuple i satisfies under m_j].
  /// Mathematically equal to `ExpectedSum` (and to the by-table expected
  /// value, per Theorem 4); this form supports row subsets, so the grouped
  /// engine uses it. O(n*m).
  static Result<double> ExpectedSumLinear(
      const AggregateQuery& query, const PMapping& pmapping,
      const Table& source, RowSpan rows = {},
      ExecContext* ctx = nullptr);

  /// AVG under by-tuple/range semantics, as specified in the paper
  /// (§IV-B, "AVG Under the Range Semantics"): SUM-range bounds divided by
  /// per-bound participation counters. Exact when every tuple that can
  /// satisfy the condition does so under *all* mappings (true in all of
  /// the paper's examples); when tuples are optional it may return a
  /// slightly wider or narrower interval than the tight one.
  static Result<Interval> RangeAvgPaper(
      const AggregateQuery& query, const PMapping& pmapping,
      const Table& source, RowSpan rows = {},
      ExecContext* ctx = nullptr);

  /// By-tuple SUM distribution by dynamic programming over a quantised
  /// value grid — this repository's answer to the cell the paper leaves
  /// open ("computing SUM under by-tuple/distribution does not scale...
  /// the number of newly generated values may be exponential"). The
  /// exponential blow-up is in *distinct outcomes*; snapping contributions
  /// to a grid makes the outcome domain an interval of buckets and the
  /// distribution computable in O(n * m + n * buckets) — pseudo-polynomial,
  /// exact for integer data at resolution 1, and an approximation with a
  /// per-outcome error bound of n*resolution/2 otherwise. Probabilities
  /// are exact for the quantised instance.
  static Result<Distribution> DistQuantized(
      const AggregateQuery& query, const PMapping& pmapping,
      const Table& source, const QuantizedDistOptions& options = {},
      RowSpan rows = {},
      ExecContext* ctx = nullptr);

  /// By-tuple AVG distribution by dynamic programming over the *joint*
  /// (count, quantised sum) state space — extending `DistQuantized` to the
  /// AVG cells (open in the paper for both distribution and expected
  /// value). Exact for integer data at resolution 1; probabilities exact
  /// for the quantised instance. O(n^2 * buckets) time and
  /// O(n * buckets) space, guarded by `options.max_states`. Sequences
  /// with an empty qualifying set leave AVG undefined; that mass is
  /// reported via `NaiveAnswer::undefined_mass`.
  static Result<NaiveAnswer> DistAvgQuantized(
      const AggregateQuery& query, const PMapping& pmapping,
      const Table& source, const QuantizedDistOptions& options = {},
      RowSpan rows = {},
      ExecContext* ctx = nullptr);

  /// Tight AVG range (this repository's extension): for each bound, the
  /// optimum over (a) which optional tuples to include and (b) which
  /// satisfying value each included tuple takes. Tuples satisfying under
  /// all mappings are mandatory; optional tuples are added greedily in
  /// value order while they improve the running mean. O(n*m + n log n).
  static Result<Interval> RangeAvgExact(
      const AggregateQuery& query, const PMapping& pmapping,
      const Table& source, RowSpan rows = {},
      ExecContext* ctx = nullptr);
};

}  // namespace aqua

#endif  // AQUA_CORE_BY_TUPLE_SUM_H_
