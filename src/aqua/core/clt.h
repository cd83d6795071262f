#ifndef AQUA_CORE_CLT_H_
#define AQUA_CORE_CLT_H_

#include <cstdint>
#include <vector>

#include "aqua/common/exec_context.h"
#include "aqua/common/interval.h"
#include "aqua/common/result.h"
#include "aqua/core/row_span.h"
#include "aqua/mapping/p_mapping.h"
#include "aqua/query/ast.h"
#include "aqua/storage/table.h"

namespace aqua {

/// A normal distribution N(mean, variance) used as an analytic
/// approximation of a by-tuple answer distribution.
struct NormalApproximation {
  double mean = 0.0;
  double variance = 0.0;

  double stddev() const;

  /// P(X <= x) under the approximation. A zero-variance approximation is
  /// a step function at `mean`.
  double Cdf(double x) const;

  /// Smallest x with Cdf(x) >= p, for p in (0, 1) (Acklam's rational
  /// approximation of the normal quantile; |error| < 1.2e-9 over the full
  /// range).
  Result<double> Quantile(double p) const;

  /// Central interval covering probability `coverage` (e.g. 0.95).
  Result<Interval> CredibleInterval(double coverage) const;
};

/// Central-limit approximations of the by-tuple distribution semantics for
/// SUM and COUNT.
///
/// Under the by-tuple model the mapping choices of distinct tuples are
/// independent, so SUM (and COUNT) is a sum of n independent bounded
/// random variables: its *exact* mean and variance are computable in
/// O(n*m) from per-tuple moments, and for large n the distribution itself
/// is asymptotically normal. This closes — approximately but analytically
/// — the by-tuple/distribution cells the paper leaves open for SUM, where
/// the exact support can be exponential in n, and complements the
/// Monte-Carlo sampler (`ByTupleSampler`): the sampler converges to the
/// true distribution at any n, the CLT is instantaneous but asymptotic.
class ByTupleCLT {
 public:
  /// Approximates the by-tuple distribution of `SELECT SUM(A) FROM T
  /// WHERE C`. The mean and variance are exact; normality is the
  /// approximation. DISTINCT is rejected.
  static Result<NormalApproximation> ApproxSum(
      const AggregateQuery& query, const PMapping& pmapping,
      const Table& source, RowSpan rows = {},
      ExecContext* ctx = nullptr);

  /// Second-order delta-method estimate of the by-tuple *expected AVG* —
  /// the remaining expected-value cell with no exact polynomial algorithm
  /// (the paper notes the Theorem 4 shortcut "does not extend to AVG
  /// because it is a non-monotonic aggregate"). With S = SUM and
  /// C = COUNT over independent per-tuple contributions,
  ///
  ///   E[S/C] ~= E[S]/E[C] - Cov(S,C)/E[C]^2 + E[S]*Var(C)/E[C]^3,
  ///
  /// where all five moments are exact and O(n*m) by independence. The
  /// estimate is asymptotically exact as n grows; it is meaningless when
  /// P(C = 0) is non-negligible, so the call fails when the expected
  /// count is below `min_expected_count`.
  static Result<double> ApproxAvgExpectation(
      const AggregateQuery& query, const PMapping& pmapping,
      const Table& source, RowSpan rows = {},
      double min_expected_count = 5.0, ExecContext* ctx = nullptr);

  /// Approximates the by-tuple COUNT distribution (a Poisson-binomial:
  /// mean = sum of per-tuple satisfaction probabilities, variance =
  /// sum of occ*(1-occ)). The exact `ByTupleCount::Dist` costs
  /// O(n*m + sum of band widths) <= O(n*m + n'^2); this is the O(nm)
  /// large-n alternative benchmarked in Figure 9's ablation discussion.
  static Result<NormalApproximation> ApproxCount(
      const AggregateQuery& query, const PMapping& pmapping,
      const Table& source, RowSpan rows = {},
      ExecContext* ctx = nullptr);
};

}  // namespace aqua

#endif  // AQUA_CORE_CLT_H_
