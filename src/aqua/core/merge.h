#ifndef AQUA_CORE_MERGE_H_
#define AQUA_CORE_MERGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "aqua/common/exec_context.h"
#include "aqua/common/interval.h"
#include "aqua/common/result.h"
#include "aqua/core/clt.h"
#include "aqua/core/naive.h"
#include "aqua/prob/distribution.h"

namespace aqua::merge {

/// The unit of work a shard hands back to the coordinator: whichever of
/// the fields below the cell's semantics needs, plus enough metadata for
/// the coordinator to validate coverage and flag degradation.
///
/// The paper's by-tuple semantics decompose over disjoint tuple subsets:
/// COUNT distributions combine by convolution, range bounds and CLT
/// moments by addition, and MIN/MAX CDFs by pointwise product (tuples
/// choose mappings independently, so the extremum over the union is
/// distributed as the product of per-shard CDFs). Each merge operator
/// below is the exact combination law for one of those shapes and is
/// property-tested byte-identical to the serial algorithm at every shard
/// count.
struct ShardPartial {
  /// Range semantics: bounds of the aggregate restricted to this shard.
  Interval range;
  /// Distribution semantics: shard-local outcome distribution.
  Distribution dist;
  /// Probability that the shard-local aggregate is undefined (MIN/MAX
  /// over a shard where no tuple qualifies under some sequences).
  double undefined_mass = 0.0;
  /// Expected-value semantics: shard-local expectation (additive for
  /// COUNT/SUM by linearity).
  double expected = 0.0;
  /// How many of the rows assigned to this shard the partial covers. The
  /// coordinator checks the sum against the table size, turning a torn
  /// partial (a shard that died mid-scan but still reported) into a
  /// detected error instead of a silently wrong answer.
  uint64_t rows_covered = 0;
  /// True when this partial came from the degraded (sampling) path; the
  /// combined answer is then flagged approximate.
  bool approximate = false;
  /// Human-readable degradation detail, surfaced in the answer note.
  std::string note;
};

/// Sum of per-shard range bounds, in shard order. Exact for COUNT and SUM:
/// the extreme scenarios decompose per tuple, so the bound over the union
/// is the sum of per-shard bounds.
Interval MergeIntervalSum(const std::vector<ShardPartial>& parts);

/// Sum of per-shard expected values (linearity of expectation).
double MergeExpectedSum(const std::vector<ShardPartial>& parts);

/// Adds CLT moments: mean and variance are both additive across disjoint
/// tuple subsets because tuples choose mappings independently.
NormalApproximation MergeMoments(const std::vector<NormalApproximation>& parts);

/// Convolution of per-shard COUNT distributions, folded left in shard
/// order. Outcomes must be non-negative integers (COUNT supports); a
/// shard with an empty distribution is the convolution identity (its
/// count is deterministically absent, contributed by no rows). The dense
/// fold mirrors the serial DP's accumulation order so the result is
/// byte-identical to running `ByTuplePDCOUNT` over the union. Each fold
/// after the first partial charges its inner-loop iterations to `ctx`.
Result<Distribution> MergeCountDistributions(
    const std::vector<ShardPartial>& parts, ExecContext* ctx = nullptr);

/// Pointwise CDF product for MIN/MAX. With `is_max` the per-shard CDF
/// G_s(x) = undefined_s + sum of p_s(o) over o <= x is swept over the
/// ascending union grid of outcomes; for MIN the survival function
/// T_s(x) = undefined_s + sum over o >= x is swept descending. The
/// product's successive differences are the atoms of the combined
/// extremum; the all-shards-undefined constant cancels in every atom and
/// survives only as the combined `undefined_mass` (the product of the
/// per-shard masses). Charges one step per grid point and partial beyond
/// the first to `ctx`.
Result<NaiveAnswer> MergeExtremeDistributions(
    const std::vector<ShardPartial>& parts, bool is_max,
    ExecContext* ctx = nullptr);

}  // namespace aqua::merge

#endif  // AQUA_CORE_MERGE_H_
