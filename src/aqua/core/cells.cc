#include "aqua/core/cells.h"

#include <iterator>
#include <utility>

#include "aqua/core/by_tuple_count.h"
#include "aqua/core/by_tuple_minmax.h"
#include "aqua/core/by_tuple_sum.h"
#include "aqua/core/naive.h"

namespace aqua {
namespace {

using merge::ShardPartial;

// Partial shapes: which ShardPartial fields a kernel's result fills.

Result<ShardPartial> RangePartial(Result<Interval> range) {
  AQUA_RETURN_NOT_OK(range.status());
  ShardPartial p;
  p.range = *range;
  return p;
}

Result<ShardPartial> ExpectedPartial(Result<double> expected) {
  AQUA_RETURN_NOT_OK(expected.status());
  ShardPartial p;
  p.expected = *expected;
  return p;
}

Result<ShardPartial> DistributionPartial(Result<Distribution> dist) {
  AQUA_RETURN_NOT_OK(dist.status());
  ShardPartial p;
  p.dist = std::move(*dist);
  return p;
}

Result<ShardPartial> NaivePartial(Result<NaiveAnswer> answer) {
  AQUA_RETURN_NOT_OK(answer.status());
  ShardPartial p;
  p.dist = std::move(answer->distribution);
  p.undefined_mass = answer->undefined_mass;
  return p;
}

// Kernels: one per algorithm, each computing its partial over call.rows.

Result<ShardPartial> CountRange(const CellCall& c) {
  return RangePartial(
      ByTupleCount::Range(c.query, c.pmapping, c.source, c.rows, c.ctx));
}

Result<ShardPartial> CountDistribution(const CellCall& c) {
  return DistributionPartial(ByTupleCount::Dist(c.query, c.pmapping, c.source,
                                                c.rows, c.ctx, c.policy));
}

Result<ShardPartial> CountExpected(const CellCall& c) {
  return ExpectedPartial(
      ByTupleCount::Expected(c.query, c.pmapping, c.source, c.rows, c.ctx));
}

Result<ShardPartial> SumRange(const CellCall& c) {
  return RangePartial(
      ByTupleSum::RangeSum(c.query, c.pmapping, c.source, c.rows, c.ctx));
}

// Theorem 4: equal to the by-table expected value. The linear form
// supports row spans; for whole tables both paths agree.
Result<ShardPartial> SumExpected(const CellCall& c) {
  return ExpectedPartial(ByTupleSum::ExpectedSumLinear(
      c.query, c.pmapping, c.source, c.rows, c.ctx));
}

Result<ShardPartial> AvgRangeExact(const CellCall& c) {
  return RangePartial(
      ByTupleSum::RangeAvgExact(c.query, c.pmapping, c.source, c.rows, c.ctx));
}

Result<ShardPartial> MinRange(const CellCall& c) {
  return RangePartial(
      ByTupleMinMax::RangeMin(c.query, c.pmapping, c.source, c.rows, c.ctx));
}

Result<ShardPartial> MaxRange(const CellCall& c) {
  return RangePartial(
      ByTupleMinMax::RangeMax(c.query, c.pmapping, c.source, c.rows, c.ctx));
}

// Both distribution and expected-value semantics of MIN/MAX compute the
// extremum distribution; the expectation is taken by the finisher, after
// the CDF-product merge when sharded.
Result<ShardPartial> MinDistribution(const CellCall& c) {
  return NaivePartial(
      ByTupleMinMax::DistMin(c.query, c.pmapping, c.source, c.rows, c.ctx));
}

Result<ShardPartial> MaxDistribution(const CellCall& c) {
  return NaivePartial(
      ByTupleMinMax::DistMax(c.query, c.pmapping, c.source, c.rows, c.ctx));
}

Result<ShardPartial> NaiveDistribution(const CellCall& c) {
  return NaivePartial(NaiveByTuple::Dist(c.query, c.pmapping, c.source,
                                         c.naive, c.rows, c.ctx));
}

// Merge laws.

Result<ShardPartial> SumRanges(const std::vector<ShardPartial>& parts,
                               ExecContext*) {
  ShardPartial p;
  p.range = merge::MergeIntervalSum(parts);
  return p;
}

Result<ShardPartial> SumExpectations(const std::vector<ShardPartial>& parts,
                                     ExecContext*) {
  ShardPartial p;
  p.expected = merge::MergeExpectedSum(parts);
  return p;
}

Result<ShardPartial> ConvolveCounts(const std::vector<ShardPartial>& parts,
                                    ExecContext* ctx) {
  return DistributionPartial(merge::MergeCountDistributions(parts, ctx));
}

template <bool kIsMax>
Result<ShardPartial> MultiplyCdfs(const std::vector<ShardPartial>& parts,
                                  ExecContext* ctx) {
  return NaivePartial(merge::MergeExtremeDistributions(parts, kIsMax, ctx));
}

ShardPartial SampledRange(SampledAnswer sampled) {
  ShardPartial p;
  p.range = sampled.observed_range;
  return p;
}

ShardPartial SampledExpected(SampledAnswer sampled) {
  ShardPartial p;
  p.expected = sampled.expected;
  return p;
}

ShardPartial SampledDistribution(SampledAnswer sampled) {
  ShardPartial p;
  p.dist = std::move(sampled.empirical);
  p.undefined_mass =
      sampled.num_samples == 0
          ? 1.0
          : static_cast<double>(sampled.undefined_samples) /
                static_cast<double>(sampled.num_samples);
  return p;
}

constexpr MergeLaw kSumRanges{SumRanges, SampledRange};
constexpr MergeLaw kSumExpectations{SumExpectations, SampledExpected};
constexpr MergeLaw kConvolveCounts{ConvolveCounts, SampledDistribution};
constexpr MergeLaw kMinCdfProduct{MultiplyCdfs<false>, SampledDistribution};
constexpr MergeLaw kMaxCdfProduct{MultiplyCdfs<true>, SampledDistribution};

// Finishers.

Result<AggregateAnswer> FinishRange(ShardPartial p) {
  return AggregateAnswer::MakeRange(p.range);
}

Result<AggregateAnswer> FinishExpected(ShardPartial p) {
  return AggregateAnswer::MakeExpected(p.expected);
}

Result<AggregateAnswer> FinishDistribution(ShardPartial p) {
  AQUA_ASSIGN_OR_RETURN(
      Distribution d,
      DefinedDistribution(NaiveAnswer{std::move(p.dist), p.undefined_mass}));
  return AggregateAnswer::MakeDistribution(std::move(d));
}

Result<AggregateAnswer> FinishExpectationOfDistribution(ShardPartial p) {
  AQUA_ASSIGN_OR_RETURN(
      double e,
      DefinedExpectation(NaiveAnswer{std::move(p.dist), p.undefined_mass}));
  return AggregateAnswer::MakeExpected(e);
}

constexpr const char* kExtremumExplain =
    "exact extremum distribution via CDF factorisation (extension beyond "
    "the paper), O(n*m log(n*m))";

// The cells the paper's Figure 6 leaves open: guarded naive enumeration.
constexpr const char* kNaiveExplain =
    "NaiveByTuple (enumerate mapping sequences), O(l^n * n)";

/// One row of the Figure 6 table: the cell for (func, semantics).
struct CellRow {
  AggregateFunction func;
  AggregateSemantics semantics;
  ByTupleCell cell;
};

using F = AggregateFunction;
using S = AggregateSemantics;

// One row per (func, semantics), in enum order, so lookup is an index.
constexpr CellRow kCells[] = {
    {F::kCount, S::kRange,
     {"ByTupleRangeCOUNT, O(n*m)", CountRange, &kSumRanges, FinishRange}},
    {F::kCount, S::kDistribution,
     {"ByTuplePDCOUNT, O(m*n + n^2)", CountDistribution, &kConvolveCounts,
      FinishDistribution}},
    {F::kCount, S::kExpectedValue,
     {"ByTupleExpValCOUNT direct (linearity of expectation), O(n*m)",
      CountExpected, &kSumExpectations, FinishExpected}},
    {F::kSum, S::kRange,
     {"ByTupleRangeSUM, O(n*m)", SumRange, &kSumRanges, FinishRange}},
    {F::kSum, S::kDistribution,
     {kNaiveExplain, NaiveDistribution, nullptr, FinishDistribution}},
    {F::kSum, S::kExpectedValue,
     {"ByTupleExpValSUM = by-table expected value (Theorem 4), O(n*m)",
      SumExpected, &kSumExpectations, FinishExpected}},
    // AVG does not decompose over tuple subsets, and the MIN/MAX range
    // bounds hinge on whether any mandatory tuple exists: neither shards.
    {F::kAvg, S::kRange,
     {"ByTupleRangeAVG (tight variant), O(n*m + n log n)", AvgRangeExact,
      nullptr, FinishRange}},
    {F::kAvg, S::kDistribution,
     {kNaiveExplain, NaiveDistribution, nullptr, FinishDistribution}},
    {F::kAvg, S::kExpectedValue,
     {kNaiveExplain, NaiveDistribution, nullptr,
      FinishExpectationOfDistribution}},
    {F::kMin, S::kRange,
     {"ByTupleRangeMIN, O(n*m)", MinRange, nullptr, FinishRange}},
    {F::kMin, S::kDistribution,
     {kExtremumExplain, MinDistribution, &kMinCdfProduct,
      FinishDistribution}},
    {F::kMin, S::kExpectedValue,
     {kExtremumExplain, MinDistribution, &kMinCdfProduct,
      FinishExpectationOfDistribution}},
    {F::kMax, S::kRange,
     {"ByTupleRangeMAX, O(n*m)", MaxRange, nullptr, FinishRange}},
    {F::kMax, S::kDistribution,
     {kExtremumExplain, MaxDistribution, &kMaxCdfProduct,
      FinishDistribution}},
    {F::kMax, S::kExpectedValue,
     {kExtremumExplain, MaxDistribution, &kMaxCdfProduct,
      FinishExpectationOfDistribution}},
};

constexpr size_t kNumSemantics = 3;

constexpr size_t CellIndex(AggregateFunction func,
                           AggregateSemantics semantics) {
  return static_cast<size_t>(func) * kNumSemantics +
         static_cast<size_t>(semantics);
}

constexpr bool OneRowPerCell() {
  for (size_t i = 0; i < std::size(kCells); ++i) {
    if (CellIndex(kCells[i].func, kCells[i].semantics) != i) return false;
  }
  return std::size(kCells) == 5 * kNumSemantics;
}
static_assert(OneRowPerCell(), "kCells must list every cell once, in order");

}  // namespace

const ByTupleCell& FindByTupleCell(AggregateFunction func,
                                   AggregateSemantics semantics) {
  return kCells[CellIndex(func, semantics)].cell;
}

}  // namespace aqua
