#include "aqua/core/cells.h"

#include <string>
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

Result<ShardPartial> CountExpectedViaDistribution(const CellCall& c) {
  return ExpectedPartial(ByTupleCount::ExpectedViaDistribution(
      c.query, c.pmapping, c.source, c.rows, c.ctx, c.policy));
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

Result<ShardPartial> AvgRangePaper(const CellCall& c) {
  return RangePartial(
      ByTupleSum::RangeAvgPaper(c.query, c.pmapping, c.source, c.rows, c.ctx));
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
                                         c.options.naive, c.rows, c.ctx));
}

Result<ShardPartial> OpenCell(const CellCall& c) {
  return Status::Unimplemented(
      std::string("no PTIME algorithm is known for ") +
      std::string(AggregateFunctionToString(c.query.func)) +
      " under by-tuple/" +
      std::string(AggregateSemanticsToString(c.semantics)) +
      " semantics (paper Figure 6); enable EngineOptions::allow_naive for "
      "exponential enumeration");
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

bool CountExpectedViaDistributionOn(const EngineOptions& o) {
  return o.count_expected_via_distribution;
}
bool AvgRangePaperOn(const EngineOptions& o) { return o.avg_range_paper; }
bool MinMaxDistributionExactOn(const EngineOptions& o) {
  return o.minmax_distribution_exact;
}

constexpr const char* kExtremumExplain =
    "exact extremum distribution via CDF factorisation (extension beyond "
    "the paper), O(n*m log(n*m))";

/// One row of the Figure 6 table: the cell for (func, semantics) when the
/// engine flag `applies` reads (null = always). The first matching row
/// wins, so a flag's row precedes its default.
struct CellRow {
  AggregateFunction func;
  AggregateSemantics semantics;
  bool (*applies)(const EngineOptions&);
  ByTupleCell cell;
};

using F = AggregateFunction;
using S = AggregateSemantics;

constexpr CellRow kCells[] = {
    {F::kCount, S::kRange, nullptr,
     {"ByTupleRangeCOUNT, O(n*m)", CountRange, &kSumRanges, FinishRange}},
    {F::kCount, S::kDistribution, nullptr,
     {"ByTuplePDCOUNT, O(m*n + n^2)", CountDistribution, &kConvolveCounts,
      FinishDistribution}},
    {F::kCount, S::kExpectedValue, CountExpectedViaDistributionOn,
     {"ByTupleExpValCOUNT via distribution, O(m*n + n^2)",
      CountExpectedViaDistribution, &kSumExpectations, FinishExpected}},
    {F::kCount, S::kExpectedValue, nullptr,
     {"ByTupleExpValCOUNT direct (linearity of expectation), O(n*m)",
      CountExpected, &kSumExpectations, FinishExpected}},
    {F::kSum, S::kRange, nullptr,
     {"ByTupleRangeSUM, O(n*m)", SumRange, &kSumRanges, FinishRange}},
    {F::kSum, S::kExpectedValue, nullptr,
     {"ByTupleExpValSUM = by-table expected value (Theorem 4), O(n*m)",
      SumExpected, &kSumExpectations, FinishExpected}},
    // AVG does not decompose over tuple subsets, and the MIN/MAX range
    // bounds hinge on whether any mandatory tuple exists: neither shards.
    {F::kAvg, S::kRange, AvgRangePaperOn,
     {"ByTupleRangeAVG (paper formula), O(n*m)", AvgRangePaper, nullptr,
      FinishRange}},
    {F::kAvg, S::kRange, nullptr,
     {"ByTupleRangeAVG (tight variant), O(n*m + n log n)", AvgRangeExact,
      nullptr, FinishRange}},
    {F::kMin, S::kRange, nullptr,
     {"ByTupleRangeMIN, O(n*m)", MinRange, nullptr, FinishRange}},
    {F::kMax, S::kRange, nullptr,
     {"ByTupleRangeMAX, O(n*m)", MaxRange, nullptr, FinishRange}},
    {F::kMin, S::kDistribution, MinMaxDistributionExactOn,
     {kExtremumExplain, MinDistribution, &kMinCdfProduct,
      FinishDistribution}},
    {F::kMax, S::kDistribution, MinMaxDistributionExactOn,
     {kExtremumExplain, MaxDistribution, &kMaxCdfProduct,
      FinishDistribution}},
    {F::kMin, S::kExpectedValue, MinMaxDistributionExactOn,
     {kExtremumExplain, MinDistribution, &kMinCdfProduct,
      FinishExpectationOfDistribution}},
    {F::kMax, S::kExpectedValue, MinMaxDistributionExactOn,
     {kExtremumExplain, MaxDistribution, &kMaxCdfProduct,
      FinishExpectationOfDistribution}},
};

// The open cells: no PTIME algorithm (paper Figure 6), so guarded naive
// enumeration when allowed, else a clean kUnimplemented.
constexpr const char* kNaiveExplain =
    "NaiveByTuple (enumerate mapping sequences), O(l^n * n)";
constexpr ByTupleCell kNaiveDistributionCell{
    kNaiveExplain, NaiveDistribution, nullptr, FinishDistribution};
constexpr ByTupleCell kNaiveExpectedCell{kNaiveExplain, NaiveDistribution,
                                         nullptr,
                                         FinishExpectationOfDistribution};
constexpr ByTupleCell kUnimplementedCell{
    "unimplemented (no PTIME algorithm; EngineOptions::allow_naive "
    "disabled)",
    OpenCell, nullptr, FinishRange};

}  // namespace

const ByTupleCell& FindByTupleCell(AggregateFunction func,
                                   AggregateSemantics semantics,
                                   const EngineOptions& options) {
  for (const CellRow& row : kCells) {
    if (row.func == func && row.semantics == semantics &&
        (row.applies == nullptr || row.applies(options))) {
      return row.cell;
    }
  }
  if (!options.allow_naive) return kUnimplementedCell;
  return semantics == AggregateSemantics::kDistribution ? kNaiveDistributionCell
                                                        : kNaiveExpectedCell;
}

}  // namespace aqua
