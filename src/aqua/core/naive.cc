#include "aqua/core/naive.h"

#include <cmath>
#include <unordered_map>

#include "aqua/core/tuple_scan.h"
#include "aqua/obs/trace.h"
#include "aqua/query/executor.h"

namespace aqua {
namespace {

/// Undefined mass up to this much is rounding, not a real outcome.
constexpr double kUndefinedMassTolerance = 1e-12;

}  // namespace

Result<Distribution> DefinedDistribution(NaiveAnswer answer) {
  if (answer.undefined_mass > kUndefinedMassTolerance) {
    return Status::InvalidArgument(
        "the aggregate is undefined with probability " +
        std::to_string(answer.undefined_mass) +
        "; no total distribution exists");
  }
  return std::move(answer.distribution);
}

Result<double> DefinedExpectation(const NaiveAnswer& answer) {
  if (answer.undefined_mass > kUndefinedMassTolerance) {
    return Status::InvalidArgument(
        "expected value is undefined: the aggregate has no value with "
        "probability " +
        std::to_string(answer.undefined_mass));
  }
  return answer.distribution.Expectation();
}

Result<NaiveAnswer> EnumerateSequences(
    const TupleMappingGrid& grid, const NaiveOptions& options,
    ExecContext* ctx,
    const std::function<std::optional<double>(const std::vector<size_t>&)>&
        outcome) {
  // l^n versus the budget, without overflow.
  const double log_sequences =
      grid.m == 1 ? 0.0
                  : static_cast<double>(grid.n) *
                        std::log2(static_cast<double>(grid.m));
  if (log_sequences >
      std::log2(static_cast<double>(options.max_sequences)) + 1e-9) {
    return Status::ResourceExhausted(
        "naive by-tuple enumeration would visit " + std::to_string(grid.m) +
        "^" + std::to_string(grid.n) + " sequences, over the budget of " +
        std::to_string(options.max_sequences));
  }
  AQUA_RETURN_NOT_OK(ExecCheckNow(ctx));

  NaiveAnswer answer;
  // The support can hold up to l^n distinct outcomes; accumulate mass in a
  // hash map and sort once at the end rather than paying a sorted insert
  // per sequence. Map growth is charged against the memory budget as it
  // happens — the support itself can be exponential.
  constexpr uint64_t kMassEntryBytes = 48;  // approx. node + bucket cost
  size_t charged_entries = 0;
  std::unordered_map<double, double> mass;
  std::vector<size_t> seq(grid.n, 0);  // odometer over mapping indices
  while (true) {
    // One step per sequence: the deadline/cancellation poll is amortised
    // inside Charge, so the common path is two integer additions.
    AQUA_RETURN_NOT_OK(ExecCharge(ctx, 1));
    double prob = 1.0;
    for (size_t i = 0; i < grid.n; ++i) prob *= grid.prob[seq[i]];
    const std::optional<double> value = outcome(seq);
    if (value.has_value()) {
      mass[*value] += prob;
    } else {
      answer.undefined_mass += prob;
    }
    if (mass.size() > charged_entries) {
      AQUA_RETURN_NOT_OK(ExecChargeBytes(
          ctx, (mass.size() - charged_entries) * kMassEntryBytes));
      charged_entries = mass.size();
    }
    // Advance the odometer.
    size_t pos = 0;
    while (pos < grid.n && ++seq[pos] == grid.m) {
      seq[pos] = 0;
      ++pos;
    }
    if (pos == grid.n) break;
  }
  std::vector<Distribution::Entry> entries;
  entries.reserve(mass.size());
  for (const auto& [value, prob] : mass) {
    entries.push_back(Distribution::Entry{value, prob});
  }
  AQUA_ASSIGN_OR_RETURN(answer.distribution,
                        Distribution::FromEntries(std::move(entries)));
  return answer;
}

Result<NaiveAnswer> NaiveByTuple::Dist(const AggregateQuery& query,
                                       const PMapping& pmapping,
                                       const Table& source,
                                       const NaiveOptions& options,
                                       RowSpan rows,
                                       ExecContext* ctx) {
  obs::TraceSpan span("NaiveByTuple::Dist");
  AQUA_ASSIGN_OR_RETURN(TupleMappingGrid grid,
                        BuildTupleMappingGrid(query, pmapping, source, rows));
  return EnumerateSequences(
      grid, options, ctx, [&](const std::vector<size_t>& seq) {
        AggregateFold fold;
        for (size_t i = 0; i < grid.n; ++i) {
          if (grid.Sat(i, seq[i])) fold.Add(grid.Val(i, seq[i]));
        }
        return fold.Finish(query.func);
      });
}

Result<double> NaiveByTuple::Expected(const AggregateQuery& query,
                                      const PMapping& pmapping,
                                      const Table& source,
                                      const NaiveOptions& options,
                                      RowSpan rows,
                                      ExecContext* ctx) {
  obs::TraceSpan span("NaiveByTuple::Expected");
  AQUA_ASSIGN_OR_RETURN(NaiveAnswer answer,
                        Dist(query, pmapping, source, options, rows, ctx));
  return DefinedExpectation(answer);
}

Result<Interval> NaiveByTuple::Range(const AggregateQuery& query,
                                     const PMapping& pmapping,
                                     const Table& source,
                                     const NaiveOptions& options,
                                     RowSpan rows,
                                     ExecContext* ctx) {
  obs::TraceSpan span("NaiveByTuple::Range");
  AQUA_ASSIGN_OR_RETURN(NaiveAnswer answer,
                        Dist(query, pmapping, source, options, rows, ctx));
  return answer.distribution.ToRange();
}

}  // namespace aqua
