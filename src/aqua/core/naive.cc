#include "aqua/core/naive.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "aqua/core/tuple_scan.h"
#include "aqua/obs/trace.h"

namespace aqua {
namespace {

Status CheckBudget(const TupleMappingGrid& grid, const NaiveOptions& options) {
  // l^n versus the budget, without overflow.
  double log_sequences =
      static_cast<double>(grid.n) * std::log2(static_cast<double>(grid.m));
  if (grid.m == 1) log_sequences = 0.0;
  if (log_sequences >
      std::log2(static_cast<double>(options.max_sequences)) + 1e-9) {
    return Status::ResourceExhausted(
        "naive by-tuple enumeration would visit " + std::to_string(grid.m) +
        "^" + std::to_string(grid.n) + " sequences, over the budget of " +
        std::to_string(options.max_sequences));
  }
  return Status::OK();
}

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

Result<NaiveAnswer> NaiveByTuple::Dist(const AggregateQuery& query,
                                       const PMapping& pmapping,
                                       const Table& source,
                                       const NaiveOptions& options,
                                       RowSpan rows,
                                       ExecContext* ctx) {
  obs::TraceSpan span("NaiveByTuple::Dist");
  AQUA_ASSIGN_OR_RETURN(TupleMappingGrid grid,
                        BuildTupleMappingGrid(query, pmapping, source, rows));
  AQUA_RETURN_NOT_OK(CheckBudget(grid, options));
  AQUA_RETURN_NOT_OK(ExecCheckNow(ctx));

  NaiveAnswer answer;
  // The support can hold up to l^n distinct outcomes; accumulate mass in a
  // hash map and sort once at the end rather than paying a sorted insert
  // per sequence. Map growth is charged against the memory budget as it
  // happens — the support itself can be exponential.
  constexpr uint64_t kMassEntryBytes = 48;  // approx. node + bucket cost
  size_t charged_entries = 0;
  std::unordered_map<double, double> mass;
  if (grid.n == 0) {
    // No tuples: COUNT and SUM are 0 with certainty; the rest undefined.
    if (query.func == AggregateFunction::kCount ||
        query.func == AggregateFunction::kSum) {
      answer.distribution = Distribution::PointMass(0.0);
    } else {
      answer.undefined_mass = 1.0;
    }
    return answer;
  }

  std::vector<size_t> seq(grid.n, 0);  // odometer over mapping indices
  while (true) {
    // One step per sequence: the deadline/cancellation poll is amortised
    // inside Charge, so the common path is two integer additions.
    AQUA_RETURN_NOT_OK(ExecCharge(ctx, 1));
    // Evaluate the aggregate and the sequence probability in one pass.
    double prob = 1.0;
    int64_t count = 0;
    double sum = 0.0;
    double mn = 0.0, mx = 0.0;
    for (size_t i = 0; i < grid.n; ++i) {
      const size_t j = seq[i];
      prob *= grid.prob[j];
      if (!grid.Sat(i, j)) continue;
      const double v = grid.Val(i, j);
      ++count;
      sum += v;
      if (count == 1) {
        mn = mx = v;
      } else {
        mn = std::min(mn, v);
        mx = std::max(mx, v);
      }
    }
    switch (query.func) {
      case AggregateFunction::kCount:
        mass[static_cast<double>(count)] += prob;
        break;
      case AggregateFunction::kSum:
        mass[sum] += prob;
        break;
      case AggregateFunction::kAvg:
        if (count == 0) {
          answer.undefined_mass += prob;
        } else {
          mass[sum / static_cast<double>(count)] += prob;
        }
        break;
      case AggregateFunction::kMin:
      case AggregateFunction::kMax:
        if (count == 0) {
          answer.undefined_mass += prob;
        } else {
          mass[query.func == AggregateFunction::kMin ? mn : mx] += prob;
        }
        break;
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
  for (const auto& [outcome, prob] : mass) {
    entries.push_back(Distribution::Entry{outcome, prob});
  }
  AQUA_ASSIGN_OR_RETURN(answer.distribution,
                        Distribution::FromEntries(std::move(entries)));
  return answer;
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
