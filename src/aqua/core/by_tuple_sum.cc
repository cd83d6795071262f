#include "aqua/core/by_tuple_sum.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "aqua/core/by_table.h"
#include "aqua/core/by_tuple_common.h"
#include "aqua/obs/trace.h"

namespace aqua {
namespace {

using by_tuple_internal::TupleSatisfies;

/// Per-tuple summary across the candidate mappings.
struct TupleStats {
  bool any = false;   // satisfies under >= 1 mapping
  bool all = true;    // satisfies under every mapping
  double vmin = 0.0;  // min attribute value over satisfying mappings
  double vmax = 0.0;  // max attribute value over satisfying mappings
};

TupleStats Summarise(const std::vector<Reformulator::MappingBinding>& bindings,
                     const Table& table, size_t row) {
  TupleStats s;
  for (const auto& b : bindings) {
    if (!TupleSatisfies(b, table, row)) {
      s.all = false;
      continue;
    }
    const double v = b.attribute->NumericAt(row);
    if (!s.any) {
      s.vmin = s.vmax = v;
      s.any = true;
    } else {
      s.vmin = std::min(s.vmin, v);
      s.vmax = std::max(s.vmax, v);
    }
  }
  if (!s.any) s.all = false;
  return s;
}

Result<std::vector<Reformulator::MappingBinding>> BindChecked(
    const AggregateQuery& query, const PMapping& pmapping,
    const Table& source, AggregateFunction expected) {
  if (query.func != expected) {
    return Status::InvalidArgument(
        std::string("expected a ") +
        std::string(AggregateFunctionToString(expected)) + " query, got " +
        std::string(AggregateFunctionToString(query.func)));
  }
  if (query.distinct) {
    return Status::Unimplemented(
        std::string(AggregateFunctionToString(expected)) +
        "(DISTINCT) has no PTIME by-tuple algorithm");
  }
  return Reformulator::BindAll(query, pmapping, source);
}

}  // namespace

Result<Interval> ByTupleSum::RangeSum(const AggregateQuery& query,
                                      const PMapping& pmapping,
                                      const Table& source,
                                      RowSpan rows,
                                      ExecContext* ctx) {
  obs::TraceSpan span("ByTupleSum::RangeSum");
  AQUA_ASSIGN_OR_RETURN(
      std::vector<Reformulator::MappingBinding> bindings,
      BindChecked(query, pmapping, source, AggregateFunction::kSum));
  AQUA_RETURN_NOT_OK(
      ExecCharge(ctx, rows.size(source.num_rows()) * bindings.size()));
  AQUA_RETURN_NOT_OK(ExecCheckNow(ctx));
  double low = 0.0;
  double up = 0.0;
  rows.ForEach(source.num_rows(), [&](size_t r) {
    const TupleStats s = Summarise(bindings, source, r);
    if (!s.any) return;
    if (s.all) {
      low += s.vmin;
      up += s.vmax;
    } else {
      // The tuple can also be excluded by picking a non-satisfying
      // mapping, so each bound may take 0 instead of an extreme value.
      low += std::min(0.0, s.vmin);
      up += std::max(0.0, s.vmax);
    }
  });
  return Interval{low, up};
}

Result<double> ByTupleSum::ExpectedSum(const AggregateQuery& query,
                                       const PMapping& pmapping,
                                       const Table& source) {
  obs::TraceSpan span("ByTupleSum::ExpectedSum");
  if (query.func != AggregateFunction::kSum) {
    return Status::InvalidArgument("ExpectedSum requires a SUM query");
  }
  if (query.distinct) {
    return Status::Unimplemented(
        "SUM(DISTINCT) has no PTIME by-tuple algorithm");
  }
  // Theorem 4: the by-tuple expected value of SUM equals the by-table one,
  // because each tuple's mapping choice is independent and SUM is linear.
  AQUA_ASSIGN_OR_RETURN(
      AggregateAnswer answer,
      ByTable::Answer(query, pmapping, source,
                      AggregateSemantics::kExpectedValue));
  return answer.expected_value;
}

Result<Distribution> ByTupleSum::DistQuantized(
    const AggregateQuery& query, const PMapping& pmapping, const Table& source,
    const QuantizedDistOptions& options, RowSpan rows,
    ExecContext* ctx) {
  obs::TraceSpan span("ByTupleSum::DistQuantized");
  if (options.resolution <= 0.0) {
    return Status::InvalidArgument("resolution must be positive");
  }
  AQUA_ASSIGN_OR_RETURN(
      std::vector<Reformulator::MappingBinding> bindings,
      BindChecked(query, pmapping, source, AggregateFunction::kSum));

  // Per-tuple contribution atoms on the bucket grid: (bucket, probability)
  // with equal buckets merged. A non-satisfying mapping contributes
  // bucket 0.
  struct Atom {
    int64_t bucket;
    double prob;
  };
  std::vector<std::vector<Atom>> tuples;
  int64_t total_min = 0;
  int64_t total_max = 0;
  Status scan_status = Status::OK();
  rows.ForEach(source.num_rows(), [&](size_t r) {
    if (!scan_status.ok()) return;
    std::vector<Atom> atoms;
    for (const auto& b : bindings) {
      int64_t bucket = 0;
      if (TupleSatisfies(b, source, r)) {
        const double scaled = b.attribute->NumericAt(r) / options.resolution;
        if (std::fabs(scaled) >=
            static_cast<double>(std::numeric_limits<int64_t>::max()) / 4) {
          scan_status = Status::OutOfRange(
              "attribute value overflows the quantisation grid; increase "
              "resolution");
          return;
        }
        bucket = std::llround(scaled);
      }
      bool merged = false;
      for (Atom& a : atoms) {
        if (a.bucket == bucket) {
          a.prob += b.probability;
          merged = true;
          break;
        }
      }
      if (!merged) atoms.push_back(Atom{bucket, b.probability});
    }
    // Tuples whose every candidate contributes bucket 0 never move the
    // sum; skip them entirely.
    if (atoms.size() == 1 && atoms[0].bucket == 0) return;
    int64_t mn = atoms[0].bucket;
    int64_t mx = atoms[0].bucket;
    for (const Atom& a : atoms) {
      mn = std::min(mn, a.bucket);
      mx = std::max(mx, a.bucket);
    }
    total_min += mn;
    total_max += mx;
    tuples.push_back(std::move(atoms));
  });
  AQUA_RETURN_NOT_OK(scan_status);

  const uint64_t width = static_cast<uint64_t>(total_max - total_min) + 1;
  if (width > options.max_buckets) {
    return Status::ResourceExhausted(
        "quantised sum range needs " + std::to_string(width) +
        " buckets, over the limit of " + std::to_string(options.max_buckets) +
        "; increase resolution or max_buckets");
  }
  AQUA_RETURN_NOT_OK(ExecChargeBytes(ctx, 2 * width * sizeof(double)));

  // DP over the reachable sum window. pd[s] = Pr(sum == total_min + s)
  // over the tuples processed so far; window grows with each tuple.
  std::vector<double> pd(width, 0.0);
  std::vector<double> next(width, 0.0);
  // Offsets are relative to the running minimum so pd[0] is always the
  // smallest reachable sum.
  int64_t base = 0;  // running sum of per-tuple minima, relative origin
  pd[0] = 1.0;
  uint64_t reach = 1;  // number of occupied slots
  for (const std::vector<Atom>& atoms : tuples) {
    // Pseudo-polynomial inner work: one step per occupied DP slot.
    AQUA_RETURN_NOT_OK(ExecCharge(ctx, reach));
    int64_t mn = atoms[0].bucket;
    int64_t mx = atoms[0].bucket;
    for (const Atom& a : atoms) {
      mn = std::min(mn, a.bucket);
      mx = std::max(mx, a.bucket);
    }
    const uint64_t new_reach = reach + static_cast<uint64_t>(mx - mn);
    std::fill(next.begin(), next.begin() + static_cast<ptrdiff_t>(new_reach),
              0.0);
    for (uint64_t s = 0; s < reach; ++s) {
      const double p = pd[s];
      // aqua-lint: allow(float-equality) — skipping exactly-zero DP cells is a sparsity fast path, not a tolerance comparison.
      if (p == 0.0) continue;
      for (const Atom& a : atoms) {
        next[s + static_cast<uint64_t>(a.bucket - mn)] += p * a.prob;
      }
    }
    pd.swap(next);
    reach = new_reach;
    base += mn;
  }

  std::vector<Distribution::Entry> entries;
  for (uint64_t s = 0; s < reach; ++s) {
    if (pd[s] > 0.0) {
      entries.push_back(Distribution::Entry{
          static_cast<double>(base + static_cast<int64_t>(s)) *
              options.resolution,
          pd[s]});
    }
  }
  if (entries.empty()) entries.push_back(Distribution::Entry{0.0, 1.0});
  return Distribution::FromEntries(std::move(entries));
}

Result<NaiveAnswer> ByTupleSum::DistAvgQuantized(
    const AggregateQuery& query, const PMapping& pmapping, const Table& source,
    const QuantizedDistOptions& options, RowSpan rows,
    ExecContext* ctx) {
  obs::TraceSpan span("ByTupleSum::DistAvgQuantized");
  if (options.resolution <= 0.0) {
    return Status::InvalidArgument("resolution must be positive");
  }
  AQUA_ASSIGN_OR_RETURN(
      std::vector<Reformulator::MappingBinding> bindings,
      BindChecked(query, pmapping, source, AggregateFunction::kAvg));

  struct Atom {
    int64_t bucket;
    double prob;
  };
  struct TupleAtoms {
    std::vector<Atom> atoms;  // satisfying contributions
    double excluded = 0.0;    // probability of contributing nothing
  };
  std::vector<TupleAtoms> tuples;
  int64_t sum_min = 0;  // over included choices only (exclusion adds 0)
  int64_t sum_max = 0;
  Status scan_status = Status::OK();
  rows.ForEach(source.num_rows(), [&](size_t r) {
    if (!scan_status.ok()) return;
    TupleAtoms t;
    for (const auto& b : bindings) {
      if (!TupleSatisfies(b, source, r)) {
        t.excluded += b.probability;
        continue;
      }
      const double scaled = b.attribute->NumericAt(r) / options.resolution;
      if (std::fabs(scaled) >=
          static_cast<double>(std::numeric_limits<int64_t>::max()) / 4) {
        scan_status = Status::OutOfRange(
            "attribute value overflows the quantisation grid; increase "
            "resolution");
        return;
      }
      const int64_t bucket = std::llround(scaled);
      bool merged = false;
      for (Atom& a : t.atoms) {
        if (a.bucket == bucket) {
          a.prob += b.probability;
          merged = true;
          break;
        }
      }
      if (!merged) t.atoms.push_back(Atom{bucket, b.probability});
    }
    if (t.atoms.empty()) return;  // never qualifies: irrelevant to AVG
    int64_t mn = t.atoms[0].bucket;
    int64_t mx = t.atoms[0].bucket;
    for (const Atom& a : t.atoms) {
      mn = std::min(mn, a.bucket);
      mx = std::max(mx, a.bucket);
    }
    sum_min += std::min<int64_t>(0, mn);
    sum_max += std::max<int64_t>(0, mx);
    tuples.push_back(std::move(t));
  });
  AQUA_RETURN_NOT_OK(scan_status);

  NaiveAnswer answer;
  const size_t n = tuples.size();
  if (n == 0) {
    answer.undefined_mass = 1.0;
    return answer;
  }
  const uint64_t width = static_cast<uint64_t>(sum_max - sum_min) + 1;
  const uint64_t states = (static_cast<uint64_t>(n) + 1) * width;
  if (states > options.max_states) {
    return Status::ResourceExhausted(
        "joint (count, sum) DP needs " + std::to_string(states) +
        " states, over the limit of " + std::to_string(options.max_states) +
        "; increase resolution or max_states");
  }

  AQUA_RETURN_NOT_OK(ExecChargeBytes(ctx, 2 * states * sizeof(double)));
  // pd[c * width + s] = Pr(count == c, sum == sum_min + s). Double buffer
  // because a tuple both shifts (c, s) and keeps it (exclusion).
  std::vector<double> pd(states, 0.0);
  std::vector<double> next(states, 0.0);
  const size_t origin = static_cast<size_t>(-sum_min);  // s index of sum 0
  pd[origin] = 1.0;  // c = 0
  for (const TupleAtoms& t : tuples) {
    // One step per joint-DP state touched for this tuple.
    AQUA_RETURN_NOT_OK(ExecCharge(ctx, states));
    std::fill(next.begin(), next.end(), 0.0);
    for (size_t c = 0; c < n; ++c) {  // c = n only reachable at the end
      const double* row = &pd[c * width];
      double* keep = &next[c * width];
      double* bump = &next[(c + 1) * width];
      for (uint64_t s = 0; s < width; ++s) {
        const double p = row[s];
        // aqua-lint: allow(float-equality) — skipping exactly-zero DP cells is a sparsity fast path, not a tolerance comparison.
        if (p == 0.0) continue;
        keep[s] += p * t.excluded;
        for (const Atom& a : t.atoms) {
          bump[s + static_cast<uint64_t>(a.bucket)] += p * a.prob;
        }
      }
    }
    // Row c = n of pd can only exist after the last tuple; copy it too.
    const double* last = &pd[n * width];
    double* keep = &next[n * width];
    for (uint64_t s = 0; s < width; ++s) keep[s] += last[s] * t.excluded;
    pd.swap(next);
  }

  // Collapse (c, s) -> AVG = (sum_min + s) * resolution / c.
  std::unordered_map<double, double> mass;
  answer.undefined_mass = pd[origin];  // c = 0
  for (size_t c = 1; c <= n; ++c) {
    for (uint64_t s = 0; s < width; ++s) {
      const double p = pd[c * width + s];
      // aqua-lint: allow(float-equality) — skipping exactly-zero DP cells is a sparsity fast path, not a tolerance comparison.
      if (p == 0.0) continue;
      const double sum =
          (static_cast<double>(sum_min) + static_cast<double>(s)) *
          options.resolution;
      mass[sum / static_cast<double>(c)] += p;
    }
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

Result<double> ByTupleSum::ExpectedSumLinear(const AggregateQuery& query,
                                             const PMapping& pmapping,
                                             const Table& source,
                                             RowSpan rows,
                                             ExecContext* ctx) {
  obs::TraceSpan span("ByTupleSum::ExpectedSumLinear");
  AQUA_ASSIGN_OR_RETURN(
      std::vector<Reformulator::MappingBinding> bindings,
      BindChecked(query, pmapping, source, AggregateFunction::kSum));
  AQUA_RETURN_NOT_OK(
      ExecCharge(ctx, rows.size(source.num_rows()) * bindings.size()));
  AQUA_RETURN_NOT_OK(ExecCheckNow(ctx));
  double expected = 0.0;
  rows.ForEach(source.num_rows(), [&](size_t r) {
    for (const auto& b : bindings) {
      if (TupleSatisfies(b, source, r)) {
        expected += b.probability * b.attribute->NumericAt(r);
      }
    }
  });
  return expected;
}

Result<Interval> ByTupleSum::RangeAvgPaper(const AggregateQuery& query,
                                           const PMapping& pmapping,
                                           const Table& source,
                                           RowSpan rows,
                                           ExecContext* ctx) {
  obs::TraceSpan span("ByTupleSum::RangeAvgPaper");
  AQUA_ASSIGN_OR_RETURN(
      std::vector<Reformulator::MappingBinding> bindings,
      BindChecked(query, pmapping, source, AggregateFunction::kAvg));
  AQUA_RETURN_NOT_OK(
      ExecCharge(ctx, rows.size(source.num_rows()) * bindings.size()));
  AQUA_RETURN_NOT_OK(ExecCheckNow(ctx));
  double low_sum = 0.0, up_sum = 0.0;
  int64_t low_cnt = 0, up_cnt = 0;
  rows.ForEach(source.num_rows(), [&](size_t r) {
    const TupleStats s = Summarise(bindings, source, r);
    if (!s.any) return;
    low_sum += s.vmin;
    ++low_cnt;
    up_sum += s.vmax;
    ++up_cnt;
  });
  if (low_cnt == 0) {
    return Status::InvalidArgument(
        "AVG is undefined: no tuple satisfies the condition under any "
        "mapping");
  }
  return Interval{low_sum / static_cast<double>(low_cnt),
                  up_sum / static_cast<double>(up_cnt)};
}

Result<Interval> ByTupleSum::RangeAvgExact(const AggregateQuery& query,
                                           const PMapping& pmapping,
                                           const Table& source,
                                           RowSpan rows,
                                           ExecContext* ctx) {
  obs::TraceSpan span("ByTupleSum::RangeAvgExact");
  AQUA_ASSIGN_OR_RETURN(
      std::vector<Reformulator::MappingBinding> bindings,
      BindChecked(query, pmapping, source, AggregateFunction::kAvg));
  AQUA_RETURN_NOT_OK(
      ExecCharge(ctx, rows.size(source.num_rows()) * bindings.size()));
  AQUA_RETURN_NOT_OK(ExecCheckNow(ctx));
  double mand_min_sum = 0.0, mand_max_sum = 0.0;
  int64_t mand_cnt = 0;
  std::vector<double> opt_min, opt_max;  // optional tuples' extreme values
  rows.ForEach(source.num_rows(), [&](size_t r) {
    const TupleStats s = Summarise(bindings, source, r);
    if (!s.any) return;
    if (s.all) {
      mand_min_sum += s.vmin;
      mand_max_sum += s.vmax;
      ++mand_cnt;
    } else {
      opt_min.push_back(s.vmin);
      opt_max.push_back(s.vmax);
    }
  });
  if (mand_cnt == 0 && opt_min.empty()) {
    return Status::InvalidArgument(
        "AVG is undefined: no tuple satisfies the condition under any "
        "mapping");
  }

  // Minimising the mean: optional tuples, each offering its smallest
  // satisfying value, are added in ascending order while they pull the
  // running mean down (the sorted greedy is optimal: an optional value
  // helps iff it is below the mean of the optimum it joins).
  auto optimise = [](double base_sum, int64_t base_cnt,
                     std::vector<double>& options, bool minimise) {
    std::sort(options.begin(), options.end());
    if (!minimise) std::reverse(options.begin(), options.end());
    double sum = base_sum;
    int64_t cnt = base_cnt;
    size_t i = 0;
    if (cnt == 0) {
      // At least one tuple must be included for AVG to be defined.
      sum = options[0];
      cnt = 1;
      i = 1;
    }
    for (; i < options.size(); ++i) {
      const double mean = sum / static_cast<double>(cnt);
      const bool improves = minimise ? options[i] < mean : options[i] > mean;
      if (!improves) break;
      sum += options[i];
      ++cnt;
    }
    return sum / static_cast<double>(cnt);
  };

  const double low =
      optimise(mand_min_sum, mand_cnt, opt_min, /*minimise=*/true);
  const double up =
      optimise(mand_max_sum, mand_cnt, opt_max, /*minimise=*/false);
  return Interval{low, up};
}

}  // namespace aqua
