#include "aqua/core/by_tuple_sum.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "aqua/core/by_table.h"
#include "aqua/core/row_lanes.h"
#include "aqua/core/tuple_scan.h"
#include "aqua/obs/trace.h"

namespace aqua {
namespace {

/// A contribution snapped to the quantisation grid, with its probability.
struct Atom {
  int64_t bucket;
  double prob;
};

/// Adds `prob` to the atom at `bucket`, or appends a new atom.
void AddAtom(std::vector<Atom>* atoms, int64_t bucket, double prob) {
  for (Atom& a : *atoms) {
    if (a.bucket == bucket) {
      a.prob += prob;
      return;
    }
  }
  atoms->push_back(Atom{bucket, prob});
}

/// Snaps `value` to the grid of step `resolution`.
Result<int64_t> Quantise(double value, double resolution) {
  const double scaled = value / resolution;
  if (std::fabs(scaled) >=
      static_cast<double>(std::numeric_limits<int64_t>::max()) / 4) {
    return Status::OutOfRange(
        "attribute value overflows the quantisation grid; increase "
        "resolution");
  }
  return std::llround(scaled);
}

// The range and expected-value folds, one block per `Add` (not inlined:
// see `TupleScan::Run`). Each runs its rows in order, mappings in binding
// order, and adds +0.0 for a pair or a tuple that contributes nothing,
// which leaves a sum's bits unchanged (the sums start at +0.0, so they are
// never -0.0).

/// Paper Figure 4: per tuple, the smallest and largest contribution.
struct RangeSumFold {
  double low = 0.0;
  double up = 0.0;

  [[gnu::noinline]] void Add(const TupleBlock& block) {
    const TupleBlock::Summary e = block.Extremes();
    double lo = low;
    double hi = up;
    // A tuple that can also be excluded, by picking a non-satisfying
    // mapping, may take 0 instead of an extreme value: std::min(0.0, vmin)
    // and std::max(0.0, vmax). One satisfying under no mapping has
    // extremes 0. The contributions are picked two rows at a time and
    // added one row at a time.
    size_t i = 0;
    for (; i + lanes::kGroup <= block.size(); i += lanes::kGroup) {
      lanes::Vec2l all[lanes::kPairs] = {};
      lanes::SpreadMasks(lanes::LoadWord(e.all + i), all);
      lanes::EachPair([&](size_t k) {
        const lanes::Vec2d zero{};
        const lanes::Vec2d vmin = lanes::Load2(e.vmin + i + 2 * k);
        const lanes::Vec2d vmax = lanes::Load2(e.vmax + i + 2 * k);
        const lanes::Vec2d l = lanes::Blend(
            all[k], vmin, lanes::Blend(lanes::Less(vmin, zero), vmin, zero));
        const lanes::Vec2d h = lanes::Blend(
            all[k], vmax, lanes::Blend(lanes::Less(zero, vmax), vmax, zero));
        lo += l[0];
        hi += h[0];
        lo += l[1];
        hi += h[1];
      });
    }
    for (; i < block.size(); ++i) {
      lo += TupleBlock::Select(e.all[i], e.vmin[i], std::min(0.0, e.vmin[i]));
      hi += TupleBlock::Select(e.all[i], e.vmax[i], std::max(0.0, e.vmax[i]));
    }
    low = lo;
    up = hi;
  }
};

/// E[SUM] = sum over (tuple, mapping) of Pr(m_j) * v_ij * [satisfies].
struct ExpectedSumFold {
  double sum = 0.0;

  [[gnu::noinline]] void Add(const TupleBlock& block) {
    const double* const prob = block.prob();
    double total = sum;
    for (size_t i = 0; i < block.size(); ++i) {
      for (size_t j = 0; j < block.m(); ++j) {
        total += prob[j] * TupleBlock::Select(block.sat(j)[i],
                                              block.value(j)[i], 0.0);
      }
    }
    sum = total;
  }
};

/// The paper's AVG range: SUM-range bounds over the tuples that can
/// participate, and their count.
struct RangeAvgPaperFold {
  double low_sum = 0.0;
  double up_sum = 0.0;
  int64_t count = 0;

  [[gnu::noinline]] void Add(const TupleBlock& block) {
    const TupleBlock::Summary e = block.Extremes();
    double lo = low_sum;
    double hi = up_sum;
    int64_t n = count;
    for (size_t i = 0; i < block.size(); ++i) {
      lo += e.vmin[i];
      hi += e.vmax[i];
      n += e.any[i];
    }
    low_sum = lo;
    up_sum = hi;
    count = n;
  }
};

/// The tight AVG range's inputs: the mandatory tuples' sums and count,
/// and every optional tuple's extremes.
struct RangeAvgExactFold {
  double mand_min_sum = 0.0;
  double mand_max_sum = 0.0;
  int64_t mand_cnt = 0;
  std::vector<double> opt_min;
  std::vector<double> opt_max;

  [[gnu::noinline]] void Add(const TupleBlock& block) {
    const TupleBlock::Summary e = block.Extremes();
    double min_sum = mand_min_sum;
    double max_sum = mand_max_sum;
    int64_t cnt = mand_cnt;
    // Optional tuples are packed onto the ends of opt_min/opt_max: every
    // row is written, and the end advances past the optional ones only.
    size_t k = opt_min.size();
    opt_min.resize(k + block.size());
    opt_max.resize(k + block.size());
    for (size_t i = 0; i < block.size(); ++i) {
      min_sum += TupleBlock::Select(e.all[i], e.vmin[i], 0.0);
      max_sum += TupleBlock::Select(e.all[i], e.vmax[i], 0.0);
      cnt += e.all[i];
      opt_min[k] = e.vmin[i];
      opt_max[k] = e.vmax[i];
      k += e.any[i] & (e.all[i] ^ 1);
    }
    opt_min.resize(k);
    opt_max.resize(k);
    mand_min_sum = min_sum;
    mand_max_sum = max_sum;
    mand_cnt = cnt;
  }
};

}  // namespace

Result<Interval> ByTupleSum::RangeSum(const AggregateQuery& query,
                                      const PMapping& pmapping,
                                      const Table& source,
                                      RowSpan rows,
                                      ExecContext* ctx) {
  obs::TraceSpan span("ByTupleSum::RangeSum");
  AQUA_ASSIGN_OR_RETURN(
      TupleScan scan,
      TupleScan::Bind(query, AggregateFunction::kSum, pmapping, source));
  RangeSumFold fold;
  AQUA_RETURN_NOT_OK(scan.Run(rows, ctx, [&](const TupleBlock& block) {
    fold.Add(block);
  }));
  return Interval{fold.low, fold.up};
}

Result<double> ByTupleSum::ExpectedSum(const AggregateQuery& query,
                                       const PMapping& pmapping,
                                       const Table& source) {
  obs::TraceSpan span("ByTupleSum::ExpectedSum");
  AQUA_RETURN_NOT_OK(TupleScan::CheckShape(query, AggregateFunction::kSum));
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
      TupleScan scan,
      TupleScan::Bind(query, AggregateFunction::kSum, pmapping, source));

  // Per-tuple contribution atoms on the bucket grid: (bucket, probability)
  // with equal buckets merged. A non-satisfying mapping contributes
  // bucket 0.
  std::vector<std::vector<Atom>> tuples;
  int64_t total_min = 0;
  int64_t total_max = 0;
  Status scan_status = Status::OK();
  AQUA_RETURN_NOT_OK(scan.Run(rows, ctx, EachRow([&](const TupleView& t) {
    if (!scan_status.ok()) return;
    std::vector<Atom> atoms;
    for (size_t j = 0; j < t.m; ++j) {
      int64_t bucket = 0;
      if (t.sat[j]) {
        Result<int64_t> q = Quantise(t.value[j], options.resolution);
        if (!q.ok()) {
          scan_status = q.status();
          return;
        }
        bucket = *q;
      }
      AddAtom(&atoms, bucket, t.prob[j]);
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
  })));
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
      TupleScan scan,
      TupleScan::Bind(query, AggregateFunction::kAvg, pmapping, source));

  struct TupleAtoms {
    std::vector<Atom> atoms;  // satisfying contributions
    double excluded = 0.0;    // probability of contributing nothing
  };
  std::vector<TupleAtoms> tuples;
  int64_t sum_min = 0;  // over included choices only (exclusion adds 0)
  int64_t sum_max = 0;
  Status scan_status = Status::OK();
  AQUA_RETURN_NOT_OK(scan.Run(rows, ctx, EachRow([&](const TupleView& t) {
    if (!scan_status.ok()) return;
    TupleAtoms ta;
    for (size_t j = 0; j < t.m; ++j) {
      if (!t.sat[j]) {
        ta.excluded += t.prob[j];
        continue;
      }
      Result<int64_t> q = Quantise(t.value[j], options.resolution);
      if (!q.ok()) {
        scan_status = q.status();
        return;
      }
      AddAtom(&ta.atoms, *q, t.prob[j]);
    }
    if (ta.atoms.empty()) return;  // never qualifies: irrelevant to AVG
    int64_t mn = ta.atoms[0].bucket;
    int64_t mx = ta.atoms[0].bucket;
    for (const Atom& a : ta.atoms) {
      mn = std::min(mn, a.bucket);
      mx = std::max(mx, a.bucket);
    }
    sum_min += std::min<int64_t>(0, mn);
    sum_max += std::max<int64_t>(0, mx);
    tuples.push_back(std::move(ta));
  })));
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
      TupleScan scan,
      TupleScan::Bind(query, AggregateFunction::kSum, pmapping, source));
  ExpectedSumFold fold;
  AQUA_RETURN_NOT_OK(scan.Run(rows, ctx, [&](const TupleBlock& block) {
    fold.Add(block);
  }));
  return fold.sum;
}

Result<Interval> ByTupleSum::RangeAvgPaper(const AggregateQuery& query,
                                           const PMapping& pmapping,
                                           const Table& source,
                                           RowSpan rows,
                                           ExecContext* ctx) {
  obs::TraceSpan span("ByTupleSum::RangeAvgPaper");
  AQUA_ASSIGN_OR_RETURN(
      TupleScan scan,
      TupleScan::Bind(query, AggregateFunction::kAvg, pmapping, source));
  RangeAvgPaperFold fold;
  AQUA_RETURN_NOT_OK(scan.Run(rows, ctx, [&](const TupleBlock& block) {
    fold.Add(block);
  }));
  if (fold.count == 0) {
    return Status::InvalidArgument(
        "AVG is undefined: no tuple satisfies the condition under any "
        "mapping");
  }
  // Each bound divides by the tuples that can participate.
  return Interval{fold.low_sum / static_cast<double>(fold.count),
                  fold.up_sum / static_cast<double>(fold.count)};
}

Result<Interval> ByTupleSum::RangeAvgExact(const AggregateQuery& query,
                                           const PMapping& pmapping,
                                           const Table& source,
                                           RowSpan rows,
                                           ExecContext* ctx) {
  obs::TraceSpan span("ByTupleSum::RangeAvgExact");
  AQUA_ASSIGN_OR_RETURN(
      TupleScan scan,
      TupleScan::Bind(query, AggregateFunction::kAvg, pmapping, source));
  RangeAvgExactFold fold;
  AQUA_RETURN_NOT_OK(scan.Run(rows, ctx, [&](const TupleBlock& block) {
    fold.Add(block);
  }));
  if (fold.mand_cnt == 0 && fold.opt_min.empty()) {
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

  const double low = optimise(fold.mand_min_sum, fold.mand_cnt, fold.opt_min,
                              /*minimise=*/true);
  const double up = optimise(fold.mand_max_sum, fold.mand_cnt, fold.opt_max,
                             /*minimise=*/false);
  return Interval{low, up};
}

}  // namespace aqua
