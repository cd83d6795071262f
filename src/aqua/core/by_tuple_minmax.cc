#include "aqua/core/by_tuple_minmax.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "aqua/common/check.h"
#include "aqua/core/row_lanes.h"
#include "aqua/core/tuple_scan.h"
#include "aqua/obs/trace.h"

namespace aqua {
namespace {

struct Extremes {
  bool has_any = false;        // some tuple can satisfy
  bool has_mandatory = false;  // some tuple satisfies under all mappings
  // Over tuples with >= 1 satisfying mapping:
  double any_min_of_vmin = std::numeric_limits<double>::infinity();
  double any_max_of_vmax = -std::numeric_limits<double>::infinity();
  // Over mandatory tuples:
  double mand_max_of_vmin = -std::numeric_limits<double>::infinity();
  double mand_min_of_vmax = std::numeric_limits<double>::infinity();

  /// Folds one block's rows in order. No running value is ever NaN: it
  /// starts infinite and takes a value only where that compares beyond
  /// it. So a row that does not count can offer the running value's own
  /// start, which never compares beyond it, and each step is one
  /// std::min/std::max with no branch, NaNs and signed zeros folding as
  /// they did row by row. Not inlined: see `TupleScan::Run`.
  [[gnu::noinline]] void Add(const TupleBlock& block) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const TupleBlock::Summary t = block.Extremes();
    double any_min = any_min_of_vmin;
    double any_max = any_max_of_vmax;
    double mand_max = mand_max_of_vmin;
    double mand_min = mand_min_of_vmax;
    uint64_t any_seen = has_any;
    uint64_t all_seen = has_mandatory;
    // The offered values are picked two rows at a time and folded one row
    // at a time.
    auto fold = [&](auto a_min, auto a_max, auto m_max, auto m_min,
                    size_t row) {
      any_min = std::min(any_min, a_min[row]);
      any_max = std::max(any_max, a_max[row]);
      mand_max = std::max(mand_max, m_max[row]);
      mand_min = std::min(mand_min, m_min[row]);
    };
    const lanes::Vec2d inf = lanes::Splat(kInf);
    const lanes::Vec2d minus_inf = lanes::Splat(-kInf);
    size_t i = 0;
    for (; i + lanes::kGroup <= block.size(); i += lanes::kGroup) {
      const uint64_t any_word = lanes::LoadWord(t.any + i);
      const uint64_t all_word = lanes::LoadWord(t.all + i);
      any_seen |= any_word;
      all_seen |= all_word;
      lanes::Vec2l any[lanes::kPairs] = {};
      lanes::Vec2l all[lanes::kPairs] = {};
      lanes::SpreadMasks(any_word, any);
      lanes::SpreadMasks(all_word, all);
      lanes::EachPair([&](size_t k) {
        const lanes::Vec2d vmin = lanes::Load2(t.vmin + i + 2 * k);
        const lanes::Vec2d vmax = lanes::Load2(t.vmax + i + 2 * k);
        const lanes::Vec2d a_min = lanes::Blend(any[k], vmin, inf);
        const lanes::Vec2d a_max = lanes::Blend(any[k], vmax, minus_inf);
        const lanes::Vec2d m_max = lanes::Blend(all[k], vmin, minus_inf);
        const lanes::Vec2d m_min = lanes::Blend(all[k], vmax, inf);
        fold(a_min, a_max, m_max, m_min, 0);
        fold(a_min, a_max, m_max, m_min, 1);
      });
    }
    for (; i < block.size(); ++i) {
      const uint8_t any = t.any[i];
      const uint8_t all = t.all[i];
      const double a_min[] = {TupleBlock::Select(any, t.vmin[i], kInf)};
      const double a_max[] = {TupleBlock::Select(any, t.vmax[i], -kInf)};
      const double m_max[] = {TupleBlock::Select(all, t.vmin[i], -kInf)};
      const double m_min[] = {TupleBlock::Select(all, t.vmax[i], kInf)};
      fold(a_min, a_max, m_max, m_min, 0);
      any_seen |= any;
      all_seen |= all;
    }
    any_min_of_vmin = any_min;
    any_max_of_vmax = any_max;
    mand_max_of_vmin = mand_max;
    mand_min_of_vmax = mand_min;
    has_any = any_seen != 0;
    has_mandatory = all_seen != 0;
  }
};

/// Folds the per-tuple extreme values of `rows` into `Extremes`.
Result<Extremes> Collect(const TupleScan& scan, RowSpan rows,
                         AggregateFunction func, ExecContext* ctx) {
  Extremes e;
  AQUA_RETURN_NOT_OK(scan.Run(rows, ctx, [&](const TupleBlock& block) {
    e.Add(block);
  }));
  if (!e.has_any) {
    return Status::InvalidArgument(
        std::string(AggregateFunctionToString(func)) +
        " is undefined: no tuple satisfies the condition under any mapping");
  }
  return e;
}

}  // namespace

Result<Interval> ByTupleMinMax::RangeMax(const AggregateQuery& query,
                                         const PMapping& pmapping,
                                         const Table& source,
                                         RowSpan rows,
                                         ExecContext* ctx) {
  obs::TraceSpan span("ByTupleMinMax::RangeMax");
  AQUA_ASSIGN_OR_RETURN(
      TupleScan scan,
      TupleScan::Bind(query, AggregateFunction::kMax, pmapping, source));
  AQUA_ASSIGN_OR_RETURN(Extremes e,
                        Collect(scan, rows, AggregateFunction::kMax, ctx));
  // Upper: include the tuple/mapping pair with the globally largest value.
  const double up = e.any_max_of_vmax;
  // Lower: mandatory tuples force the max up to the largest of their
  // minima; with no mandatory tuple, the cheapest defined outcome keeps
  // only the tuple whose minimum satisfying value is smallest.
  const double low =
      e.has_mandatory ? e.mand_max_of_vmin : e.any_min_of_vmin;
  return Interval{low, up};
}

Result<Interval> ByTupleMinMax::RangeMin(const AggregateQuery& query,
                                         const PMapping& pmapping,
                                         const Table& source,
                                         RowSpan rows,
                                         ExecContext* ctx) {
  obs::TraceSpan span("ByTupleMinMax::RangeMin");
  AQUA_ASSIGN_OR_RETURN(
      TupleScan scan,
      TupleScan::Bind(query, AggregateFunction::kMin, pmapping, source));
  AQUA_ASSIGN_OR_RETURN(Extremes e,
                        Collect(scan, rows, AggregateFunction::kMin, ctx));
  const double low = e.any_min_of_vmin;
  const double up = e.has_mandatory ? e.mand_min_of_vmax : e.any_max_of_vmax;
  return Interval{low, up};
}

namespace {

/// A running product of positive factors, kept as a frexp-normalised
/// mantissa and a binary exponent so that it never underflows: over
/// hundreds of thousands of tuples the plain double product reaches 0.0,
/// and multiplying by a later ratio cannot bring it back. Scaling by a
/// power of two is exact, so the bits match the plain product wherever
/// that product stays normal.
class ScaledProduct {
 public:
  void Multiply(double factor) {
    int exp = 0;
    mantissa_ = std::frexp(mantissa_ * factor, &exp);
    exponent_ += exp;
  }

  double Value() const {
    // Anything below 2^-1100 reads as zero; the clamp only keeps the
    // conversion to int in range.
    return std::ldexp(mantissa_,
                      static_cast<int>(std::max<int64_t>(exponent_, -1100)));
  }

 private:
  double mantissa_ = 1.0;
  int64_t exponent_ = 0;
};

/// Shared sweep for DistMax/DistMin. `toward_max` selects the direction:
/// MAX sweeps candidate values ascending accumulating P(MAX <= x); MIN
/// sweeps descending accumulating P(MIN >= x).
Result<NaiveAnswer> DistExtremum(const AggregateQuery& query,
                                 const PMapping& pmapping, const Table& source,
                                 RowSpan rows,
                                 AggregateFunction func, bool toward_max,
                                 ExecContext* ctx) {
  AQUA_ASSIGN_OR_RETURN(TupleScan scan,
                        TupleScan::Bind(query, func, pmapping, source));

  // Events: one per satisfying (tuple, mapping) pair. Sorted by value in
  // sweep order, applying an event moves probability mass Pr(m_j) of its
  // tuple from "not yet covered" into q_i.
  struct Event {
    double value;
    uint32_t tuple;  // dense index over visited rows
    double prob;
  };
  std::vector<Event> events;
  std::vector<double> excluded;  // per-tuple Pr(contributes nothing)
  AQUA_RETURN_NOT_OK(scan.Run(rows, ctx, [&](const TupleBlock& block) {
    const uint8_t* const any = block.AnyAll().any;
    const double* const prob = block.prob();
    for (size_t i = 0; i < block.size(); ++i) {
      // A tuple that never contributes drops out of the product entirely.
      if (any[i] == 0) continue;
      const auto tuple = static_cast<uint32_t>(excluded.size());
      double excl = 0.0;
      for (size_t j = 0; j < block.m(); ++j) {
        if (block.sat(j)[i] != 0) {
          events.push_back(Event{block.value(j)[i], tuple, prob[j]});
        } else {
          excl += prob[j];
        }
      }
      excluded.push_back(excl);
    }
  }));

  NaiveAnswer answer;
  if (events.empty()) {
    answer.undefined_mass = 1.0;
    return answer;
  }
  // The sort and sweep are both O(E log E) / O(E) over the event list;
  // charge the events once (with their log factor) before sorting.
  AQUA_RETURN_NOT_OK(ExecChargeBytes(ctx, events.size() * sizeof(Event)));
  AQUA_RETURN_NOT_OK(ExecCharge(ctx, events.size()));
  AQUA_RETURN_NOT_OK(ExecCheckNow(ctx));
  std::sort(events.begin(), events.end(),
            [&](const Event& a, const Event& b) {
              return toward_max ? a.value < b.value : a.value > b.value;
            });

  // Running product of q_i over tuples, with explicit zero tracking so a
  // q_i leaving zero never divides by zero.
  std::vector<double> q = excluded;
  size_t zeros = 0;
  ScaledProduct product;
  double undefined = 1.0;
  for (double e : q) {
    // Exact-zero factors are tracked separately so the running product
    // never collapses to 0.
    // aqua-lint: allow(float-equality)
    if (e == 0.0) {
      ++zeros;
    } else {
      product.Multiply(e);
    }
    undefined *= e;
  }
  answer.undefined_mass = undefined;

  // Sweep: after absorbing all events at value x, the running product is
  // P(extremum is defined and bounded by x) + undefined mass; the atom at
  // x is the increase over the previous cumulative value.
  double prev_cdf = undefined;  // P(all excluded) = "bounded by" vacuously
  double mass = 0.0;
  std::vector<Distribution::Entry> entries;
  size_t pos = 0;
  while (pos < events.size()) {
    AQUA_RETURN_NOT_OK(ExecCharge(ctx, 1));
    const double x = events[pos].value;
    while (pos < events.size() && events[pos].value == x) {
      const Event& ev = events[pos];
      const double old_q = q[ev.tuple];
      const double new_q = old_q + ev.prob;
      // Mirrors the exact-zero tracking above; old_q is 0.0 only if it
      // was never touched.
      // aqua-lint: allow(float-equality)
      if (old_q == 0.0) {
        --zeros;
        product.Multiply(new_q);
      } else {
        product.Multiply(new_q / old_q);
      }
      q[ev.tuple] = new_q;
      ++pos;
    }
    const double cdf = zeros > 0 ? 0.0 : product.Value();
    const double atom = cdf - prev_cdf;
    if (atom > 0.0) {
      entries.push_back(Distribution::Entry{x, atom});
      mass += atom;
    }
    prev_cdf = cdf;
  }
  // Every tuple's q_i ends at 1, so the atoms telescope to 1 minus the
  // undefined mass; a shortfall means the running product lost its mass.
  if (ParanoidChecksEnabled()) {
    AQUA_CHECK(std::fabs(mass + undefined - 1.0) <=
               1e-9 + 1e-13 * static_cast<double>(events.size()))
        << (toward_max ? "MAX" : "MIN") << " distribution mass " << mass
        << " plus undefined mass " << undefined << " is not 1";
  }
  AQUA_ASSIGN_OR_RETURN(answer.distribution,
                        Distribution::FromEntries(std::move(entries)));
  return answer;
}

}  // namespace

Result<NaiveAnswer> ByTupleMinMax::DistMax(const AggregateQuery& query,
                                           const PMapping& pmapping,
                                           const Table& source,
                                           RowSpan rows,
                                           ExecContext* ctx) {
  obs::TraceSpan span("ByTupleMinMax::DistMax");
  return DistExtremum(query, pmapping, source, rows, AggregateFunction::kMax,
                      /*toward_max=*/true, ctx);
}

Result<NaiveAnswer> ByTupleMinMax::DistMin(const AggregateQuery& query,
                                           const PMapping& pmapping,
                                           const Table& source,
                                           RowSpan rows,
                                           ExecContext* ctx) {
  obs::TraceSpan span("ByTupleMinMax::DistMin");
  return DistExtremum(query, pmapping, source, rows, AggregateFunction::kMin,
                      /*toward_max=*/false, ctx);
}

Result<double> ByTupleMinMax::ExpectedMax(const AggregateQuery& query,
                                          const PMapping& pmapping,
                                          const Table& source,
                                          RowSpan rows,
                                          ExecContext* ctx) {
  obs::TraceSpan span("ByTupleMinMax::ExpectedMax");
  AQUA_ASSIGN_OR_RETURN(NaiveAnswer answer,
                        DistMax(query, pmapping, source, rows, ctx));
  return DefinedExpectation(answer);
}

Result<double> ByTupleMinMax::ExpectedMin(const AggregateQuery& query,
                                          const PMapping& pmapping,
                                          const Table& source,
                                          RowSpan rows,
                                          ExecContext* ctx) {
  obs::TraceSpan span("ByTupleMinMax::ExpectedMin");
  AQUA_ASSIGN_OR_RETURN(NaiveAnswer answer,
                        DistMin(query, pmapping, source, rows, ctx));
  return DefinedExpectation(answer);
}

}  // namespace aqua
