#include "aqua/core/by_tuple_minmax.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "aqua/common/check.h"
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
};

/// Folds the per-tuple extreme values of `rows` into `Extremes`.
Result<Extremes> Collect(const TupleScan& scan, RowSpan rows,
                         AggregateFunction func, ExecContext* ctx) {
  Extremes e;
  AQUA_RETURN_NOT_OK(scan.Run(rows, ctx, [&](const TupleView& t) {
    if (!t.any()) return;
    const double vmin = t.vmin();
    const double vmax = t.vmax();
    e.has_any = true;
    e.any_min_of_vmin = std::min(e.any_min_of_vmin, vmin);
    e.any_max_of_vmax = std::max(e.any_max_of_vmax, vmax);
    if (t.all()) {
      e.has_mandatory = true;
      e.mand_max_of_vmin = std::max(e.mand_max_of_vmin, vmin);
      e.mand_min_of_vmax = std::min(e.mand_min_of_vmax, vmax);
    }
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
  AQUA_RETURN_NOT_OK(scan.Run(rows, ctx, [&](const TupleView& t) {
    // A tuple that never contributes drops out of the product entirely.
    if (!t.any()) return;
    const auto i = static_cast<uint32_t>(excluded.size());
    double excl = 0.0;
    for (size_t j = 0; j < t.m; ++j) {
      if (t.sat[j]) {
        events.push_back(Event{t.value[j], i, t.prob[j]});
      } else {
        excl += t.prob[j];
      }
    }
    excluded.push_back(excl);
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
