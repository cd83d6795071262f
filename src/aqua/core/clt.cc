#include "aqua/core/clt.h"

#include <cmath>

#include "aqua/common/check.h"
#include "aqua/core/tuple_scan.h"
#include "aqua/obs/trace.h"

namespace aqua {
namespace {

// Acklam's rational approximation of the standard normal quantile.
double StandardNormalQuantile(double p) {
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00, 2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  constexpr double p_high = 1.0 - p_low;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= p_high) {
    const double q = p - 0.5;
    const double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r +
            1.0);
  }
  const double q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

}  // namespace

double NormalApproximation::stddev() const { return std::sqrt(variance); }

double NormalApproximation::Cdf(double x) const {
  if (variance <= 0.0) return x >= mean ? 1.0 : 0.0;
  return 0.5 * std::erfc(-(x - mean) / (stddev() * std::sqrt(2.0)));
}

Result<double> NormalApproximation::Quantile(double p) const {
  if (p <= 0.0 || p >= 1.0) {
    return Status::InvalidArgument(
        "quantile level must lie strictly inside (0, 1)");
  }
  if (variance <= 0.0) return mean;
  return mean + stddev() * StandardNormalQuantile(p);
}

Result<Interval> NormalApproximation::CredibleInterval(double coverage) const {
  if (coverage <= 0.0 || coverage >= 1.0) {
    return Status::InvalidArgument("coverage must lie inside (0, 1)");
  }
  const double tail = (1.0 - coverage) / 2.0;
  AQUA_ASSIGN_OR_RETURN(double low, Quantile(tail));
  AQUA_ASSIGN_OR_RETURN(double high, Quantile(1.0 - tail));
  AQUA_CHECK_INTERVAL(low, high)
      << "(credible interval at coverage " << coverage << ")";
  return Interval{low, high};
}

Result<NormalApproximation> ByTupleCLT::ApproxSum(
    const AggregateQuery& query, const PMapping& pmapping, const Table& source,
    RowSpan rows, ExecContext* ctx) {
  obs::TraceSpan span("ByTupleCLT::ApproxSum");
  AQUA_ASSIGN_OR_RETURN(
      TupleScan scan,
      TupleScan::Bind(query, AggregateFunction::kSum, pmapping, source));
  NormalApproximation approx;
  AQUA_RETURN_NOT_OK(scan.Run(rows, ctx, EachRow([&](const TupleView& t) {
    // Tuple i contributes v_ij with probability Pr(m_j) when it satisfies
    // under m_j, and 0 otherwise.
    double ex = 0.0;   // E[X_i]
    double ex2 = 0.0;  // E[X_i^2]
    // value[j] is 0 where mapping j does not satisfy: those terms add
    // +0.0, which leaves the sums' bits unchanged.
    for (size_t j = 0; j < t.m; ++j) {
      const double v = t.value[j];
      ex += t.prob[j] * v;
      ex2 += t.prob[j] * v * v;
    }
    approx.mean += ex;
    approx.variance += ex2 - ex * ex;
  })));
  if (approx.variance < 0.0) approx.variance = 0.0;  // float guard
  return approx;
}

Result<double> ByTupleCLT::ApproxAvgExpectation(
    const AggregateQuery& query, const PMapping& pmapping, const Table& source,
    RowSpan rows, double min_expected_count,
    ExecContext* ctx) {
  obs::TraceSpan span("ByTupleCLT::ApproxAvgExpectation");
  AQUA_ASSIGN_OR_RETURN(
      TupleScan scan,
      TupleScan::Bind(query, AggregateFunction::kAvg, pmapping, source));
  // Per tuple: s_i = contributed value (0 when excluded), c_i = inclusion
  // indicator. s_i*c_i == s_i, so Cov(s_i, c_i) = E[s_i] - E[s_i]E[c_i].
  double es = 0.0;   // E[S]
  double ec = 0.0;   // E[C]
  double var_c = 0.0;
  double cov_sc = 0.0;
  AQUA_RETURN_NOT_OK(scan.Run(rows, ctx, EachRow([&](const TupleView& t) {
    double e_si = 0.0;
    for (size_t j = 0; j < t.m; ++j) e_si += t.prob[j] * t.value[j];
    const double occ = t.occ();
    es += e_si;
    ec += occ;
    var_c += occ * (1.0 - occ);
    cov_sc += e_si - e_si * occ;
  })));
  if (ec < min_expected_count) {
    return Status::InvalidArgument(
        "expected count " + std::to_string(ec) +
        " is too small for the delta-method expansion (threshold " +
        std::to_string(min_expected_count) + ")");
  }
  return es / ec - cov_sc / (ec * ec) + es * var_c / (ec * ec * ec);
}

Result<NormalApproximation> ByTupleCLT::ApproxCount(
    const AggregateQuery& query, const PMapping& pmapping, const Table& source,
    RowSpan rows, ExecContext* ctx) {
  obs::TraceSpan span("ByTupleCLT::ApproxCount");
  AQUA_ASSIGN_OR_RETURN(
      TupleScan scan,
      TupleScan::Bind(query, AggregateFunction::kCount, pmapping, source));
  NormalApproximation approx;
  AQUA_RETURN_NOT_OK(scan.Run(rows, ctx, EachRow([&](const TupleView& t) {
    const double occ = t.occ();
    approx.mean += occ;
    approx.variance += occ * (1.0 - occ);
  })));
  if (approx.variance < 0.0) approx.variance = 0.0;
  return approx;
}

}  // namespace aqua
