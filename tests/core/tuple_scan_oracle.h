// The per-row by-tuple scan that `TupleScan`'s block folds replaced, kept
// as their oracle. `Evaluate` decides each (row, mapping) pair with
// `BoundPredicate::Eval` and the NULL rule, and folds the summaries in
// mapping order; the kernels below are the per-row folds of the range and
// expected-value algorithms, accumulating rows in span order. A block
// kernel must match them bit for bit, signed zeros and infinities included
// (a NaN matches any NaN). Shared by tests/core/tuple_scan_test.cc and
// fuzz/tuple_scan_fuzz.cc.

#ifndef AQUA_TESTS_CORE_TUPLE_SCAN_ORACLE_H_
#define AQUA_TESTS_CORE_TUPLE_SCAN_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "aqua/common/interval.h"
#include "aqua/common/result.h"
#include "aqua/core/row_span.h"
#include "aqua/reformulate/reformulator.h"

namespace aqua::oracle {

/// One row as every mapping sees it, evaluated on its own.
struct Row {
  size_t row = 0;
  std::vector<uint8_t> sat;
  std::vector<double> value;  // 0 where not satisfying, and for COUNT(*)
  size_t satisfied = 0;
  double occ = 0.0;
  double vmin = 0.0;
  double vmax = 0.0;

  bool any() const { return satisfied > 0; }
  bool all() const { return satisfied > 0 && satisfied == sat.size(); }
};

inline Row Evaluate(const std::vector<Reformulator::MappingBinding>& bindings,
                    const Table& source, size_t row) {
  Row t;
  t.row = row;
  for (const Reformulator::MappingBinding& b : bindings) {
    const Column* attribute = b.attribute;
    const bool s = b.predicate.Eval(source, row) == Tri::kTrue &&
                   (attribute == nullptr || !attribute->IsNull(row));
    const double v =
        s && attribute != nullptr ? attribute->NumericAt(row) : 0.0;
    t.sat.push_back(s ? 1 : 0);
    t.value.push_back(v);
    if (!s) continue;
    t.occ += b.probability;
    t.vmin = t.satisfied == 0 ? v : std::min(t.vmin, v);
    t.vmax = t.satisfied == 0 ? v : std::max(t.vmax, v);
    ++t.satisfied;
  }
  return t;
}

/// Every row of `span`, in visit order.
inline std::vector<Row> Scan(
    const std::vector<Reformulator::MappingBinding>& bindings,
    const Table& source, RowSpan span) {
  std::vector<Row> rows;
  for (size_t i = 0; i < span.size(source.num_rows()); ++i) {
    rows.push_back(Evaluate(bindings, source, span.row(i)));
  }
  return rows;
}

/// Same bits, so -0.0 differs from +0.0; any NaN equals any NaN. (Which
/// NaN inf + -inf yields, and which operand's NaN a sum of two keeps,
/// depends on the operand order the compiler picks for a commutative add,
/// so a NaN's sign and payload are not part of the answer.)
inline bool SameBits(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::memcmp(&a, &b, sizeof a) == 0;
}
inline bool SameBits(const Interval& a, const Interval& b) {
  return SameBits(a.low, b.low) && SameBits(a.high, b.high);
}

// Paper Figure 2.
inline Interval RangeCount(const std::vector<Row>& rows) {
  int64_t low = 0;
  int64_t up = 0;
  for (const Row& t : rows) {
    if (t.all()) ++low;
    if (t.any()) ++up;
  }
  return Interval{static_cast<double>(low), static_cast<double>(up)};
}

inline double ExpectedCount(const std::vector<Row>& rows,
                            const std::vector<double>& prob) {
  double expected = 0.0;
  for (const Row& t : rows) {
    for (size_t j = 0; j < prob.size(); ++j) expected += prob[j] * t.sat[j];
  }
  return expected;
}

// Paper Figure 4.
inline Interval RangeSum(const std::vector<Row>& rows) {
  double low = 0.0;
  double up = 0.0;
  for (const Row& t : rows) {
    if (!t.any()) continue;
    if (t.all()) {
      low += t.vmin;
      up += t.vmax;
    } else {
      low += std::min(0.0, t.vmin);
      up += std::max(0.0, t.vmax);
    }
  }
  return Interval{low, up};
}

inline double ExpectedSum(const std::vector<Row>& rows,
                          const std::vector<double>& prob) {
  double expected = 0.0;
  for (const Row& t : rows) {
    for (size_t j = 0; j < prob.size(); ++j) expected += prob[j] * t.value[j];
  }
  return expected;
}

inline Result<Interval> RangeAvgPaper(const std::vector<Row>& rows) {
  double low_sum = 0.0, up_sum = 0.0;
  int64_t low_cnt = 0, up_cnt = 0;
  for (const Row& t : rows) {
    if (!t.any()) continue;
    low_sum += t.vmin;
    ++low_cnt;
    up_sum += t.vmax;
    ++up_cnt;
  }
  if (low_cnt == 0) return Status::InvalidArgument("AVG is undefined");
  return Interval{low_sum / static_cast<double>(low_cnt),
                  up_sum / static_cast<double>(up_cnt)};
}

inline Result<Interval> RangeAvgExact(const std::vector<Row>& rows) {
  double mand_min_sum = 0.0, mand_max_sum = 0.0;
  int64_t mand_cnt = 0;
  std::vector<double> opt_min, opt_max;
  for (const Row& t : rows) {
    if (!t.any()) continue;
    if (t.all()) {
      mand_min_sum += t.vmin;
      mand_max_sum += t.vmax;
      ++mand_cnt;
    } else {
      opt_min.push_back(t.vmin);
      opt_max.push_back(t.vmax);
    }
  }
  if (mand_cnt == 0 && opt_min.empty()) {
    return Status::InvalidArgument("AVG is undefined");
  }
  auto optimise = [](double base_sum, int64_t base_cnt,
                     std::vector<double>& options, bool minimise) {
    std::sort(options.begin(), options.end());
    if (!minimise) std::reverse(options.begin(), options.end());
    double sum = base_sum;
    int64_t cnt = base_cnt;
    size_t i = 0;
    if (cnt == 0) {
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
  return Interval{optimise(mand_min_sum, mand_cnt, opt_min, true),
                  optimise(mand_max_sum, mand_cnt, opt_max, false)};
}

/// Paper Figure 5 and its dual, with optional tuples handled exactly.
inline Result<Interval> RangeExtremum(const std::vector<Row>& rows,
                                      bool max) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  bool has_any = false;
  bool has_mandatory = false;
  double any_min_of_vmin = kInf;
  double any_max_of_vmax = -kInf;
  double mand_max_of_vmin = -kInf;
  double mand_min_of_vmax = kInf;
  for (const Row& t : rows) {
    if (!t.any()) continue;
    has_any = true;
    any_min_of_vmin = std::min(any_min_of_vmin, t.vmin);
    any_max_of_vmax = std::max(any_max_of_vmax, t.vmax);
    if (t.all()) {
      has_mandatory = true;
      mand_max_of_vmin = std::max(mand_max_of_vmin, t.vmin);
      mand_min_of_vmax = std::min(mand_min_of_vmax, t.vmax);
    }
  }
  if (!has_any) return Status::InvalidArgument("undefined");
  if (max) {
    return Interval{has_mandatory ? mand_max_of_vmin : any_min_of_vmin,
                    any_max_of_vmax};
  }
  return Interval{any_min_of_vmin,
                  has_mandatory ? mand_min_of_vmax : any_max_of_vmax};
}

}  // namespace aqua::oracle

#endif  // AQUA_TESTS_CORE_TUPLE_SCAN_ORACLE_H_
