#ifndef AQUA_CORE_TUPLE_SCAN_H_
#define AQUA_CORE_TUPLE_SCAN_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "aqua/common/exec_context.h"
#include "aqua/core/row_span.h"
#include "aqua/reformulate/reformulator.h"

namespace aqua {

/// One tuple as every candidate mapping sees it: `sat[j]` says whether the
/// tuple participates under mapping j (the reformulated WHERE condition
/// holds and the aggregated attribute is non-NULL), `value[j]` is its
/// attribute value there (0 when it does not participate, or for
/// COUNT(*)), and `prob[j]` is the mapping's probability.
class TupleView {
 public:
  size_t row = 0;  // row index in the source table
  size_t m = 0;    // candidate mappings
  const uint8_t* sat = nullptr;
  const double* value = nullptr;
  const double* prob = nullptr;

  /// Satisfies under at least one mapping.
  bool any() const { return satisfied_ > 0; }
  /// Satisfies under every mapping (a mandatory tuple).
  bool all() const { return satisfied_ > 0 && satisfied_ == m; }
  /// Pr(the tuple participates): the satisfying probabilities, summed in
  /// mapping order.
  double occ() const { return occ_; }
  /// Smallest / largest satisfying value (std::min/std::max folded in
  /// mapping order from the first); 0 when none satisfies.
  double vmin() const { return vmin_; }
  double vmax() const { return vmax_; }

 private:
  friend class TupleScan;  // fills these in the pass that fills sat/value

  size_t satisfied_ = 0;
  double occ_ = 0.0;
  double vmin_ = 0.0;
  double vmax_ = 0.0;
};

/// The by-tuple scan: the one place a (row, mapping) pair is evaluated and
/// charged. Every O(n*m) kernel of the paper's Figures 2-5 (and the CLT
/// moments, the COUNT occurrence pass, the MIN/MAX CDF events and the
/// naive/sampler grid) is a fold over `Run`. Rows arrive in `RowSpan`
/// order and, within a row, mappings in binding order, so a fold that
/// accumulates in that order reproduces the hand-written loop bit for bit.
class TupleScan {
 public:
  /// Checks that `query` is a `func` query (kInvalidArgument otherwise) and
  /// that DISTINCT is used only with MIN/MAX, where it is a no-op; COUNT,
  /// SUM and AVG DISTINCT are not tuple-independent (kUnimplemented).
  static Status CheckShape(const AggregateQuery& query,
                           AggregateFunction func);

  /// `CheckShape`, then one binding per candidate of `pmapping`. The scan
  /// borrows `source`, which must outlive it.
  static Result<TupleScan> Bind(const AggregateQuery& query,
                                AggregateFunction func,
                                const PMapping& pmapping, const Table& source);

  size_t num_mappings() const { return bindings_.size(); }
  const std::vector<double>& probabilities() const { return prob_; }

  /// Charges `rows` x mappings steps to `ctx` (none when null) and polls
  /// its deadline, then calls `fold(const TupleView&)` once per row.
  template <typename Fold>
  Status Run(RowSpan rows, ExecContext* ctx, Fold&& fold) const {
    const size_t m = bindings_.size();
    AQUA_RETURN_NOT_OK(ExecCharge(ctx, rows.size(source_->num_rows()) * m));
    AQUA_RETURN_NOT_OK(ExecCheckNow(ctx));
    std::vector<uint8_t> sat(m);
    std::vector<double> value(m);
    TupleView view;
    view.m = m;
    view.sat = sat.data();
    view.value = value.data();
    view.prob = prob_.data();
    rows.ForEach(source_->num_rows(), [&](size_t r) {
      Evaluate(r, sat.data(), value.data(), &view);
      fold(static_cast<const TupleView&>(view));
    });
    return Status::OK();
  }

  /// Whether `row` participates under mapping `j`: the WHERE condition
  /// holds and the aggregated attribute is non-NULL (SQL aggregates skip
  /// NULLs). Uncharged; outside `Run` only for a caller that must stop at
  /// its first hit and so charges per row itself (the nested by-tuple
  /// precondition).
  bool Satisfies(size_t j, size_t row) const {
    const Reformulator::MappingBinding& b = bindings_[j];
    return b.predicate.Matches(*source_, row) &&
           (b.attribute == nullptr || !b.attribute->IsNull(row));
  }

 private:
  /// Fills `sat`/`value` for `row` and the rest of `view` from them, in
  /// one pass over the mappings. Inline, so that a fold which never reads
  /// occ/vmin/vmax does not pay for them.
  void Evaluate(size_t row, uint8_t* sat, double* value,
                TupleView* view) const {
    // Sums live in locals and the binding count is read once: the opaque
    // predicate call would otherwise force them back to memory per mapping.
    const size_t m = bindings_.size();
    size_t satisfied = 0;
    double occ = 0.0;
    double vmin = 0.0;
    double vmax = 0.0;
    for (size_t j = 0; j < m; ++j) {
      const bool s = Satisfies(j, row);
      sat[j] = s ? 1 : 0;
      value[j] = 0.0;
      if (!s) continue;
      const Column* attribute = bindings_[j].attribute;
      const double v = attribute != nullptr ? attribute->NumericAt(row) : 0.0;
      value[j] = v;
      occ += prob_[j];
      vmin = satisfied == 0 ? v : std::min(vmin, v);
      vmax = satisfied == 0 ? v : std::max(vmax, v);
      ++satisfied;
    }
    view->row = row;
    view->satisfied_ = satisfied;
    view->occ_ = occ;
    view->vmin_ = vmin;
    view->vmax_ = vmax;
  }

  const Table* source_ = nullptr;
  std::vector<Reformulator::MappingBinding> bindings_;
  std::vector<double> prob_;
};

/// The scan materialised: satisfaction flags and values for every
/// (tuple, mapping), row-major, for the algorithms that revisit tuples
/// many times (naive enumeration, the sampler).
struct TupleMappingGrid {
  size_t n = 0;  // tuples
  size_t m = 0;  // mappings
  std::vector<uint8_t> satisfies;  // n*m
  std::vector<double> value;       // n*m; 0 when not satisfying
  std::vector<double> prob;        // m

  bool Sat(size_t i, size_t j) const { return satisfies[i * m + j] != 0; }
  double Val(size_t i, size_t j) const { return value[i * m + j]; }
};

/// Binds `query` (any aggregate; DISTINCT only for MIN/MAX) and fills the
/// grid over `rows`. Charges nothing: callers charge per sequence or per
/// sample instead.
Result<TupleMappingGrid> BuildTupleMappingGrid(const AggregateQuery& query,
                                               const PMapping& pmapping,
                                               const Table& source,
                                               RowSpan rows);

}  // namespace aqua

#endif  // AQUA_CORE_TUPLE_SCAN_H_
