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
  /// Distinct bound WHERE clauses, each evaluated once per block: mappings
  /// that bind the clause to the same columns share one.
  size_t num_predicates() const { return distinct_.size(); }
  const std::vector<double>& probabilities() const { return prob_; }

  /// Charges `rows` x mappings steps to `ctx` (none when null) and polls
  /// its deadline, then calls `fold(const TupleView&)` once per row. The
  /// WHERE clauses are evaluated a block of rows at a time, once per
  /// distinct bound predicate.
  template <typename Fold>
  Status Run(RowSpan rows, ExecContext* ctx, Fold&& fold) const {
    const size_t m = bindings_.size();
    const size_t num_rows = rows.size(source_->num_rows());
    AQUA_RETURN_NOT_OK(ExecCharge(ctx, num_rows * m));
    AQUA_RETURN_NOT_OK(ExecCheckNow(ctx));
    // Scratch sized once per call: a GROUP BY runs many tiny spans.
    const size_t block = std::min(BoundPredicate::kBlock, num_rows);
    std::vector<uint8_t> match(distinct_.size() * block);
    BoundPredicate::Scratch scratch;
    std::vector<uint8_t> sat(m);
    std::vector<double> value(m);
    TupleView view;
    view.m = m;
    view.sat = sat.data();
    view.value = value.data();
    view.prob = prob_.data();
    rows.ForEachBlock(
        source_->num_rows(), block,
        [&](const uint32_t* ids, size_t first, size_t n) {
          for (size_t p = 0; p < distinct_.size(); ++p) {
            bindings_[distinct_[p]].predicate.MatchBlock(
                *source_, ids, first, n, match.data() + p * block, &scratch);
          }
          for (size_t i = 0; i < n; ++i) {
            const size_t r = ids != nullptr ? ids[first + i] : first + i;
            Evaluate(r, match.data() + i, block, sat.data(), value.data(),
                     &view);
            fold(static_cast<const TupleView&>(view));
          }
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
  /// one pass over the mappings. `match[slot_[j] * stride]` is the row's
  /// WHERE outcome under mapping j. Inline, so that a fold which never
  /// reads occ/vmin/vmax does not pay for them.
  void Evaluate(size_t row, const uint8_t* match, size_t stride,
                uint8_t* sat, double* value, TupleView* view) const {
    // Sums and the member arrays live in locals: the byte stores to `sat`
    // may alias anything, and would otherwise force reloads per mapping.
    const size_t m = bindings_.size();
    const Reformulator::MappingBinding* const bindings = bindings_.data();
    const size_t* const slot = slot_.data();
    const double* const prob = prob_.data();
    size_t satisfied = 0;
    double occ = 0.0;
    double vmin = 0.0;
    double vmax = 0.0;
    for (size_t j = 0; j < m; ++j) {
      const Column* attribute = bindings[j].attribute;
      const bool s = match[slot[j] * stride] != 0 &&
                     (attribute == nullptr || !attribute->IsNull(row));
      sat[j] = s ? 1 : 0;
      value[j] = 0.0;
      if (!s) continue;
      const double v = attribute != nullptr ? attribute->NumericAt(row) : 0.0;
      value[j] = v;
      occ += prob[j];
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
  // The distinct bound predicates, as the index of the first binding that
  // has each, and for every binding the slot of its predicate in them:
  // mappings that bind the WHERE clause to the same columns share one
  // block evaluation.
  std::vector<size_t> distinct_;
  std::vector<size_t> slot_;
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
