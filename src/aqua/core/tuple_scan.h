#ifndef AQUA_CORE_TUPLE_SCAN_H_
#define AQUA_CORE_TUPLE_SCAN_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "aqua/common/exec_context.h"
#include "aqua/core/row_span.h"
#include "aqua/reformulate/reformulator.h"

namespace aqua {

/// Up to `BoundPredicate::kBlock` consecutive rows of a span as every
/// candidate mapping sees them, one column per mapping. `sat(j)[i]` is 1
/// iff row i participates under mapping j and 0 otherwise; `value(j)[i]`
/// is its attribute value there, read raw from the column, so it is
/// meaningful only where `sat(j)[i]` is 1 (a NULL or non-satisfying cell
/// holds whatever the column stores; COUNT(*) reads zeros). A fold masks
/// it with `Select`, so a non-satisfying pair adds exactly +0.0.
///
/// Per-row summaries are not materialised: a kernel asks for the ones it
/// reads (`AnyAll`, `Extremes`, `Occ`), each a loop over the mappings'
/// columns. A fold that works a tuple at a time reads the columns itself,
/// rows outer and mappings inner.
class TupleBlock {
 public:
  size_t size() const { return n_; }
  size_t m() const { return m_; }
  /// Row index in the source table of the block's `i`-th row.
  size_t row(size_t i) const {
    return ids_ != nullptr ? ids_[first_ + i] : first_ + i;
  }
  const uint8_t* sat(size_t j) const { return lanes_[j].sat; }
  const double* value(size_t j) const { return lanes_[j].value; }
  const double* prob() const { return prob_; }

  /// `c ? a : b` for a 0/1 `c`, by bit masks: no branch on the data.
  static double Select(uint8_t c, double a, double b) {
    const uint64_t mask = -static_cast<uint64_t>(c);
    uint64_t x = 0;
    uint64_t y = 0;
    std::memcpy(&x, &a, sizeof x);
    std::memcpy(&y, &b, sizeof y);
    const uint64_t bits = (x & mask) | (y & ~mask);
    double out = 0.0;
    std::memcpy(&out, &bits, sizeof out);
    return out;
  }

  /// Per-row summaries of the block, computed on request into the scan's
  /// scratch: valid until the fold returns.
  struct Summary {
    const uint8_t* any;  // 0/1: satisfies under some mapping
    const uint8_t* all;  // 0/1: satisfies under every mapping
    // The smallest / largest satisfying value, folded with std::min /
    // std::max in mapping order from the first; 0 where none satisfies.
    // Filled by `Extremes` only.
    const double* vmin;
    const double* vmax;
  };
  /// `any` and `all`.
  Summary AnyAll() const;
  /// `any`, `all`, `vmin` and `vmax`.
  Summary Extremes() const;
  /// Per row, Pr(participates): the satisfying probabilities summed in
  /// mapping order.
  void Occ(double* occ) const;

 private:
  friend class TupleScan;  // points the lanes at each block's columns

  struct Lane {
    const uint8_t* sat = nullptr;
    const double* value = nullptr;
  };

  const uint32_t* ids_ = nullptr;
  size_t first_ = 0;
  size_t n_ = 0;
  size_t m_ = 0;
  const Lane* lanes_ = nullptr;
  const double* prob_ = nullptr;
  // A block's worth each: where `AnyAll` and `Extremes` write.
  uint8_t* any_ = nullptr;
  uint8_t* all_ = nullptr;
  double* vmin_ = nullptr;
  double* vmax_ = nullptr;
};

/// The scan of every (row, mapping) pair: the one place an ungrouped query
/// evaluates and charges them. Every O(n*m) kernel of the paper's Figures
/// 2-5 (and the CLT moments, the COUNT occurrence pass, the MIN/MAX CDF
/// events and the naive/sampler grid) is a fold over `Run`, and so is
/// by-table's Figure 1, one aggregate per mapping. Blocks arrive in
/// `RowSpan` order; a fold that accumulates rows in block order and, within
/// a row, mappings in binding order reproduces the hand-written loop bit
/// for bit.
class TupleScan {
 public:
  /// Checks that `query` is a `func` query (kInvalidArgument otherwise) and
  /// that DISTINCT is used only with MIN/MAX, where it is a no-op; COUNT,
  /// SUM and AVG DISTINCT are not tuple-independent (kUnimplemented).
  static Status CheckShape(const AggregateQuery& query,
                           AggregateFunction func);

  /// One binding per candidate of `pmapping`, for any aggregate, DISTINCT
  /// or not. The scan borrows `source`, which must outlive it.
  static Result<TupleScan> Bind(const AggregateQuery& query,
                                const PMapping& pmapping, const Table& source);
  /// `CheckShape`, then `Bind`: the by-tuple kernels' entry.
  static Result<TupleScan> Bind(const AggregateQuery& query,
                                AggregateFunction func,
                                const PMapping& pmapping, const Table& source);

  size_t num_mappings() const { return bindings_.size(); }
  /// Distinct bound WHERE clauses, each evaluated once per block: mappings
  /// that bind the clause to the same columns share one.
  size_t num_predicates() const { return distinct_.size(); }
  const std::vector<double>& probabilities() const { return prob_; }

  /// Charges `rows` x mappings steps to `ctx` (none when null) and polls
  /// its deadline, then calls `fold(const TupleBlock&)` once per block of
  /// at most `BoundPredicate::kBlock` rows. The WHERE clauses are
  /// evaluated once per block and distinct bound predicate. A fold that
  /// carries running sums from block to block does a block's work in a
  /// `[[gnu::noinline]]` function: inlined here, the sums would live
  /// across this loop's calls, which clobber every SSE register, and GCC
  /// keeps them in memory through the whole inner loop.
  template <typename Fold>
  Status Run(RowSpan rows, ExecContext* ctx, Fold&& fold) const {
    const size_t num_rows = rows.size(source_->num_rows());
    AQUA_RETURN_NOT_OK(ExecCharge(ctx, num_rows * bindings_.size()));
    AQUA_RETURN_NOT_OK(ExecCheckNow(ctx));
    // Scratch sized once per call: a GROUP BY runs many tiny spans.
    BlockScratch scratch(*this, std::min(BoundPredicate::kBlock, num_rows),
                         rows.contiguous());
    rows.ForEachBlock(source_->num_rows(), scratch.block,
                      [&](const uint32_t* ids, size_t first, size_t n) {
                        fold(static_cast<const TupleBlock&>(
                            FillBlock(ids, first, n, &scratch)));
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
  /// The buffers of one `Run`: O(m * block), allocated once.
  struct BlockScratch {
    BlockScratch(const TupleScan& scan, size_t block, bool contiguous);

    size_t block;
    // The distinct predicates' match blocks, a sat block for each mapping
    // whose attribute has NULLs, then the any and all blocks.
    std::vector<uint8_t> bytes;
    // A value block for each mapping whose values are gathered (an id
    // list, or an int64/date attribute), then the vmin and vmax blocks.
    std::vector<double> values;
    std::vector<TupleBlock::Lane> lanes;
    BoundPredicate::Scratch nodes;
    TupleBlock view;
  };

  /// Evaluates the block's predicates and points every lane at its
  /// columns.
  const TupleBlock& FillBlock(const uint32_t* ids, size_t first, size_t n,
                              BlockScratch* scratch) const;

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
