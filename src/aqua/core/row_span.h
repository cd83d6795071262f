#ifndef AQUA_CORE_ROW_SPAN_H_
#define AQUA_CORE_ROW_SPAN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace aqua {

/// The tuples a by-tuple kernel visits: every row of the table (the
/// default), a contiguous range [begin, end) (one shard), or an explicit
/// id list (one GROUP BY group). A span is a view: an id list must outlive
/// it. Converts implicitly from the id-list pointer the kernels used to
/// take, with null meaning every row.
class RowSpan {
 public:
  RowSpan() = default;

  // NOLINTNEXTLINE(google-explicit-constructor)
  RowSpan(const std::vector<uint32_t>* ids) {
    if (ids != nullptr) {
      ids_ = ids->data();
      end_ = ids->size();
    }
  }

  /// The contiguous rows [begin, end).
  static RowSpan Range(size_t begin, size_t end) {
    RowSpan span;
    span.begin_ = begin;
    span.end_ = end;
    return span;
  }

  /// Number of rows visited in a table of `num_rows` rows.
  size_t size(size_t num_rows) const {
    return (end_ == kToEnd ? num_rows : end_) - begin_;
  }

  /// True unless the span is an id list: its blocks are row ranges.
  bool contiguous() const { return ids_ == nullptr; }

  /// The `i`-th visited row.
  size_t row(size_t i) const {
    return ids_ != nullptr ? ids_[begin_ + i] : begin_ + i;
  }

  /// The visited rows [first, last) of this span, in visit order.
  RowSpan Sub(size_t first, size_t last) const {
    RowSpan span = *this;
    span.begin_ = begin_ + first;
    span.end_ = begin_ + last;
    return span;
  }

  /// Invokes `fn(ids, first, n)` for consecutive blocks of at most `block`
  /// visited rows, in order. The block's i-th row is `ids[first + i]`, or
  /// `first + i` when `ids` is null (a contiguous span).
  template <typename Fn>
  void ForEachBlock(size_t num_rows, size_t block, Fn&& fn) const {
    const size_t end = end_ == kToEnd ? num_rows : end_;
    for (size_t first = begin_; first < end; first += block) {
      fn(ids_, first, std::min(block, end - first));
    }
  }

 private:
  static constexpr size_t kToEnd = std::numeric_limits<size_t>::max();

  const uint32_t* ids_ = nullptr;  // null: rows are the indices themselves
  size_t begin_ = 0;
  size_t end_ = kToEnd;  // kToEnd: through the last row of the table
};

}  // namespace aqua

#endif  // AQUA_CORE_ROW_SPAN_H_
