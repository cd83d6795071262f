#ifndef AQUA_CORE_ROW_SPAN_H_
#define AQUA_CORE_ROW_SPAN_H_

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

  /// The `i`-th visited row.
  size_t row(size_t i) const {
    return ids_ != nullptr ? ids_[begin_ + i] : begin_ + i;
  }

  /// The first `count` rows of this span.
  RowSpan Prefix(size_t count) const {
    RowSpan span = *this;
    span.end_ = begin_ + count;
    return span;
  }

  /// Invokes `fn(row)` for every visited row, in order.
  template <typename Fn>
  void ForEach(size_t num_rows, Fn&& fn) const {
    const size_t end = end_ == kToEnd ? num_rows : end_;
    if (ids_ != nullptr) {
      for (size_t i = begin_; i < end; ++i) fn(static_cast<size_t>(ids_[i]));
    } else {
      for (size_t r = begin_; r < end; ++r) fn(r);
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
