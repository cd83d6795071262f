#ifndef AQUA_STORAGE_TABLE_H_
#define AQUA_STORAGE_TABLE_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "aqua/common/result.h"
#include "aqua/common/value.h"
#include "aqua/storage/schema.h"

namespace aqua {

/// A single typed column with optional nulls.
///
/// Storage is a plain typed vector plus a byte-per-row null mask (only
/// allocated once the first null is appended), so the by-tuple algorithms —
/// which are pure column scans — run over contiguous memory.
class Column {
 public:
  /// Creates an empty column of the given type (must not be kNull).
  explicit Column(ValueType type = ValueType::kDouble);

  ValueType type() const { return type_; }
  size_t size() const { return size_; }

  /// Appends a value. NULL is always accepted; otherwise the value's type
  /// must match the column type exactly.
  Status Append(const Value& value);

  /// Typed fast-path appends; the value type must match the column type
  /// (checked with assert in debug builds only).
  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string v);
  void AppendDate(Date v);
  void AppendNull();

  /// Pre-allocates capacity for `n` rows.
  void Reserve(size_t n);

  bool IsNull(size_t row) const {
    return !nulls_.empty() && nulls_[row] != 0;
  }
  bool has_nulls() const { return has_nulls_; }

  /// Generic accessor; materialises a `Value`.
  Value GetValue(size_t row) const;

  /// Typed accessors; the row must be non-null and the type must match.
  int64_t Int64At(size_t row) const { return ints_[row]; }
  double DoubleAt(size_t row) const { return doubles_[row]; }
  const std::string& StringAt(size_t row) const { return strings_[row]; }
  Date DateAt(size_t row) const { return Date(dates_[row]); }

  /// Numeric view of a non-null cell: int64 and date widen to double.
  /// Must only be called on int64/double/date columns. Inline: the scans
  /// call it per (row, mapping).
  double NumericAt(size_t row) const {
    switch (type_) {
      case ValueType::kInt64:
        return static_cast<double>(ints_[row]);
      case ValueType::kDouble:
        return doubles_[row];
      case ValueType::kDate:
        return static_cast<double>(dates_[row]);
      default:
        assert(false && "NumericAt on non-numeric column");
        return 0.0;
    }
  }

  /// Direct access to the underlying typed vector for scan loops.
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<int32_t>& date_days() const { return dates_; }
  const std::vector<std::string>& strings() const { return strings_; }
  /// One byte per row, 1 where the cell is NULL; sized only once
  /// `has_nulls()`, empty before.
  const std::vector<uint8_t>& nulls() const { return nulls_; }

 private:
  void GrowNulls(bool is_null);

  ValueType type_;
  size_t size_ = 0;
  bool has_nulls_ = false;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  std::vector<int32_t> dates_;  // days since epoch
  std::vector<uint8_t> nulls_;  // lazily sized; empty means "no nulls yet"
};

/// An immutable-by-convention relational table: a `Schema` plus one
/// `Column` per attribute, all the same length.
class Table {
 public:
  Table() = default;

  /// Validates that `columns` match the schema arity and types and share a
  /// common length.
  static Result<Table> Make(Schema schema, std::vector<Column> columns);

  /// Creates an empty table with one empty column per schema attribute.
  static Table Empty(Schema schema);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  const Column& column(size_t i) const { return columns_[i]; }

  /// The column backing attribute `name` (case-insensitive).
  Result<const Column*> ColumnByName(std::string_view name) const;

  /// Cell accessor; materialises a `Value`.
  Value GetValue(size_t row, size_t col) const {
    return columns_[col].GetValue(row);
  }

  /// Renders up to `max_rows` rows as an aligned ASCII table (debugging,
  /// examples).
  std::string ToString(size_t max_rows = 20) const;

 private:
  Schema schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

}  // namespace aqua

#endif  // AQUA_STORAGE_TABLE_H_
