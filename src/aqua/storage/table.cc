#include "aqua/storage/table.h"

#include <cassert>

namespace aqua {

Column::Column(ValueType type) : type_(type) {
  assert(type != ValueType::kNull);
}

void Column::GrowNulls(bool is_null) {
  if (is_null && nulls_.empty()) {
    nulls_.assign(size_, 0);  // backfill: everything so far was non-null
  }
  if (is_null || !nulls_.empty()) {
    nulls_.push_back(is_null ? 1 : 0);
  }
  has_nulls_ = has_nulls_ || is_null;
}

Status Column::Append(const Value& value) {
  if (value.is_null()) {
    AppendNull();
    return Status::OK();
  }
  if (value.type() != type_) {
    return Status::InvalidArgument(
        std::string("cannot append ") +
        std::string(ValueTypeToString(value.type())) + " to " +
        std::string(ValueTypeToString(type_)) + " column");
  }
  switch (type_) {
    case ValueType::kInt64:
      AppendInt64(value.int64());
      break;
    case ValueType::kDouble:
      AppendDouble(value.dbl());
      break;
    case ValueType::kString:
      AppendString(value.str());
      break;
    case ValueType::kDate:
      AppendDate(value.date());
      break;
    case ValueType::kNull:
      return Status::Internal("null-typed column");
  }
  return Status::OK();
}

void Column::AppendInt64(int64_t v) {
  assert(type_ == ValueType::kInt64);
  GrowNulls(false);
  ints_.push_back(v);
  ++size_;
}

void Column::AppendDouble(double v) {
  assert(type_ == ValueType::kDouble);
  GrowNulls(false);
  doubles_.push_back(v);
  ++size_;
}

void Column::AppendString(std::string v) {
  assert(type_ == ValueType::kString);
  GrowNulls(false);
  strings_.push_back(std::move(v));
  ++size_;
}

void Column::AppendDate(Date v) {
  assert(type_ == ValueType::kDate);
  GrowNulls(false);
  dates_.push_back(v.days_since_epoch());
  ++size_;
}

void Column::AppendNull() {
  GrowNulls(true);
  switch (type_) {
    case ValueType::kInt64:
      ints_.push_back(0);
      break;
    case ValueType::kDouble:
      doubles_.push_back(0.0);
      break;
    case ValueType::kString:
      strings_.emplace_back();
      break;
    case ValueType::kDate:
      dates_.push_back(0);
      break;
    case ValueType::kNull:
      break;
  }
  ++size_;
}

void Column::Reserve(size_t n) {
  switch (type_) {
    case ValueType::kInt64:
      ints_.reserve(n);
      break;
    case ValueType::kDouble:
      doubles_.reserve(n);
      break;
    case ValueType::kString:
      strings_.reserve(n);
      break;
    case ValueType::kDate:
      dates_.reserve(n);
      break;
    case ValueType::kNull:
      break;
  }
}

Value Column::GetValue(size_t row) const {
  if (IsNull(row)) return Value::Null();
  switch (type_) {
    case ValueType::kInt64:
      return Value::Int64(ints_[row]);
    case ValueType::kDouble:
      return Value::Double(doubles_[row]);
    case ValueType::kString:
      return Value::String(strings_[row]);
    case ValueType::kDate:
      return Value::FromDate(Date(dates_[row]));
    case ValueType::kNull:
      break;
  }
  return Value::Null();
}

Result<Table> Table::Make(Schema schema, std::vector<Column> columns) {
  if (columns.size() != schema.num_attributes()) {
    return Status::InvalidArgument(
        "column count " + std::to_string(columns.size()) +
        " does not match schema arity " +
        std::to_string(schema.num_attributes()));
  }
  size_t rows = columns.empty() ? 0 : columns[0].size();
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].type() != schema.attribute(i).type) {
      return Status::InvalidArgument("column " + std::to_string(i) +
                                     " type mismatch for attribute '" +
                                     schema.attribute(i).name + "'");
    }
    if (columns[i].size() != rows) {
      return Status::InvalidArgument("ragged columns: column " +
                                     std::to_string(i) + " has " +
                                     std::to_string(columns[i].size()) +
                                     " rows, expected " +
                                     std::to_string(rows));
    }
  }
  Table t;
  t.schema_ = std::move(schema);
  t.columns_ = std::move(columns);
  t.num_rows_ = rows;
  return t;
}

Table Table::Empty(Schema schema) {
  Table t;
  for (const Attribute& attr : schema.attributes()) {
    t.columns_.emplace_back(attr.type);
  }
  t.schema_ = std::move(schema);
  t.num_rows_ = 0;
  return t;
}

Result<const Column*> Table::ColumnByName(std::string_view name) const {
  AQUA_ASSIGN_OR_RETURN(size_t idx, schema_.IndexOf(name));
  return &columns_[idx];
}

std::string Table::ToString(size_t max_rows) const {
  std::string out;
  for (size_t i = 0; i < schema_.num_attributes(); ++i) {
    if (i > 0) out += " | ";
    out += schema_.attribute(i).name;
  }
  out += "\n";
  const size_t shown = std::min(max_rows, num_rows_);
  for (size_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (c > 0) out += " | ";
      out += GetValue(r, c).ToString();
    }
    out += "\n";
  }
  if (shown < num_rows_) {
    out += "... (" + std::to_string(num_rows_ - shown) + " more rows)\n";
  }
  return out;
}

}  // namespace aqua
