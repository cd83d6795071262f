#include "aqua/query/view.h"

#include <unordered_map>

#include "aqua/common/string_util.h"

namespace aqua {
namespace {

/// Copies row `row` of `src` onto the end of `dst` (same type).
void CopyCell(const Column& src, size_t row, Column* dst) {
  if (src.IsNull(row)) {
    dst->AppendNull();
    return;
  }
  switch (src.type()) {
    case ValueType::kInt64:
      dst->AppendInt64(src.Int64At(row));
      break;
    case ValueType::kDouble:
      dst->AppendDouble(src.DoubleAt(row));
      break;
    case ValueType::kString:
      dst->AppendString(src.StringAt(row));
      break;
    case ValueType::kDate:
      dst->AppendDate(src.DateAt(row));
      break;
    case ValueType::kNull:
      break;
  }
}

Result<Table> Gather(const Table& table, const std::vector<uint32_t>& rows,
                     const std::vector<size_t>& column_indices,
                     Schema out_schema) {
  std::vector<Column> out;
  out.reserve(column_indices.size());
  for (size_t c : column_indices) {
    out.emplace_back(table.column(c).type());
    out.back().Reserve(rows.size());
  }
  for (uint32_t r : rows) {
    for (size_t i = 0; i < column_indices.size(); ++i) {
      CopyCell(table.column(column_indices[i]), r, &out[i]);
    }
  }
  return Table::Make(std::move(out_schema), std::move(out));
}

std::vector<uint32_t> MatchingRows(const Table& table,
                                   const BoundPredicate& predicate) {
  std::vector<uint32_t> rows;
  predicate.ForEachMatch(
      table, [&](size_t r) { rows.push_back(static_cast<uint32_t>(r)); });
  return rows;
}

std::vector<size_t> AllColumns(const Table& table) {
  std::vector<size_t> idx(table.num_columns());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  return idx;
}

}  // namespace

Result<Table> View::Select(const Table& table, const PredicatePtr& predicate) {
  AQUA_ASSIGN_OR_RETURN(BoundPredicate bound,
                        BoundPredicate::Bind(predicate, table.schema()));
  return Gather(table, MatchingRows(table, bound), AllColumns(table),
                table.schema());
}

Result<Table> View::Project(const Table& table,
                            const std::vector<std::string>& columns) {
  return SelectProject(table, Predicate::True(), columns);
}

Result<Table> View::SelectProject(const Table& table,
                                  const PredicatePtr& predicate,
                                  const std::vector<std::string>& columns) {
  if (columns.empty()) {
    return Status::InvalidArgument("projection needs at least one column");
  }
  AQUA_ASSIGN_OR_RETURN(BoundPredicate bound,
                        BoundPredicate::Bind(predicate, table.schema()));
  std::vector<size_t> indices;
  std::vector<Attribute> attrs;
  for (const std::string& name : columns) {
    AQUA_ASSIGN_OR_RETURN(size_t idx, table.schema().IndexOf(name));
    for (size_t seen : indices) {
      if (seen == idx) {
        return Status::InvalidArgument("duplicate projection column '" +
                                       name + "'");
      }
    }
    indices.push_back(idx);
    attrs.push_back(table.schema().attribute(idx));
  }
  AQUA_ASSIGN_OR_RETURN(Schema out_schema, Schema::Make(std::move(attrs)));
  return Gather(table, MatchingRows(table, bound), indices,
                std::move(out_schema));
}

Result<Table> View::HashJoin(const Table& left, const Table& right,
                             std::string_view left_attr,
                             std::string_view right_attr) {
  AQUA_ASSIGN_OR_RETURN(size_t lkey, left.schema().IndexOf(left_attr));
  AQUA_ASSIGN_OR_RETURN(size_t rkey, right.schema().IndexOf(right_attr));
  const Column& lcol = left.column(lkey);
  const Column& rcol = right.column(rkey);
  if (lcol.type() != rcol.type()) {
    return Status::InvalidArgument(
        "join keys have different types: " +
        std::string(ValueTypeToString(lcol.type())) + " vs " +
        std::string(ValueTypeToString(rcol.type())));
  }
  if (lcol.type() == ValueType::kDouble) {
    return Status::InvalidArgument(
        "joining on a double column is rejected (exact float equality)");
  }

  // Output schema: left attributes, then right attributes with collisions
  // prefixed.
  std::vector<Attribute> attrs = left.schema().attributes();
  for (const Attribute& a : right.schema().attributes()) {
    Attribute out = a;
    if (left.schema().Contains(out.name)) out.name = "right_" + out.name;
    attrs.push_back(std::move(out));
  }
  AQUA_ASSIGN_OR_RETURN(Schema out_schema, Schema::Make(std::move(attrs)));

  // Build side: hash the right keys.
  auto key_string = [](const Column& col, size_t row) {
    // int64/date collapse to the integer payload; strings pass through.
    switch (col.type()) {
      case ValueType::kInt64:
        return std::to_string(col.Int64At(row));
      case ValueType::kDate:
        return std::to_string(col.DateAt(row).days_since_epoch());
      case ValueType::kString:
        return col.StringAt(row);
      default:
        return std::string();
    }
  };
  std::unordered_map<std::string, std::vector<uint32_t>> build;
  for (size_t r = 0; r < right.num_rows(); ++r) {
    if (rcol.IsNull(r)) continue;
    build[key_string(rcol, r)].push_back(static_cast<uint32_t>(r));
  }

  std::vector<Column> out;
  out.reserve(out_schema.num_attributes());
  for (size_t i = 0; i < out_schema.num_attributes(); ++i) {
    out.emplace_back(out_schema.attribute(i).type);
  }
  // Probe side: emit one output row per (left, right) match.
  for (size_t lr = 0; lr < left.num_rows(); ++lr) {
    if (lcol.IsNull(lr)) continue;
    const auto it = build.find(key_string(lcol, lr));
    if (it == build.end()) continue;
    for (uint32_t rr : it->second) {
      for (size_t c = 0; c < left.num_columns(); ++c) {
        CopyCell(left.column(c), lr, &out[c]);
      }
      for (size_t c = 0; c < right.num_columns(); ++c) {
        CopyCell(right.column(c), rr, &out[left.num_columns() + c]);
      }
    }
  }
  return Table::Make(std::move(out_schema), std::move(out));
}

}  // namespace aqua
