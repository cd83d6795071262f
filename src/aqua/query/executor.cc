#include "aqua/query/executor.h"

#include <algorithm>
#include <unordered_map>

namespace aqua {

Result<GroupIndex> GroupIndex::Build(const Table& table, size_t column) {
  if (column >= table.num_columns()) {
    return Status::OutOfRange("group column index out of range");
  }
  const Column& col = table.column(column);
  GroupIndex index;
  index.row_groups_.resize(table.num_rows());

  // Type-specialised interning keeps this O(n) with small constants.
  constexpr int32_t kNullGroup = -1;
  int32_t null_group = kNullGroup;
  auto group_for_null = [&]() {
    if (null_group == kNullGroup) {
      null_group = static_cast<int32_t>(index.group_values_.size());
      index.group_values_.push_back(Value::Null());
    }
    return null_group;
  };

  switch (col.type()) {
    case ValueType::kInt64:
    case ValueType::kDate: {
      std::unordered_map<int64_t, int32_t> ids;
      for (size_t r = 0; r < table.num_rows(); ++r) {
        if (col.IsNull(r)) {
          index.row_groups_[r] = group_for_null();
          continue;
        }
        const int64_t key = col.type() == ValueType::kInt64
                                ? col.Int64At(r)
                                : col.DateAt(r).days_since_epoch();
        auto [it, inserted] = ids.try_emplace(key, 0);
        if (inserted) {
          index.group_values_.push_back(col.GetValue(r));
          it->second = static_cast<int32_t>(index.group_values_.size()) - 1;
        }
        index.row_groups_[r] = it->second;
      }
      break;
    }
    case ValueType::kString: {
      std::unordered_map<std::string, int32_t> ids;
      for (size_t r = 0; r < table.num_rows(); ++r) {
        if (col.IsNull(r)) {
          index.row_groups_[r] = group_for_null();
          continue;
        }
        auto [it, inserted] = ids.try_emplace(col.StringAt(r), 0);
        if (inserted) {
          index.group_values_.push_back(col.GetValue(r));
          it->second = static_cast<int32_t>(index.group_values_.size()) - 1;
        }
        index.row_groups_[r] = it->second;
      }
      break;
    }
    case ValueType::kDouble: {
      std::unordered_map<double, int32_t> ids;
      for (size_t r = 0; r < table.num_rows(); ++r) {
        if (col.IsNull(r)) {
          index.row_groups_[r] = group_for_null();
          continue;
        }
        auto [it, inserted] = ids.try_emplace(col.DoubleAt(r), 0);
        if (inserted) {
          index.group_values_.push_back(col.GetValue(r));
          it->second = static_cast<int32_t>(index.group_values_.size()) - 1;
        }
        index.row_groups_[r] = it->second;
      }
      break;
    }
    case ValueType::kNull:
      return Status::Internal("null-typed group column");
  }
  return index;
}

void Accumulator::AddSelected(const uint8_t* sat, const double* values,
                              size_t n) {
  if (distinct_) {
    for (size_t i = 0; i < n; ++i) {
      if (sat[i] != 0) Add(values[i]);
    }
    return;
  }
  if (func_ == AggregateFunction::kCount) {
    // COUNT finishes with the count alone: add it, not the values.
    int64_t count = 0;
    for (size_t i = 0; i < n; ++i) count += sat[i];
    fold_.count += count;
    return;
  }
  // A local copy: stores to it cannot alias `sat`, so the running values
  // stay in registers.
  AggregateFold fold = fold_;
  for (size_t i = 0; i < n; ++i) {
    if (sat[i] != 0) fold.Add(values[i]);
  }
  fold_ = fold;
}

namespace {

struct ResolvedQuery {
  BoundPredicate predicate;
  const Column* attribute = nullptr;  // null for COUNT(*)
};

Result<ResolvedQuery> Resolve(const AggregateQuery& q, const Table& table) {
  AQUA_RETURN_NOT_OK(q.Validate());
  ResolvedQuery resolved;
  AQUA_ASSIGN_OR_RETURN(resolved.predicate,
                        BoundPredicate::Bind(q.where, table.schema()));
  if (!q.attribute.empty()) {
    AQUA_ASSIGN_OR_RETURN(size_t idx, table.schema().IndexOf(q.attribute));
    AQUA_RETURN_NOT_OK(CheckAggregatedType(
        q.func, q.attribute, table.schema().attribute(idx).type));
    resolved.attribute = &table.column(idx);
  }
  return resolved;
}

}  // namespace

Result<std::optional<double>> Executor::ExecuteScalar(const AggregateQuery& q,
                                                      const Table& table) {
  if (!q.group_by.empty()) {
    return Status::InvalidArgument(
        "grouped query passed to ExecuteScalar; use ExecuteGrouped");
  }
  AQUA_ASSIGN_OR_RETURN(ResolvedQuery resolved, Resolve(q, table));
  Accumulator acc(q.func, q.distinct);
  resolved.predicate.ForEachMatch(table, [&](size_t r) {
    if (resolved.attribute == nullptr) {
      acc.AddRow();
    } else if (!resolved.attribute->IsNull(r)) {
      acc.Add(resolved.attribute->NumericAt(r));
    }
  });
  return acc.Finish();
}

Result<std::vector<Executor::GroupResult>> Executor::ExecuteGrouped(
    const AggregateQuery& q, const Table& table) {
  if (q.group_by.empty()) {
    return Status::InvalidArgument(
        "ungrouped query passed to ExecuteGrouped; use ExecuteScalar");
  }
  AQUA_ASSIGN_OR_RETURN(ResolvedQuery resolved, Resolve(q, table));
  AQUA_ASSIGN_OR_RETURN(size_t group_col, table.schema().IndexOf(q.group_by));
  AQUA_ASSIGN_OR_RETURN(GroupIndex groups, GroupIndex::Build(table, group_col));

  // Resolve the HAVING aggregate's column, if any.
  const Column* having_attr = nullptr;
  if (q.having.has_value() && !q.having->attribute.empty()) {
    AQUA_ASSIGN_OR_RETURN(size_t idx,
                          table.schema().IndexOf(q.having->attribute));
    AQUA_RETURN_NOT_OK(CheckAggregatedType(q.having->func,
                                           q.having->attribute,
                                           table.schema().attribute(idx).type,
                                           "HAVING "));
    having_attr = &table.column(idx);
  }

  std::vector<Accumulator> accs(groups.num_groups(),
                                Accumulator(q.func, q.distinct));
  std::vector<Accumulator> having_accs;
  if (q.having.has_value()) {
    having_accs.assign(groups.num_groups(),
                       Accumulator(q.having->func, q.having->distinct));
  }
  resolved.predicate.ForEachMatch(table, [&](size_t r) {
    const int32_t g = groups.row_groups()[r];
    Accumulator& acc = accs[g];
    if (resolved.attribute == nullptr) {
      acc.AddRow();
    } else if (!resolved.attribute->IsNull(r)) {
      acc.Add(resolved.attribute->NumericAt(r));
    }
    if (q.having.has_value()) {
      Accumulator& hacc = having_accs[g];
      if (having_attr == nullptr) {
        hacc.AddRow();
      } else if (!having_attr->IsNull(r)) {
        hacc.Add(having_attr->NumericAt(r));
      }
    }
  });
  std::vector<GroupResult> out;
  out.reserve(groups.num_groups());
  for (size_t g = 0; g < groups.num_groups(); ++g) {
    const std::optional<double> v = accs[g].Finish();
    if (!v.has_value()) continue;
    if (q.having.has_value()) {
      const std::optional<double> hv = having_accs[g].Finish();
      if (!hv.has_value()) continue;  // HAVING aggregate undefined: drop
      AQUA_ASSIGN_OR_RETURN(double lit, q.having->literal.ToDouble());
      AQUA_ASSIGN_OR_RETURN(
          int cmp, Value::Compare(Value::Double(*hv), Value::Double(lit)));
      bool keep = false;
      switch (q.having->op) {
        case CompareOp::kEq:
          keep = cmp == 0;
          break;
        case CompareOp::kNe:
          keep = cmp != 0;
          break;
        case CompareOp::kLt:
          keep = cmp < 0;
          break;
        case CompareOp::kLe:
          keep = cmp <= 0;
          break;
        case CompareOp::kGt:
          keep = cmp > 0;
          break;
        case CompareOp::kGe:
          keep = cmp >= 0;
          break;
      }
      if (!keep) continue;
    }
    out.push_back(GroupResult{groups.group_values()[g], *v});
  }
  return out;
}

Result<std::optional<double>> Executor::ExecuteNested(
    const NestedAggregateQuery& q, const Table& table) {
  AQUA_RETURN_NOT_OK(q.Validate());
  AQUA_ASSIGN_OR_RETURN(std::vector<GroupResult> inner,
                        ExecuteGrouped(q.inner, table));
  std::vector<double> values;
  values.reserve(inner.size());
  for (const GroupResult& g : inner) values.push_back(g.value);
  return Fold(q.outer, values);
}

std::optional<double> Executor::Fold(AggregateFunction func,
                                     const std::vector<double>& values) {
  AggregateFold fold;
  for (double v : values) fold.Add(v);
  return fold.Finish(func);
}

}  // namespace aqua
