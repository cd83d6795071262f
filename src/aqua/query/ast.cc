#include "aqua/query/ast.h"

namespace aqua {

std::string_view AggregateFunctionToString(AggregateFunction func) {
  switch (func) {
    case AggregateFunction::kCount:
      return "COUNT";
    case AggregateFunction::kSum:
      return "SUM";
    case AggregateFunction::kAvg:
      return "AVG";
    case AggregateFunction::kMin:
      return "MIN";
    case AggregateFunction::kMax:
      return "MAX";
  }
  return "?";
}

Status CheckAggregatedType(AggregateFunction func, const std::string& attribute,
                           ValueType type, std::string_view context) {
  const bool needs_numeric =
      func == AggregateFunction::kSum || func == AggregateFunction::kAvg;
  if (needs_numeric && !IsNumeric(type)) {
    return Status::InvalidArgument(
        std::string(context) + std::string(AggregateFunctionToString(func)) +
        " requires a numeric attribute; '" + attribute + "' is " +
        std::string(ValueTypeToString(type)));
  }
  // MIN/MAX/COUNT over strings would need a Value-ordered accumulator;
  // the engine (like the paper) aggregates numeric and date attributes.
  if (type == ValueType::kString) {
    return Status::Unimplemented(std::string(context) +
                                 "aggregation over string attribute '" +
                                 attribute + "'");
  }
  return Status::OK();
}

std::string HavingClause::ToString() const {
  std::string out(AggregateFunctionToString(func));
  out += "(";
  if (distinct) out += "DISTINCT ";
  out += attribute.empty() ? "*" : attribute;
  out += ") ";
  out += CompareOpToString(op);
  out += " " + literal.ToString();
  return out;
}

Status AggregateQuery::Validate() const {
  if (relation.empty()) {
    return Status::InvalidArgument("query has no FROM relation");
  }
  if (where == nullptr) {
    return Status::InvalidArgument("query has a null WHERE predicate");
  }
  if (attribute.empty() && func != AggregateFunction::kCount) {
    return Status::InvalidArgument(
        std::string(AggregateFunctionToString(func)) +
        "(*) is not a valid aggregate; only COUNT may omit the attribute");
  }
  if (distinct && attribute.empty()) {
    return Status::InvalidArgument("COUNT(DISTINCT *) is not supported");
  }
  if (having.has_value()) {
    if (group_by.empty()) {
      return Status::InvalidArgument("HAVING requires GROUP BY");
    }
    if (having->attribute.empty() &&
        having->func != AggregateFunction::kCount) {
      return Status::InvalidArgument(
          "only COUNT may aggregate '*' in HAVING");
    }
    if (having->literal.is_null()) {
      return Status::InvalidArgument("HAVING comparison with NULL literal");
    }
    if (!IsNumeric(having->literal.type())) {
      return Status::InvalidArgument(
          "HAVING literal must be numeric (aggregates are numeric)");
    }
  }
  return Status::OK();
}

std::string AggregateQuery::ToString() const {
  std::string out = "SELECT ";
  out += AggregateFunctionToString(func);
  out += "(";
  if (distinct) out += "DISTINCT ";
  out += attribute.empty() ? "*" : attribute;
  out += ") FROM ";
  out += relation;
  if (where != nullptr && where->kind() != Predicate::Kind::kTrue) {
    out += " WHERE " + where->ToString();
  }
  if (!group_by.empty()) {
    out += " GROUP BY " + group_by;
  }
  if (having.has_value()) {
    out += " HAVING " + having->ToString();
  }
  return out;
}

Status NestedAggregateQuery::Validate() const {
  AQUA_RETURN_NOT_OK(inner.Validate());
  if (inner.group_by.empty()) {
    return Status::InvalidArgument(
        "the inner query of a nested aggregate must have GROUP BY");
  }
  return Status::OK();
}

std::string NestedAggregateQuery::ToString() const {
  std::string out = "SELECT ";
  out += AggregateFunctionToString(outer);
  out += "(r) FROM (" + inner.ToString() + ") AS r";
  return out;
}

}  // namespace aqua
