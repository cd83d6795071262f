#include "aqua/reformulate/reformulator.h"

#include "aqua/common/string_util.h"

namespace aqua {

Result<AggregateQuery> Reformulator::Reformulate(
    const AggregateQuery& query, const RelationMapping& mapping) {
  AQUA_RETURN_NOT_OK(query.Validate());
  if (!EqualsIgnoreCase(query.relation, mapping.target_relation())) {
    return Status::InvalidArgument(
        "query relation '" + query.relation +
        "' is not the mapping's target relation '" +
        mapping.target_relation() + "'");
  }
  AggregateQuery out;
  out.func = query.func;
  out.distinct = query.distinct;
  out.relation = mapping.source_relation();
  if (!query.attribute.empty()) {
    AQUA_ASSIGN_OR_RETURN(out.attribute, mapping.SourceFor(query.attribute));
  }
  AQUA_ASSIGN_OR_RETURN(
      out.where,
      Predicate::RenameAttributes(
          query.where, [&mapping](const std::string& name) {
            return mapping.SourceFor(name);
          }));
  if (!query.group_by.empty()) {
    AQUA_ASSIGN_OR_RETURN(out.group_by, mapping.SourceFor(query.group_by));
  }
  if (query.having.has_value()) {
    out.having = query.having;
    if (!query.having->attribute.empty()) {
      AQUA_ASSIGN_OR_RETURN(out.having->attribute,
                            mapping.SourceFor(query.having->attribute));
    }
  }
  return out;
}

Result<NestedAggregateQuery> Reformulator::ReformulateNested(
    const NestedAggregateQuery& query, const RelationMapping& mapping) {
  AQUA_RETURN_NOT_OK(query.Validate());
  NestedAggregateQuery out;
  out.outer = query.outer;
  AQUA_ASSIGN_OR_RETURN(out.inner, Reformulate(query.inner, mapping));
  return out;
}

Result<std::vector<Reformulator::MappingBinding>> Reformulator::BindAll(
    const AggregateQuery& query, const PMapping& pmapping,
    const Table& source) {
  AQUA_RETURN_NOT_OK(query.Validate());
  if (!EqualsIgnoreCase(query.relation, pmapping.target_relation())) {
    return Status::InvalidArgument(
        "query relation '" + query.relation +
        "' is not the p-mapping's target relation '" +
        pmapping.target_relation() + "'");
  }
  std::vector<MappingBinding> bindings;
  bindings.reserve(pmapping.size());
  for (size_t i = 0; i < pmapping.size(); ++i) {
    const RelationMapping& m = pmapping.mapping(i);
    MappingBinding binding;
    binding.probability = pmapping.probability(i);

    AQUA_ASSIGN_OR_RETURN(
        PredicatePtr source_pred,
        Predicate::RenameAttributes(
            query.where,
            [&m](const std::string& name) { return m.SourceFor(name); }));
    AQUA_ASSIGN_OR_RETURN(binding.predicate,
                          BoundPredicate::Bind(source_pred, source.schema()));

    if (!query.attribute.empty()) {
      AQUA_ASSIGN_OR_RETURN(std::string source_attr,
                            m.SourceFor(query.attribute));
      AQUA_ASSIGN_OR_RETURN(size_t col_idx,
                            source.schema().IndexOf(source_attr));
      AQUA_RETURN_NOT_OK(CheckAggregatedType(
          query.func, source_attr, source.schema().attribute(col_idx).type));
      binding.attribute = &source.column(col_idx);
    }
    bindings.push_back(std::move(binding));
  }
  return bindings;
}

}  // namespace aqua
