#include "aqua/core/tuple_scan.h"

#include <string>

namespace aqua {

Status TupleScan::CheckShape(const AggregateQuery& query,
                             AggregateFunction func) {
  const std::string name(AggregateFunctionToString(func));
  if (query.func != func) {
    return Status::InvalidArgument(
        "expected a " + name + " query, got " +
        std::string(AggregateFunctionToString(query.func)));
  }
  if (query.distinct && func != AggregateFunction::kMin &&
      func != AggregateFunction::kMax) {
    return Status::Unimplemented(name +
                                 "(DISTINCT) has no PTIME by-tuple algorithm");
  }
  return Status::OK();
}

Result<TupleScan> TupleScan::Bind(const AggregateQuery& query,
                                  AggregateFunction func,
                                  const PMapping& pmapping,
                                  const Table& source) {
  AQUA_RETURN_NOT_OK(CheckShape(query, func));
  TupleScan scan;
  scan.source_ = &source;
  AQUA_ASSIGN_OR_RETURN(scan.bindings_,
                        Reformulator::BindAll(query, pmapping, source));
  for (size_t j = 0; j < scan.bindings_.size(); ++j) {
    const BoundPredicate& predicate = scan.bindings_[j].predicate;
    scan.prob_.push_back(scan.bindings_[j].probability);
    size_t slot = 0;
    while (slot < scan.distinct_.size() &&
           !(scan.bindings_[scan.distinct_[slot]].predicate == predicate)) {
      ++slot;
    }
    if (slot == scan.distinct_.size()) scan.distinct_.push_back(j);
    scan.slot_.push_back(slot);
  }
  return scan;
}

Result<TupleMappingGrid> BuildTupleMappingGrid(const AggregateQuery& query,
                                               const PMapping& pmapping,
                                               const Table& source,
                                               RowSpan rows) {
  AQUA_ASSIGN_OR_RETURN(TupleScan scan,
                        TupleScan::Bind(query, query.func, pmapping, source));
  TupleMappingGrid grid;
  grid.n = rows.size(source.num_rows());
  grid.m = scan.num_mappings();
  grid.prob = scan.probabilities();
  grid.satisfies.reserve(grid.n * grid.m);
  grid.value.reserve(grid.n * grid.m);
  AQUA_RETURN_NOT_OK(scan.Run(rows, /*ctx=*/nullptr, [&](const TupleView& t) {
    grid.satisfies.insert(grid.satisfies.end(), t.sat, t.sat + t.m);
    grid.value.insert(grid.value.end(), t.value, t.value + t.m);
  }));
  return grid;
}

}  // namespace aqua
