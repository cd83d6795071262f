#ifndef AQUA_CORE_BY_TUPLE_COMMON_H_
#define AQUA_CORE_BY_TUPLE_COMMON_H_

#include <cstdint>
#include <vector>

#include "aqua/core/row_span.h"
#include "aqua/reformulate/reformulator.h"

namespace aqua {
namespace by_tuple_internal {

/// True iff tuple `row` participates in the aggregate under binding `b`:
/// the (reformulated) WHERE condition holds and, when the aggregate names
/// an attribute, that attribute is non-NULL (SQL aggregates skip NULLs).
inline bool TupleSatisfies(const Reformulator::MappingBinding& b,
                           const Table& table, size_t row) {
  if (!b.predicate.Matches(table, row)) return false;
  return b.attribute == nullptr || !b.attribute->IsNull(row);
}

/// Per-(tuple, mapping) evaluation cache shared by the naive enumerator
/// and the Monte-Carlo sampler: satisfaction flags, attribute values, and
/// mapping probabilities, laid out row-major so the inner loops are pure
/// array walks.
struct TupleMappingGrid {
  size_t n = 0;  // tuples
  size_t m = 0;  // mappings
  std::vector<uint8_t> satisfies;  // n*m
  std::vector<double> value;       // n*m; 0 when not satisfying
  std::vector<double> prob;        // m

  bool Sat(size_t i, size_t j) const { return satisfies[i * m + j] != 0; }
  double Val(size_t i, size_t j) const { return value[i * m + j]; }
};

/// Precomputes the grid for `query` over the `rows` of `source`. Costs one
/// predicate evaluation per (tuple, mapping).
inline Result<TupleMappingGrid> BuildTupleMappingGrid(
    const AggregateQuery& query, const PMapping& pmapping,
    const Table& source, RowSpan rows) {
  AQUA_ASSIGN_OR_RETURN(std::vector<Reformulator::MappingBinding> bindings,
                        Reformulator::BindAll(query, pmapping, source));
  TupleMappingGrid grid;
  grid.n = rows.size(source.num_rows());
  grid.m = bindings.size();
  grid.satisfies.assign(grid.n * grid.m, 0);
  grid.value.assign(grid.n * grid.m, 0.0);
  grid.prob.resize(grid.m);
  for (size_t j = 0; j < grid.m; ++j) grid.prob[j] = bindings[j].probability;
  for (size_t i = 0; i < grid.n; ++i) {
    const size_t r = rows.row(i);
    for (size_t j = 0; j < grid.m; ++j) {
      if (TupleSatisfies(bindings[j], source, r)) {
        grid.satisfies[i * grid.m + j] = 1;
        if (bindings[j].attribute != nullptr) {
          grid.value[i * grid.m + j] = bindings[j].attribute->NumericAt(r);
        }
      }
    }
  }
  return grid;
}

}  // namespace by_tuple_internal
}  // namespace aqua

#endif  // AQUA_CORE_BY_TUPLE_COMMON_H_
