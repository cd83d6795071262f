#ifndef AQUA_CORE_CELLS_H_
#define AQUA_CORE_CELLS_H_

#include <vector>

#include "aqua/common/exec_context.h"
#include "aqua/common/result.h"
#include "aqua/core/answer.h"
#include "aqua/core/merge.h"
#include "aqua/core/naive.h"
#include "aqua/core/row_span.h"
#include "aqua/core/sampler.h"
#include "aqua/exec/parallel.h"

namespace aqua {

/// One kernel invocation: the query and its inputs, the rows, budget and
/// thread policy of the shard being computed, and the guard rails of the
/// naive cells.
struct CellCall {
  const AggregateQuery& query;
  const PMapping& pmapping;
  const Table& source;
  AggregateSemantics semantics;
  RowSpan rows;
  ExecContext* ctx = nullptr;
  exec::ExecPolicy policy;
  NaiveOptions naive;
};

/// How the partials of disjoint shards combine (core/merge.h), and what a
/// shard that degraded to sampling contributes in their place.
struct MergeLaw {
  Result<merge::ShardPartial> (*merge)(
      const std::vector<merge::ShardPartial>& parts, ExecContext* ctx);
  merge::ShardPartial (*from_sample)(SampledAnswer sampled);
};

/// One by-tuple cell of the paper's Figure 6: what Explain calls it, the
/// kernel computing its partial answer over a span of rows, how partials
/// merge across shards (null = the cell never shards), and how the one
/// remaining partial becomes the answer.
struct ByTupleCell {
  const char* explain;
  Result<merge::ShardPartial> (*kernel)(const CellCall& call);
  const MergeLaw* merge;
  Result<AggregateAnswer> (*finish)(merge::ShardPartial partial);
};

/// The cell `Engine::Answer` runs for a by-tuple (func, semantics) query:
/// the PTIME algorithm where one exists, guarded naive enumeration for the
/// cells the paper leaves open.
const ByTupleCell& FindByTupleCell(AggregateFunction func,
                                   AggregateSemantics semantics);

}  // namespace aqua

#endif  // AQUA_CORE_CELLS_H_
