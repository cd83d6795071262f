#ifndef AQUA_CORE_CELLS_H_
#define AQUA_CORE_CELLS_H_

#include <vector>

#include "aqua/common/exec_context.h"
#include "aqua/common/result.h"
#include "aqua/core/answer.h"
#include "aqua/core/engine.h"
#include "aqua/core/merge.h"
#include "aqua/core/row_span.h"
#include "aqua/core/sampler.h"
#include "aqua/exec/parallel.h"

namespace aqua {

/// One kernel invocation: the query and its inputs, the engine options the
/// cell was picked under, and the rows, budget and thread policy of the
/// shard being computed.
struct CellCall {
  const AggregateQuery& query;
  const PMapping& pmapping;
  const Table& source;
  AggregateSemantics semantics;
  const EngineOptions& options;
  RowSpan rows;
  ExecContext* ctx = nullptr;
  exec::ExecPolicy policy;
};

/// How the partials of disjoint shards combine (core/merge.h), and what a
/// shard that degraded to sampling contributes in their place.
struct MergeLaw {
  Result<merge::ShardPartial> (*merge)(
      const std::vector<merge::ShardPartial>& parts, ExecContext* ctx);
  merge::ShardPartial (*from_sample)(SampledAnswer sampled);
};

/// One by-tuple cell of the paper's Figure 6 for one setting of the
/// engine flags: what Explain calls it, the kernel computing its partial
/// answer over a span of rows, how partials merge across shards (null =
/// the cell never shards), and how the one remaining partial becomes the
/// answer.
struct ByTupleCell {
  const char* explain;
  Result<merge::ShardPartial> (*kernel)(const CellCall& call);
  const MergeLaw* merge;
  Result<AggregateAnswer> (*finish)(merge::ShardPartial partial);
};

/// The cell `Engine::Answer` runs for a by-tuple (func, semantics) query
/// under `options`: the PTIME algorithm where one exists, else guarded
/// naive enumeration (`allow_naive`), else a cell that fails with
/// kUnimplemented.
const ByTupleCell& FindByTupleCell(AggregateFunction func,
                                   AggregateSemantics semantics,
                                   const EngineOptions& options);

}  // namespace aqua

#endif  // AQUA_CORE_CELLS_H_
