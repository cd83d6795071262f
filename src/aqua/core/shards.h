#ifndef AQUA_CORE_SHARDS_H_
#define AQUA_CORE_SHARDS_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "aqua/common/exec_context.h"
#include "aqua/common/result.h"
#include "aqua/core/merge.h"
#include "aqua/core/row_span.h"
#include "aqua/exec/parallel.h"

namespace aqua {

/// Contiguous partition of `num_rows` rows into `min(shards, num_rows)`
/// non-empty ranges (at least one), remainder spread over the lowest-index
/// shards. A pure function of (num_rows, shards), so budget shares and
/// merge order are reproducible.
std::vector<RowSpan> PlanShards(size_t num_rows, int shards);

/// The work one shard performs: a partial answer for `rows`, charged to
/// `ctx`, with `policy` the parallelism granted inside the shard. Must set
/// `rows_covered` to the number of rows it actually visited.
using ShardJob = std::function<Result<merge::ShardPartial>(
    size_t shard, RowSpan rows, ExecContext* ctx,
    const exec::ExecPolicy& policy)>;

/// Runs `job` over every span of `plan` (spans of a `num_rows`-row table)
/// and returns the partials in plan order.
///
/// A 1-shard plan is the unsharded case: `job` runs inline on `parent`
/// with `policy`, and nothing else happens. An n-shard plan is one
/// exec::ParallelFor under `policy`, one chunk per shard weighted by its
/// row count, so each shard charges its own child of `parent` and the
/// shards themselves are the parallel axis (jobs get the serial policy).
/// Per shard:
///   - the `shard/run` failpoint fires first (error, delay, or partial,
///     which runs the job over half its rows);
///   - a partial covering fewer rows than planned is a torn partial and
///     fails the shard;
///   - a shard failure other than cancellation, invalid argument or
///     unimplemented runs `fallback` (if non-null) over the full shard
///     under a fresh child of the shard's budget share; its partial is
///     flagged `approximate`. Other failures fail the run.
Result<std::vector<merge::ShardPartial>> RunShards(
    const std::vector<RowSpan>& plan, size_t num_rows,
    const exec::ExecPolicy& policy, ExecContext* parent, const ShardJob& job,
    const ShardJob* fallback);

}  // namespace aqua

#endif  // AQUA_CORE_SHARDS_H_
