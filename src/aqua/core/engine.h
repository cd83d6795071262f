#ifndef AQUA_CORE_ENGINE_H_
#define AQUA_CORE_ENGINE_H_

#include <string>
#include <string_view>
#include <vector>

#include "aqua/common/exec_context.h"
#include "aqua/core/answer.h"
#include "aqua/core/naive.h"
#include "aqua/core/row_span.h"
#include "aqua/core/sampler.h"
#include "aqua/exec/parallel.h"
#include "aqua/mapping/p_mapping.h"
#include "aqua/query/ast.h"
#include "aqua/storage/table.h"

namespace aqua {

/// What the engine does when an exact by-tuple computation exhausts its
/// execution budget (deadline, step or byte limit).
enum class DegradePolicy {
  /// Propagate the budget error (kDeadlineExceeded / kResourceExhausted)
  /// to the caller.
  kOff,
  /// Re-answer the query with Monte-Carlo sampling under a fresh budget of
  /// the same size, and flag the answer `approximate` with the degradation
  /// reason. Worst-case total cost is therefore twice the configured
  /// budget. Cancellation is never degraded — a cancel is honoured.
  kSample,
};

/// Engine behaviour knobs.
struct EngineOptions {
  /// Guard rails for the exponential fallback.
  NaiveOptions naive;

  /// Resource budget (wall-clock deadline, step and byte limits) applied
  /// to each Answer* call. Default-constructed = ungoverned.
  ExecLimits limits;

  /// Degradation policy when `limits` expire mid-computation. Applies to
  /// ungrouped by-tuple queries; by-table, grouped and nested queries are
  /// enforced but never degraded (no sampler covers them).
  DegradePolicy degrade = DegradePolicy::kOff;

  /// Sampler configuration for the degraded pass.
  SamplerOptions degrade_sampler;

  /// Worker threads for the parallel by-tuple paths (the COUNT
  /// distribution's occurrence pass — its band DP, O(n*m + sum of band
  /// widths) <= O(n*m + n'^2), is serial — the Monte-Carlo sampler, and
  /// one task per group for grouped/nested answering). 0 = hardware
  /// concurrency; 1 = serial on the calling thread (the shared pool is
  /// never touched). The thread count never changes an answer: work is
  /// partitioned as a pure function of the problem size, so exact answers
  /// are bit-identical and sampled estimates use the same per-chunk RNG
  /// streams at every setting.
  int threads = 0;

  /// In-process fault domains for the ungrouped by-tuple pass. Values > 1
  /// partition the tuple set into up to `shards` contiguous row ranges,
  /// run the cell's kernel over each as one chunk of an exec::ParallelFor
  /// (each under its own child ExecContext, degrading to sampling on its
  /// own when `degrade` allows), and merge the partials with the exact
  /// combination laws in core/merge.h. Only cells with a merge law shard
  /// (COUNT everything; SUM range/expected; MIN/MAX distribution/expected);
  /// the rest, and every grouped query, run as one shard. 1 = off.
  int shards = 1;
};

/// Facade over all six aggregate-query semantics: runs the one algorithm of
/// each (operator, mapping semantics, aggregate semantics) cell of the
/// paper's Figure 6 — guarded naive enumeration for the open cells.
class Engine {
 public:
  explicit Engine(EngineOptions options = {}) : options_(options) {}

  const EngineOptions& options() const { return options_; }

  /// Answers an ungrouped aggregate query over `source` (the instance of
  /// the p-mapping's source relation). Every Answer* overload takes an
  /// optional cancellation token; a default-constructed token can never
  /// fire. Every call is governed by `options().limits` (by-table charges
  /// one step per row per candidate mapping) and an ungrouped by-tuple
  /// call, on budget exhaustion, is subject to `options().degrade`.
  Result<AggregateAnswer> Answer(const AggregateQuery& query,
                                 const PMapping& pmapping, const Table& source,
                                 MappingSemantics mapping_semantics,
                                 AggregateSemantics aggregate_semantics,
                                 CancellationToken cancel = {}) const;

  /// Answers a grouped aggregate query. Under by-tuple semantics the
  /// GROUP BY attribute must be certain (map identically under every
  /// candidate); the per-tuple recurrences then run once per group, one
  /// (possibly concurrent) task per group. One budget covers the whole
  /// grouped query: the remaining budget is split across groups
  /// proportionally to group size (shares sum exactly to the total), each
  /// group charges its own child context, and the per-group QueryStats
  /// report exactly that group's charges — serial or concurrent. Grouped
  /// answers are never degraded to sampling.
  Result<std::vector<GroupedAnswer>> AnswerGrouped(
      const AggregateQuery& query, const PMapping& pmapping,
      const Table& source, MappingSemantics mapping_semantics,
      AggregateSemantics aggregate_semantics,
      CancellationToken cancel = {}) const;

  /// Answers the nested form (paper Q2). By-table: all three semantics.
  /// By-tuple: range exactly (interval arithmetic over groups);
  /// distribution and expected value via guarded naive enumeration.
  /// Budget-enforced but never degraded to sampling.
  Result<AggregateAnswer> AnswerNested(
      const NestedAggregateQuery& query, const PMapping& pmapping,
      const Table& source, MappingSemantics mapping_semantics,
      AggregateSemantics aggregate_semantics,
      CancellationToken cancel = {}) const;

  /// SQL front door for ungrouped statements of either form. The FROM
  /// relation must be the p-mapping's target relation.
  Result<AggregateAnswer> AnswerSql(
      std::string_view sql, const PMapping& pmapping, const Table& source,
      MappingSemantics mapping_semantics,
      AggregateSemantics aggregate_semantics,
      CancellationToken cancel = {}) const;

  /// Answers an ungrouped by-tuple query directly on the Monte-Carlo
  /// sampler, skipping the exact pass entirely — the load-shedding path: a
  /// server over its soft watermark answers new requests here so shed
  /// traffic costs one sampling pass instead of a doomed exact attempt
  /// plus a retry. The answer is flagged approximate and its stats carry
  /// `reason` as the degrade reason, exactly like a budget-driven
  /// degradation would.
  Result<AggregateAnswer> AnswerForcedSample(
      const AggregateQuery& query, const PMapping& pmapping,
      const Table& source, AggregateSemantics aggregate_semantics,
      const std::string& reason, CancellationToken cancel = {}) const;

  /// Names the algorithm `Answer` would run for this (operator, mapping
  /// semantics, aggregate semantics) cell and its asymptotic cost, e.g.
  /// "ByTuplePDCOUNT, O(m*n + n^2)", or the naive enumeration (and its
  /// exponential cost) for the open cells. Useful for tooling and for
  /// teaching the complexity matrix (paper Figure 6).
  Result<std::string> Explain(const AggregateQuery& query,
                              MappingSemantics mapping_semantics,
                              AggregateSemantics aggregate_semantics) const;

  /// SQL front door for grouped statements.
  Result<std::vector<GroupedAnswer>> AnswerGroupedSql(
      std::string_view sql, const PMapping& pmapping, const Table& source,
      MappingSemantics mapping_semantics,
      AggregateSemantics aggregate_semantics,
      CancellationToken cancel = {}) const;

 private:
  /// Runs the by-tuple cell for (query.func, semantics) over `rows` as a
  /// plan of up to `shards` shards (core/shards.h); `shards` > 1 requires
  /// `rows` to be the whole table. `policy` is the parallelism granted:
  /// to the kernel itself on a 1-shard plan, to the shards otherwise.
  /// Engine::Answer grants `options_.threads`; AnswerGrouped passes the
  /// serial policy and one shard because the groups themselves are the
  /// parallel axis there.
  Result<AggregateAnswer> AnswerByTuple(const AggregateQuery& query,
                                        const PMapping& pmapping,
                                        const Table& source,
                                        AggregateSemantics semantics,
                                        RowSpan rows, ExecContext* ctx,
                                        const exec::ExecPolicy& policy,
                                        int shards) const;

  /// Re-answers an ungrouped by-tuple query with the Monte-Carlo sampler
  /// after the exact pass failed with `exact_failure` (a budget error),
  /// under a fresh budget of the same size whose charges are then added to
  /// `request`, the call's own context.
  Result<AggregateAnswer> DegradeToSampling(const AggregateQuery& query,
                                            const PMapping& pmapping,
                                            const Table& source,
                                            AggregateSemantics semantics,
                                            const Status& exact_failure,
                                            ExecContext* request) const;

  /// Fills the request-shaped QueryStats fields: the algorithm cell, the
  /// semantics strings, rows, mappings and limits. Wall time and the
  /// charged counters are the caller's job.
  void FillCommonStats(QueryStats* stats, std::string algorithm,
                       const PMapping& pmapping,
                       MappingSemantics mapping_semantics,
                       AggregateSemantics aggregate_semantics,
                       uint64_t rows) const;

  EngineOptions options_;
};

}  // namespace aqua

#endif  // AQUA_CORE_ENGINE_H_
