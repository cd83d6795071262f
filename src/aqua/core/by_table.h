#ifndef AQUA_CORE_BY_TABLE_H_
#define AQUA_CORE_BY_TABLE_H_

#include <vector>

#include "aqua/common/exec_context.h"
#include "aqua/core/answer.h"
#include "aqua/mapping/p_mapping.h"
#include "aqua/query/ast.h"
#include "aqua/storage/table.h"

namespace aqua {

/// The generic by-table algorithm (paper Figure 1, `ByTableAggregateQuery`):
/// the query's aggregate under each candidate mapping, combined according
/// to the requested aggregate semantics.
///
/// All three aggregate semantics are PTIME here for every operator. An
/// ungrouped query is one `TupleScan` over the source that folds every
/// mapping's satisfying values into its own `Accumulator`, the executor's
/// per-value rule, so each per-mapping scalar is the one its reformulation
/// executes to. The scan charges `ctx` one step per source row per mapping
/// (n*l) and polls its deadline and cancellation once, before it starts.
/// Grouped and nested queries reformulate and execute once per
/// mapping, charging n per pass. A null `ctx` charges nothing.
class ByTable {
 public:
  /// Answers an ungrouped query. Fails with kInvalidArgument if the
  /// aggregate is undefined (empty qualifying set for SUM/AVG/MIN/MAX)
  /// under any candidate mapping — there is then no single scalar to
  /// combine.
  static Result<AggregateAnswer> Answer(const AggregateQuery& query,
                                        const PMapping& pmapping,
                                        const Table& source,
                                        AggregateSemantics semantics,
                                        ExecContext* ctx = nullptr);

  /// Answers a grouped query. Groups are aligned across mappings by group
  /// value. A group absent under some mapping (possible when the GROUP BY
  /// attribute is itself uncertain, or when WHERE filters all its rows)
  /// contributes nothing for that mapping: ranges hull over the mappings
  /// where the group exists, distribution entries carry the joint mass
  /// Pr(mapping) and may total < 1, and expected values condition on the
  /// group existing.
  static Result<std::vector<GroupedAnswer>> AnswerGrouped(
      const AggregateQuery& query, const PMapping& pmapping,
      const Table& source, AggregateSemantics semantics,
      ExecContext* ctx = nullptr);

  /// Answers the nested form (paper query Q2): the full nested query is
  /// evaluated deterministically once per candidate mapping.
  static Result<AggregateAnswer> AnswerNested(const NestedAggregateQuery& query,
                                              const PMapping& pmapping,
                                              const Table& source,
                                              AggregateSemantics semantics,
                                              ExecContext* ctx = nullptr);

  /// The paper's CombineResults: folds per-mapping results r_i with
  /// probabilities Pr(m_i) into a range, a distribution, or an expected
  /// value. Exposed for tests and for Theorem 4's by-tuple SUM shortcut.
  /// `probs` must be index-aligned with `results`; they need not sum to 1
  /// (see AnswerGrouped) — expected values divide by the total mass.
  static Result<AggregateAnswer> CombineResults(
      const std::vector<double>& results, const std::vector<double>& probs,
      AggregateSemantics semantics);
};

}  // namespace aqua

#endif  // AQUA_CORE_BY_TABLE_H_
