#ifndef AQUA_CORE_NAIVE_H_
#define AQUA_CORE_NAIVE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "aqua/common/exec_context.h"
#include "aqua/common/interval.h"
#include "aqua/core/row_span.h"
#include "aqua/mapping/p_mapping.h"
#include "aqua/prob/distribution.h"
#include "aqua/query/ast.h"
#include "aqua/storage/table.h"

namespace aqua {

/// Guard rails for exhaustive sequence enumeration.
struct NaiveOptions {
  /// Refuse to enumerate more than this many sequences (l^n). The default
  /// allows ~4M sequences — seconds of work — so accidentally handing a
  /// real table to the naive path fails fast instead of running for the
  /// "more than 10 days" the paper reports for 36 eBay tuples.
  uint64_t max_sequences = uint64_t{1} << 22;
};

/// Result of exhaustive enumeration. Sequences under which the aggregate
/// is undefined (an empty qualifying set for AVG/MIN/MAX) contribute no
/// outcome; their total probability is reported separately so callers can
/// decide whether to condition on definedness or fail.
struct NaiveAnswer {
  Distribution distribution;
  double undefined_mass = 0.0;
};

/// The distribution of `answer` when the aggregate is defined with
/// probability 1 (undefined mass at most 1e-12); kInvalidArgument
/// otherwise, since no total distribution exists.
Result<Distribution> DefinedDistribution(NaiveAnswer answer);

/// The expected value of `answer` under the same rule: an aggregate that
/// is undefined with positive probability has no unconditional mean.
Result<double> DefinedExpectation(const NaiveAnswer& answer);

struct TupleMappingGrid;

/// The paper's §IV-B enumeration, shared by the flat and the nested naive
/// algorithms: visits every one of the grid's l^n mapping sequences
/// (`seq[i]` is the mapping tuple i takes) and adds Pr(sequence) — the
/// product of `grid.prob[seq[i]]` in ascending i — to the mass of
/// `outcome(seq)`, or to the undefined mass where that is nullopt. It
/// refuses more than `options.max_sequences` sequences up front
/// (kResourceExhausted), polls `ctx` before the first, charges one step per
/// sequence and the outcome map's growth as bytes. An empty grid has
/// exactly one sequence, the empty one.
Result<NaiveAnswer> EnumerateSequences(
    const TupleMappingGrid& grid, const NaiveOptions& options,
    ExecContext* ctx,
    const std::function<std::optional<double>(const std::vector<size_t>&)>&
        outcome);

/// The generic exponential by-tuple algorithm (paper §IV-B): enumerate all
/// l^n mapping sequences, evaluate the aggregate per sequence, and
/// accumulate Pr(sequence) onto the resulting value. This is both the only
/// known exact algorithm for the semantics the paper leaves open
/// (by-tuple distribution/expected value of SUM, AVG, MIN, MAX) and the
/// oracle our property tests compare the PTIME algorithms against.
class NaiveByTuple {
 public:
  /// Full distribution over defined outcomes. O(l^n * n).
  /// DISTINCT is supported only for MIN/MAX (where it is a no-op).
  /// The enumeration charges one `ctx` step per sequence, so a deadline or
  /// cancellation interrupts it within `ExecContext::kCheckInterval`
  /// sequences.
  static Result<NaiveAnswer> Dist(const AggregateQuery& query,
                                  const PMapping& pmapping,
                                  const Table& source,
                                  const NaiveOptions& options = {},
                                  RowSpan rows = {},
                                  ExecContext* ctx = nullptr);

  /// Expected value; fails if any sequence leaves the aggregate undefined
  /// (the expectation would be conditional).
  static Result<double> Expected(const AggregateQuery& query,
                                 const PMapping& pmapping,
                                 const Table& source,
                                 const NaiveOptions& options = {},
                                 RowSpan rows = {},
                                 ExecContext* ctx = nullptr);

  /// Range over defined outcomes.
  static Result<Interval> Range(const AggregateQuery& query,
                                const PMapping& pmapping, const Table& source,
                                const NaiveOptions& options = {},
                                RowSpan rows = {},
                                ExecContext* ctx = nullptr);
};

}  // namespace aqua

#endif  // AQUA_CORE_NAIVE_H_
