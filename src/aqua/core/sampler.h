#ifndef AQUA_CORE_SAMPLER_H_
#define AQUA_CORE_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "aqua/common/exec_context.h"
#include "aqua/common/interval.h"
#include "aqua/core/row_span.h"
#include "aqua/exec/parallel.h"
#include "aqua/mapping/p_mapping.h"
#include "aqua/prob/distribution.h"
#include "aqua/query/ast.h"
#include "aqua/storage/table.h"

namespace aqua {

/// Monte-Carlo configuration.
struct SamplerOptions {
  /// Number of i.i.d. mapping sequences to draw.
  size_t num_samples = 10000;

  /// RNG seed; fixed by default so estimates are reproducible.
  uint64_t seed = 0xA9A9A9A9ULL;

  /// When the execution budget (deadline / steps / bytes) runs out
  /// mid-sampling and at least this many samples were drawn (in total,
  /// across all chunks), return the partial estimate (flagged `truncated`)
  /// instead of the budget error — this is what makes sampling a
  /// graceful-degradation target. Below the floor the estimate is
  /// statistically worthless and the error propagates. Cancellation always
  /// propagates.
  size_t min_samples_on_budget = 100;
};

/// A sampled approximation of a by-tuple answer.
struct SampledAnswer {
  /// Empirical distribution over the *defined* outcomes, normalised by the
  /// total sample count (so its mass is the defined fraction).
  Distribution empirical;

  /// Mean over defined samples.
  double expected = 0.0;

  /// Standard error of `expected` (sample stddev / sqrt(#defined)).
  double std_error = 0.0;

  /// Hull of the observed outcomes — a lower bound (inner approximation)
  /// of the true by-tuple range.
  Interval observed_range;

  /// Samples actually drawn — less than the requested count when the
  /// execution budget truncated the run.
  size_t num_samples = 0;
  size_t undefined_samples = 0;

  /// True when the run stopped early on budget exhaustion (see
  /// `SamplerOptions::min_samples_on_budget`).
  bool truncated = false;
};

/// Sampling estimator for by-tuple distribution / expected-value semantics
/// of SUM, AVG, MIN, MAX (and COUNT, though exact PTIME algorithms exist
/// there) — the method the paper's future-work section proposes for the
/// semantics it leaves open.
///
/// Each sample draws one candidate mapping per tuple (independently, per
/// the by-tuple model) via an alias-method sampler and evaluates the
/// aggregate over a precomputed per-(tuple, mapping) grid, so per-sample
/// cost is O(n) regardless of predicate complexity.
///
/// The sample space is split into fixed chunks and chunk i draws from its
/// own RNG stream seeded `SplitMix64(options.seed ^ i)`; the chunking is a
/// pure function of `num_samples`, so the estimate is identical at every
/// thread count (and a fixed seed is reproducible, as before).
class ByTupleSampler {
 public:
  static Result<SampledAnswer> Sample(const AggregateQuery& query,
                                      const PMapping& pmapping,
                                      const Table& source,
                                      const SamplerOptions& options = {},
                                      RowSpan rows = {},
                                      ExecContext* ctx = nullptr,
                                      const exec::ExecPolicy& policy = {});
};

}  // namespace aqua

#endif  // AQUA_CORE_SAMPLER_H_
