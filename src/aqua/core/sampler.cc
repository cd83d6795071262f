#include "aqua/core/sampler.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>

#include "aqua/common/check.h"
#include "aqua/common/failpoint.h"
#include "aqua/common/random.h"
#include "aqua/core/tuple_scan.h"
#include "aqua/obs/trace.h"
#include "aqua/prob/discrete_sampler.h"
#include "aqua/query/executor.h"

namespace aqua {
namespace {

/// Samples per RNG chunk. Fixed, so the set of per-chunk streams — and
/// therefore the estimate — depends only on (num_samples, seed), never on
/// the thread count.
constexpr size_t kSampleChunk = 1024;

/// Per-chunk accumulator. Merged left-to-right in chunk-index order, which
/// fixes the floating-point reduction order across thread counts.
struct SampleAccum {
  size_t drawn = 0;
  size_t undefined = 0;
  double sum_outcomes = 0.0;
  double sum_sq = 0.0;
  bool have_outcome = false;
  Interval observed_range;
  std::unordered_map<double, size_t> freq;
  /// Non-OK when this chunk's budget share ran out after `drawn` samples;
  /// the merge decides between truncation and propagating the error.
  Status stop;
};

}  // namespace

Result<SampledAnswer> ByTupleSampler::Sample(const AggregateQuery& query,
                                             const PMapping& pmapping,
                                             const Table& source,
                                             const SamplerOptions& options,
                                             RowSpan rows,
                                             ExecContext* ctx,
                                             const exec::ExecPolicy& policy) {
  obs::TraceSpan span("ByTupleSampler::Sample");
  AQUA_FAILPOINT("core/sampler/run");
  if (ParanoidChecksEnabled()) pmapping.CheckInvariants();
  if (options.num_samples == 0) {
    return Status::InvalidArgument("num_samples must be positive");
  }
  AQUA_ASSIGN_OR_RETURN(TupleMappingGrid grid,
                        BuildTupleMappingGrid(query, pmapping, source, rows));
  AQUA_ASSIGN_OR_RETURN(DiscreteSampler mapping_sampler,
                        DiscreteSampler::Make(grid.prob));
  AQUA_RETURN_NOT_OK(ExecCheckNow(ctx));

  const size_t num_chunks =
      (options.num_samples + kSampleChunk - 1) / kSampleChunk;
  std::vector<SampleAccum> slots(num_chunks);
  AQUA_RETURN_NOT_OK(exec::ParallelFor(
      policy, options.num_samples, kSampleChunk, ctx,
      [&](const exec::Chunk& chunk, ExecContext* child) -> Status {
        SampleAccum& acc = slots[chunk.index];
        // Independent stream per chunk: reproducible for a fixed seed and
        // identical however many workers drain the chunks.
        Rng rng(SplitMix64(options.seed ^
                           static_cast<uint64_t>(chunk.index)));
        for (size_t s = chunk.begin; s < chunk.end; ++s) {
          // One step per tuple visited; a sample is the unit of truncation.
          // The clock is polled before a chunk's first sample too, so the
          // chunks after a deadline stop at once, not at their own first
          // amortised poll.
          Status budget = s == chunk.begin ? ExecCheckNow(child) : Status();
          if (budget.ok()) budget = ExecCharge(child, grid.n + 1);
          if (!budget.ok()) {
            if (budget.code() == StatusCode::kCancelled) return budget;
            acc.stop = budget;
            return Status::OK();  // partial chunk; the merge decides
          }
          ++acc.drawn;
          AggregateFold fold;
          for (size_t i = 0; i < grid.n; ++i) {
            const size_t j = mapping_sampler.Sample(rng);
            if (grid.Sat(i, j)) fold.Add(grid.Val(i, j));
          }
          const std::optional<double> value = fold.Finish(query.func);
          if (!value.has_value()) {
            ++acc.undefined;
            continue;
          }
          const double outcome = *value;
          acc.freq[outcome] += 1;
          acc.sum_outcomes += outcome;
          acc.sum_sq += outcome * outcome;
          if (!acc.have_outcome) {
            acc.observed_range = Interval::Point(outcome);
            acc.have_outcome = true;
          } else {
            acc.observed_range =
                Interval::Hull(acc.observed_range, Interval::Point(outcome));
          }
        }
        return Status::OK();
      }));

  // Merge in chunk-index order (fixed reduction order). Accumulate raw
  // frequencies in a hash map (continuous aggregates make most outcomes
  // distinct, and per-sample sorted insertion would be quadratic);
  // normalise by the number of samples actually drawn at the end, so a
  // budget-truncated run still yields a proper distribution.
  SampledAnswer out;
  double sum_outcomes = 0.0;
  double sum_sq = 0.0;
  bool have_outcome = false;
  std::unordered_map<double, size_t> freq;
  size_t drawn = 0;
  Status stop = Status::OK();
  for (SampleAccum& acc : slots) {
    drawn += acc.drawn;
    out.undefined_samples += acc.undefined;
    sum_outcomes += acc.sum_outcomes;
    sum_sq += acc.sum_sq;
    if (acc.have_outcome) {
      out.observed_range = have_outcome
                               ? Interval::Hull(out.observed_range,
                                                acc.observed_range)
                               : acc.observed_range;
      have_outcome = true;
    }
    for (const auto& [outcome, count] : acc.freq) freq[outcome] += count;
    if (stop.ok() && !acc.stop.ok()) stop = acc.stop;
  }
  if (!stop.ok()) {
    if (drawn < options.min_samples_on_budget) return stop;
    out.truncated = true;
  }

  out.num_samples = drawn;
  AQUA_DCHECK(drawn >= out.undefined_samples)
      << drawn << " samples drawn, " << out.undefined_samples << " undefined";
  const size_t defined = drawn - out.undefined_samples;
  if (defined == 0) {
    return Status::InvalidArgument(
        "every sampled sequence left the aggregate undefined");
  }
  // Estimator bookkeeping: every defined sample landed in exactly one
  // frequency bucket, so the bucket weights must sum to the defined count
  // — the normaliser of the empirical distribution — and the merged
  // observed range must still be an ordered interval.
  if (ParanoidChecksEnabled()) {
    size_t bucketed = 0;
    for (const auto& [outcome, count] : freq) bucketed += count;
    AQUA_CHECK(bucketed == defined)
        << "sampler frequency buckets hold " << bucketed << " samples, "
        << defined << " were defined";
    AQUA_CHECK_INTERVAL(out.observed_range.low, out.observed_range.high)
        << "(sampler observed range)";
  }
  std::vector<Distribution::Entry> entries;
  entries.reserve(freq.size());
  for (const auto& [outcome, count] : freq) {
    entries.push_back(Distribution::Entry{
        outcome, static_cast<double>(count) / static_cast<double>(drawn)});
  }
  AQUA_ASSIGN_OR_RETURN(out.empirical,
                        Distribution::FromEntries(std::move(entries)));
  const double nd = static_cast<double>(defined);
  out.expected = sum_outcomes / nd;
  const double variance =
      std::max(0.0, sum_sq / nd - out.expected * out.expected);
  out.std_error = defined > 1 ? std::sqrt(variance / nd) : 0.0;
  AQUA_DCHECK(out.std_error >= 0.0 && !std::isnan(out.std_error))
      << "std error " << out.std_error;
  return out;
}

}  // namespace aqua
