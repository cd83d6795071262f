#include "aqua/core/shards.h"

#include <algorithm>
#include <string>
#include <utility>

#include "aqua/common/check.h"
#include "aqua/common/failpoint.h"

namespace aqua {
namespace {

/// A shard failure eligible for local degradation to sampling. A
/// cancellation is the caller's own deadline/abort (or a sibling's failure)
/// propagating down; an invalid-argument or unimplemented failure would
/// reproduce identically under the sampler, so degrading only hides it.
bool DegradableShardFailure(const Status& status) {
  return status.code() != StatusCode::kCancelled &&
         status.code() != StatusCode::kInvalidArgument &&
         status.code() != StatusCode::kUnimplemented;
}

/// The exact attempt at one shard, including the `shard/run` injections
/// and the torn-partial check.
Result<merge::ShardPartial> RunExact(size_t s, RowSpan rows, size_t planned,
                                     ExecContext* ctx, const ShardJob& job) {
  // Poll the partial injection before the error/delay evaluation:
  // Evaluate() consumes the spec's trigger (a `once*partial` would
  // otherwise be spent returning OK). InjectPartial checks the action
  // kind before consuming, so non-partial specs pass through untouched.
  const bool torn = fault::InjectPartial("shard/run");
  AQUA_RETURN_NOT_OK(AQUA_FAILPOINT_STATUS("shard/run"));
  // Torn-partial injection: scan a prefix of the shard, as a shard dying
  // mid-scan would. The coverage check below must turn this into a
  // detected failure, never a silently short answer.
  const RowSpan run_rows =
      torn && planned > 1 ? rows.Prefix(planned / 2) : rows;
  AQUA_ASSIGN_OR_RETURN(merge::ShardPartial partial,
                        job(s, run_rows, ctx, exec::ExecPolicy{}));
  if (partial.rows_covered != planned) {
    return Status::Internal("torn shard partial: shard " + std::to_string(s) +
                            " covered " +
                            std::to_string(partial.rows_covered) + " of " +
                            std::to_string(planned) + " rows");
  }
  return partial;
}

}  // namespace

std::vector<RowSpan> PlanShards(size_t num_rows, int shards) {
  const size_t n = std::max<size_t>(
      1, std::min<size_t>(static_cast<size_t>(std::max(shards, 1)), num_rows));
  const size_t base = num_rows / n;
  const size_t remainder = num_rows % n;
  std::vector<RowSpan> plan;
  plan.reserve(n);
  size_t begin = 0;
  for (size_t s = 0; s < n; ++s) {
    const size_t end = begin + base + (s < remainder ? 1 : 0);
    plan.push_back(RowSpan::Range(begin, end));
    begin = end;
  }
  return plan;
}

Result<std::vector<merge::ShardPartial>> RunShards(
    const std::vector<RowSpan>& plan, size_t num_rows,
    const exec::ExecPolicy& policy, ExecContext* parent, const ShardJob& job,
    const ShardJob* fallback) {
  std::vector<merge::ShardPartial> partials(plan.size());
  if (plan.size() == 1) {
    AQUA_ASSIGN_OR_RETURN(partials[0], job(0, plan[0], parent, policy));
    return partials;
  }
  std::vector<uint64_t> weights;
  weights.reserve(plan.size());
  for (const RowSpan& rows : plan) weights.push_back(rows.size(num_rows));
  // The same shares ParallelFor carves for its chunks, so a degraded shard
  // samples under a fresh child of exactly its own share. Like the global
  // degrade ladder, a failing-then-degrading shard may therefore account
  // up to twice its slice — bounded and deliberate.
  const std::vector<BudgetShare> shares =
      parent == nullptr ? std::vector<BudgetShare>{}
                        : parent->SplitRemaining(weights);
  AQUA_RETURN_NOT_OK(exec::ParallelFor(
      policy, plan.size(), /*chunk_size=*/1, parent,
      [&](const exec::Chunk& chunk, ExecContext* child) -> Status {
        const size_t s = chunk.index;
        Result<merge::ShardPartial> exact =
            RunExact(s, plan[s], weights[s], child, job);
        if (exact.ok()) {
          partials[s] = std::move(*exact);
          return Status::OK();
        }
        if (fallback == nullptr || !DegradableShardFailure(exact.status()) ||
            child->cancel_token().cancellation_requested()) {
          return exact.status();
        }
        ExecContext fresh =
            parent == nullptr
                ? ExecContext(ExecLimits{}, child->cancel_token())
                : parent->Child(shares[s], child->cancel_token());
        Result<merge::ShardPartial> sampled =
            (*fallback)(s, plan[s], &fresh, exec::ExecPolicy{});
        child->Absorb(fresh);
        // A failed fallback keeps the (more informative) exact failure.
        if (!sampled.ok()) return exact.status();
        partials[s] = std::move(*sampled);
        partials[s].approximate = true;
        return Status::OK();
      },
      &weights));
  // Coverage backstop: every planned row came back in exactly one
  // partial. A violation means a torn partial got past the per-shard
  // check — corruption, not an input error.
  uint64_t planned = 0;
  uint64_t covered = 0;
  for (size_t s = 0; s < plan.size(); ++s) {
    planned += weights[s];
    covered += partials[s].rows_covered;
  }
  AQUA_CHECK(covered == planned)
      << "shard merge coverage hole: partials cover " << covered << " of "
      << planned << " rows";
  return partials;
}

}  // namespace aqua
