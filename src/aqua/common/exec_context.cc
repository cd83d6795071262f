#include "aqua/common/exec_context.h"

#include <string>

#include "aqua/common/check.h"
#include "aqua/common/failpoint.h"

namespace aqua {

ExecContext::ExecContext(const ExecLimits& limits, CancellationToken cancel)
    : limits_(limits),
      limit_steps_(limits.max_steps != 0),
      limit_bytes_(limits.max_bytes != 0),
      max_steps_(limits.max_steps),
      max_bytes_(limits.max_bytes),
      cancel_(std::move(cancel)) {
  if (limits.timeout_ms > 0) {
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::milliseconds(limits.timeout_ms);
    has_deadline_ = true;
  }
}

Status ExecContext::ChargeBytes(uint64_t bytes) {
  bytes_ += bytes;
  if (limit_bytes_ && bytes_ > max_bytes_) {
    return Status::ResourceExhausted(
        "memory budget exhausted: needs " + std::to_string(bytes_) +
        " bytes of transient state, over the budget of " +
        std::to_string(max_bytes_));
  }
  return Status::OK();
}

Status ExecContext::CheckNow() {
  // error(deadline-exceeded) here deterministically expires any governed
  // computation at its next poll, whatever the wall clock says.
  AQUA_FAILPOINT("common/exec_context/check");
  if (cancel_.cancellation_requested()) {
    return Status::Cancelled("execution cancelled by caller after " +
                             std::to_string(steps_) + " steps");
  }
  if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
    return Status::DeadlineExceeded(
        "deadline of " + std::to_string(limits_.timeout_ms) +
        " ms exceeded after " + std::to_string(steps_) + " steps");
  }
  return Status::OK();
}

std::chrono::milliseconds ExecContext::RemainingTime() const {
  if (!has_deadline_) return std::chrono::milliseconds::max();
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline_ - std::chrono::steady_clock::now());
  return left.count() < 0 ? std::chrono::milliseconds(0) : left;
}

Status ExecContext::StepExhausted() const {
  return Status::ResourceExhausted(
      "step budget exhausted: " + std::to_string(steps_) +
      " steps charged, over the budget of " + std::to_string(max_steps_));
}

namespace {

/// shares[i] = floor(remaining * weights[i] / total_weight), with the
/// rounding remainder handed out one unit at a time from share 0 — so the
/// shares always sum to `remaining` exactly and the split is a pure
/// function of (remaining, weights), independent of thread count.
std::vector<uint64_t> SplitExactly(uint64_t remaining,
                                   const std::vector<uint64_t>& weights) {
  std::vector<uint64_t> shares(weights.size(), 0);
  unsigned __int128 total_weight = 0;
  for (const uint64_t w : weights) total_weight += w;
  uint64_t assigned = 0;
  if (total_weight == 0) {
    const uint64_t even = remaining / weights.size();
    for (auto& s : shares) s = even;
    assigned = even * weights.size();
  } else {
    for (size_t i = 0; i < weights.size(); ++i) {
      shares[i] = static_cast<uint64_t>(
          static_cast<unsigned __int128>(remaining) * weights[i] /
          total_weight);
      assigned += shares[i];
    }
  }
  for (size_t i = 0; assigned < remaining; i = (i + 1) % shares.size()) {
    ++shares[i];
    ++assigned;
  }
  // The parallel runtime's accounting (Child/Absorb) rests on the shares
  // summing to the remaining budget *exactly* — no unit lost to rounding,
  // none invented.
  if (!shares.empty()) {
    uint64_t total = 0;
    for (const uint64_t s : shares) total += s;
    AQUA_DCHECK(total == remaining)
        << "budget split leaks: shares sum to " << total << ", remaining is "
        << remaining;
  }
  return shares;
}

}  // namespace

std::vector<BudgetShare> ExecContext::SplitRemaining(
    const std::vector<uint64_t>& weights) const {
  std::vector<BudgetShare> shares(weights.size());
  if (weights.empty()) return shares;
  if (limit_steps_) {
    const uint64_t remaining = max_steps_ > steps_ ? max_steps_ - steps_ : 0;
    const std::vector<uint64_t> split = SplitExactly(remaining, weights);
    for (size_t i = 0; i < shares.size(); ++i) {
      shares[i].limited_steps = true;
      shares[i].steps = split[i];
    }
  }
  if (limit_bytes_) {
    const uint64_t remaining = max_bytes_ > bytes_ ? max_bytes_ - bytes_ : 0;
    const std::vector<uint64_t> split = SplitExactly(remaining, weights);
    for (size_t i = 0; i < shares.size(); ++i) {
      shares[i].limited_bytes = true;
      shares[i].bytes = split[i];
    }
  }
  return shares;
}

ExecContext ExecContext::Child(const BudgetShare& share,
                               const CancellationToken& cancel) const {
  ExecContext child;
  child.limits_ = limits_;  // keeps timeout_ms for deadline error messages
  child.limits_.max_steps = share.steps;
  child.limits_.max_bytes = share.bytes;
  child.deadline_ = deadline_;
  child.has_deadline_ = has_deadline_;
  child.limit_steps_ = share.limited_steps;
  child.limit_bytes_ = share.limited_bytes;
  child.max_steps_ = share.steps;
  child.max_bytes_ = share.bytes;
  child.cancel_ = cancel;
  return child;
}

ExecContext ExecContext::Renewed(double deadline_share) const {
  BudgetShare whole;
  whole.steps = max_steps_;
  whole.bytes = max_bytes_;
  whole.limited_steps = limit_steps_;
  whole.limited_bytes = limit_bytes_;
  ExecContext renewed = Child(whole, cancel_);
  const auto now = std::chrono::steady_clock::now();
  if (has_deadline_ && deadline_share < 1.0 && deadline_ > now) {
    renewed.deadline_ =
        now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  (deadline_ - now) * deadline_share);
  }
  return renewed;
}

}  // namespace aqua
