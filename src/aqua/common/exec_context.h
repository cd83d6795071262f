#ifndef AQUA_COMMON_EXEC_CONTEXT_H_
#define AQUA_COMMON_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "aqua/common/status.h"

namespace aqua {

/// Per-request resource budget. Zero means "unlimited" for every field, so
/// a default-constructed `ExecLimits` imposes no governance at all and the
/// fast paths stay free of clock reads.
struct ExecLimits {
  /// Wall-clock deadline, measured from `ExecContext` construction.
  int64_t timeout_ms = 0;

  /// Abstract work budget. A "step" is one unit of inner-loop work (one
  /// enumerated sequence, one DP cell, one sample evaluation); algorithms
  /// charge steps as they go, so the bound is proportional to CPU work and
  /// deterministic across machines (unlike the wall clock).
  uint64_t max_steps = 0;

  /// Bound on the transient memory an algorithm may allocate (DP tables,
  /// outcome maps). Charged at allocation sites, not a malloc hook.
  uint64_t max_bytes = 0;

  /// True iff no field imposes a bound.
  bool Unlimited() const {
    return timeout_ms <= 0 && max_steps == 0 && max_bytes == 0;
  }
};

/// Cooperative cancellation handle. Copies share one flag; a
/// default-constructed token has no flag and can never be cancelled, so it
/// is a free "don't care" argument. Thread-safe: one thread may call
/// `RequestCancel` while another polls inside an engine loop.
class CancellationToken {
 public:
  CancellationToken() = default;

  /// Creates a token with live shared state.
  static CancellationToken Make() {
    CancellationToken t;
    t.flag_ = std::make_shared<std::atomic<bool>>(false);
    return t;
  }

  /// Creates a token that fires when either it or `upstream` is cancelled.
  /// The parallel runtime hands each task group a linked token so one
  /// worker's failure (or the caller's original token) stops all siblings,
  /// while cancelling the group never cancels the caller's token.
  static CancellationToken MakeLinked(const CancellationToken& upstream) {
    CancellationToken t = Make();
    if (upstream.flag_ != nullptr || upstream.upstream_ != nullptr) {
      t.upstream_ = std::make_shared<CancellationToken>(upstream);
    }
    return t;
  }

  /// Requests cancellation; no-op on a stateless token. Never propagates
  /// upstream: cancelling a linked token leaves its parent untouched.
  void RequestCancel() const {
    if (flag_) flag_->store(true, std::memory_order_relaxed);
  }

  /// True iff `RequestCancel` has been called on any copy of this token or
  /// of any token it is linked to.
  bool cancellation_requested() const {
    if (flag_ && flag_->load(std::memory_order_relaxed)) return true;
    return upstream_ != nullptr && upstream_->cancellation_requested();
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
  std::shared_ptr<const CancellationToken> upstream_;
};

/// One share of a split budget: the step/byte slice a child context is
/// allowed to charge. `limited_*` disambiguates "no bound" from "a bound
/// of zero" (a chunk whose share rounded down to nothing must fail its
/// first charge, not run unbounded).
struct BudgetShare {
  uint64_t steps = 0;
  uint64_t bytes = 0;
  bool limited_steps = false;
  bool limited_bytes = false;
};

/// Mutable per-request execution state: the deadline (fixed at
/// construction), the cancellation token, and running step/byte counters.
///
/// Algorithms receive an `ExecContext*` (null = ungoverned) and call
/// `Charge` from their hot loops. `Charge` is cheap: counters are plain
/// integers and the clock/cancel flag are only consulted every
/// `kCheckInterval` steps, so even the naive enumerator's per-sequence
/// charge costs a couple of instructions on the common path.
class ExecContext {
 public:
  /// An ungoverned context: never expires, never cancels.
  ExecContext() = default;

  explicit ExecContext(const ExecLimits& limits,
                       CancellationToken cancel = CancellationToken());

  /// How often `Charge` consults the wall clock and the cancel flag.
  static constexpr uint64_t kCheckInterval = 4096;

  /// Records `steps` units of work. Fails with kResourceExhausted when the
  /// step budget is spent, kDeadlineExceeded past the deadline, or
  /// kCancelled once cancellation was requested. The deadline/cancel checks
  /// are amortised; the step bound is exact.
  Status Charge(uint64_t steps = 1) {
    steps_ += steps;
    if (limit_steps_ && steps_ > max_steps_) {
      return StepExhausted();
    }
    since_check_ += steps;
    if (since_check_ >= kCheckInterval) {
      since_check_ = 0;
      return CheckNow();
    }
    return Status::OK();
  }

  /// Records a transient allocation of `bytes`. Checked immediately —
  /// allocation sites are rare and each one can be large.
  Status ChargeBytes(uint64_t bytes);

  /// Unconditional deadline + cancellation check (no amortisation). Call
  /// at phase boundaries where a stale verdict would start a long phase.
  Status CheckNow();

  /// Time left until the deadline; zero when already past it. Unbounded
  /// contexts report a very large value.
  std::chrono::milliseconds RemainingTime() const;

  bool has_deadline() const { return has_deadline_; }
  uint64_t steps() const { return steps_; }
  uint64_t bytes() const { return bytes_; }
  const ExecLimits& limits() const { return limits_; }
  const CancellationToken& cancel_token() const { return cancel_; }

  /// Splits the budget still unspent here into `weights.size()` shares
  /// proportional to `weights`, distributing rounding remainders to the
  /// lowest-index shares so the shares sum to the remaining total
  /// *exactly* — the invariant the parallel runtime's accounting rests on.
  /// Unbounded dimensions stay unbounded in every share. All-zero weights
  /// split evenly.
  std::vector<BudgetShare> SplitRemaining(
      const std::vector<uint64_t>& weights) const;

  /// A child context charging against `share`, sharing this context's
  /// *absolute* deadline (not a fresh timeout window) and observing
  /// `cancel` — typically a token linked to this context's own (see
  /// CancellationToken::MakeLinked). Children are independent values, so
  /// concurrent workers charge without synchronisation; the parent calls
  /// `Absorb` at the join to fold their counters back in.
  ExecContext Child(const BudgetShare& share,
                    const CancellationToken& cancel) const;

  /// A context with this one's step and byte limits, counted afresh, and
  /// its cancellation token. It expires at this one's *absolute* deadline,
  /// or, for `deadline_share` < 1, that share of the way there from now:
  /// a degradable request's exact pass runs under the first half of its
  /// deadline, and the sampler under whatever is left of the whole.
  ExecContext Renewed(double deadline_share = 1.0) const;

  /// Adds a joined child's charges to this context's counters. No limit
  /// re-check: the child's share was carved out of this context's
  /// remaining budget, so a child that stayed within its share cannot push
  /// the parent over (a failed child may overshoot by its final charge,
  /// but its failure aborts the parallel region anyway).
  void Absorb(const ExecContext& child) {
    steps_ += child.steps_;
    bytes_ += child.bytes_;
  }

 private:
  Status StepExhausted() const;

  ExecLimits limits_;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  bool limit_steps_ = false;
  bool limit_bytes_ = false;
  uint64_t max_steps_ = 0;
  uint64_t max_bytes_ = 0;
  uint64_t steps_ = 0;
  uint64_t bytes_ = 0;
  uint64_t since_check_ = 0;
  CancellationToken cancel_;
};

/// Null-tolerant wrappers: every governed algorithm takes `ExecContext*`
/// with null meaning "no budget", and these keep the call sites branchless
/// to read.
inline Status ExecCharge(ExecContext* ctx, uint64_t steps = 1) {
  return ctx == nullptr ? Status::OK() : ctx->Charge(steps);
}
inline Status ExecChargeBytes(ExecContext* ctx, uint64_t bytes) {
  return ctx == nullptr ? Status::OK() : ctx->ChargeBytes(bytes);
}
inline Status ExecCheckNow(ExecContext* ctx) {
  return ctx == nullptr ? Status::OK() : ctx->CheckNow();
}

}  // namespace aqua

#endif  // AQUA_COMMON_EXEC_CONTEXT_H_
