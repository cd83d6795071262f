#ifndef AQUA_COMMON_FAILPOINT_H_
#define AQUA_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "aqua/common/result.h"
#include "aqua/common/status.h"

namespace aqua::fault {

/// Deterministic fault injection ("failpoints", after the discipline used
/// by production datastores): named sites compiled into the library where
/// a configured fault — an error return, a delay, or a partial result —
/// can be triggered on demand, so every recovery path (the serial
/// fallback, the degradation ladder, linked cancellation) is testable
/// without waiting for the OS to misbehave.
///
/// Cost when idle: a site that is not armed is one relaxed atomic load
/// (`Armed()` reads a process-wide active-failpoint count); the registry
/// lock is only taken once at least one failpoint is enabled anywhere.
///
/// Configuration surfaces:
///   - programmatic: `Enable("storage/csv/read-file", "once*error(unavailable)")`
///   - environment:  `AQUA_FAILPOINTS="site=spec;site2=spec2"` via
///                    `ConfigureFromEnv()`
///   - CLI:          `aqua_cli --failpoint=site:spec` (repeatable)
///
/// Spec grammar (documented in DESIGN.md §9):
///
///   spec    := [trigger '*'] action
///   trigger := 'once' | 'every(' N ')' | 'after(' N ')'
///            | 'p(' PROB [',' SEED] ')'
///   action  := 'off'
///            | 'error(' CODE [',' MESSAGE] ')'
///            | 'delay(' MILLIS ')'
///            | 'partial'
///
/// CODE is a canonical status-code name (see StatusCodeFromString), e.g.
/// `unavailable` (a transient failure; aquad reports it retryable) or
/// `resource-exhausted` (what drives the engine's degradation ladder).
/// With no trigger the action fires on every evaluation. `p` draws from a
/// deterministic per-site SplitMix64 stream, so a seeded probabilistic
/// failpoint fires on the same evaluations in every run.

/// What an armed failpoint does when its trigger fires.
enum class FaultKind {
  kOff,      ///< registered but inert (same as not enabled)
  kError,    ///< Evaluate returns the configured Status
  kDelay,    ///< Evaluate sleeps `delay_ms`, then returns OK
  kPartial,  ///< Evaluate returns OK; sites that support partial results
             ///< poll `InjectPartial(site)` and truncate their output
};

/// How often an armed failpoint fires.
enum class FaultTrigger {
  kAlways,  ///< every evaluation
  kOnce,    ///< the first evaluation only
  kEveryN,  ///< evaluations N, 2N, 3N, ... (1-based)
  kAfterN,  ///< every evaluation after the first N
  kProb,    ///< each evaluation independently with probability `prob`
};

/// Parsed form of one failpoint spec.
struct FailSpec {
  FaultTrigger trigger = FaultTrigger::kAlways;
  uint64_t n = 0;        ///< parameter of every(N) / after(N)
  double prob = 0.0;     ///< parameter of p(PROB, ...)
  uint64_t seed = 0;     ///< PRNG seed of p(...); 0 picks a default
  FaultKind kind = FaultKind::kOff;
  StatusCode code = StatusCode::kUnavailable;  ///< error(...) status code
  std::string message;   ///< error(...) message; defaulted when empty
  int64_t delay_ms = 0;  ///< delay(...) duration

  /// Renders the spec back in the grammar above (stable for reports).
  std::string ToString() const;
};

/// Parses a spec string (grammar above). Whitespace-intolerant by design:
/// specs travel through env vars and CLI flags where stray spaces are
/// almost always quoting bugs.
Result<FailSpec> ParseSpec(std::string_view spec);

/// One entry of the compiled-in site inventory.
struct SiteInfo {
  std::string_view name;
  std::string_view description;
  /// False for sites on paths that cannot surface a Status (e.g. inside a
  /// worker thread's task loop); an `error` spec there is counted as fired
  /// but otherwise ignored, and the chaos runner expects answers to be
  /// unaffected.
  bool honors_error = true;
};

/// Every failpoint site compiled into the library, in stable order. The
/// chaos runner enumerates this list; the `chaos_inventory_test` and the
/// `naked-failpoint` lint rule enforce that it matches the AQUA_FAILPOINT
/// sites present in the source exactly.
const std::vector<SiteInfo>& AllSites();

/// True when `name` is in `AllSites()`.
bool IsKnownSite(std::string_view name);

/// True iff at least one failpoint is currently enabled, as one relaxed
/// atomic load — the only cost a disabled site pays.
bool Armed();

/// Arms `site` with `spec` (string or parsed). Fails with kNotFound for a
/// site not in the inventory (catching config typos) and kInvalidArgument
/// for an unparseable spec. Enabling a site that is already enabled
/// replaces its spec and resets its counters.
Status Enable(std::string_view site, std::string_view spec);
Status Enable(std::string_view site, const FailSpec& spec);

/// Disarms one site / every site. Disabling an inert site is a no-op.
void Disable(std::string_view site);
void DisableAll();

/// Applies a `site=spec;site2=spec2` configuration string (`;` or newline
/// separated; empty items ignored). On error, earlier items stay applied.
Status ConfigureFromString(std::string_view config);

/// Applies the AQUA_FAILPOINTS environment variable (no-op when unset).
Status ConfigureFromEnv();

/// Full evaluation path behind AQUA_FAILPOINT; call through the macro (or
/// guard with `Armed()`) so disabled builds stay at one atomic load.
Status Evaluate(std::string_view site);

/// True when `site` is armed with a `partial` action whose trigger fires
/// now. Sites that support partial results poll this *instead of* (not in
/// addition to) the error path truncating their output.
bool InjectPartial(std::string_view site);

/// Evaluations / fault activations of `site` since it was last enabled.
/// Zero for disabled sites. The chaos runner uses `fire_count` to check a
/// configured fault actually triggered.
struct SiteStats {
  uint64_t hit_count = 0;
  uint64_t fire_count = 0;
};
SiteStats StatsFor(std::string_view site);

/// RAII enable/disable for tests: arms `site` in the constructor, disarms
/// it in the destructor.
class ScopedFailpoint {
 public:
  ScopedFailpoint(std::string_view site, std::string_view spec)
      : site_(site), status_(Enable(site, spec)) {}
  ~ScopedFailpoint() { Disable(site_); }
  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

  /// Whether Enable succeeded; tests should assert this.
  const Status& status() const { return status_; }

 private:
  std::string site_;
  Status status_;
};

}  // namespace aqua::fault

/// Statement form: evaluates the failpoint and propagates an injected
/// error out of the enclosing function (which must return Status or
/// Result<T>). Compiles to one relaxed atomic load when no failpoint is
/// enabled anywhere in the process.
#define AQUA_FAILPOINT(site)                                         \
  do {                                                               \
    if (::aqua::fault::Armed()) {                                    \
      ::aqua::Status _aqua_fp_status = ::aqua::fault::Evaluate(site); \
      if (!_aqua_fp_status.ok()) return _aqua_fp_status;             \
    }                                                                \
  } while (false)

/// Expression form for contexts that cannot return a Status (void worker
/// loops) or want to route the injected error themselves. Yields
/// Status::OK() when disarmed.
#define AQUA_FAILPOINT_STATUS(site)                     \
  (::aqua::fault::Armed() ? ::aqua::fault::Evaluate(site) \
                          : ::aqua::Status::OK())

#endif  // AQUA_COMMON_FAILPOINT_H_
