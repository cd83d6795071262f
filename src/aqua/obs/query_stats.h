#ifndef AQUA_OBS_QUERY_STATS_H_
#define AQUA_OBS_QUERY_STATS_H_

#include <cstdint>
#include <string>

namespace aqua {

/// Per-query execution statistics, populated by the engine on every
/// successful Answer* call and attached to the answer. Collection is
/// effectively free: the counters are read off the ExecContext the query
/// already charges, plus one wall-clock read at each end of the call.
struct QueryStats {
  /// The algorithm the engine chose for this (operator, mapping semantics,
  /// aggregate semantics) cell, in Engine::Explain's naming — e.g.
  /// "ByTuplePDCOUNT, O(m*n + n^2)".
  std::string algorithm;

  /// MappingSemanticsToString / AggregateSemanticsToString of the request.
  std::string mapping_semantics;
  std::string aggregate_semantics;

  /// End-to-end wall time of the engine call (both passes when degraded).
  int64_t wall_time_us = 0;

  /// Steps and bytes charged to the ExecContext — the same counters the
  /// resource governor enforces budgets on. By-table answers charge one
  /// step per source row per candidate mapping.
  uint64_t steps = 0;
  uint64_t bytes = 0;

  /// The effective (clamped) budget the call ran under — the limits the
  /// engine actually enforced, after any server-side clamping of
  /// request-supplied values. Zero = that dimension was unbounded. These
  /// make every shed/degrade decision auditable from the response alone.
  int64_t limit_timeout_ms = 0;
  uint64_t limit_steps = 0;
  uint64_t limit_bytes = 0;

  /// Source rows in scope (the group's rows for a grouped answer) and the
  /// number of candidate mappings l.
  uint64_t rows = 0;
  uint64_t mappings = 0;

  /// Monte-Carlo samples actually drawn; non-zero only when the answer
  /// came from the sampler (degraded pass).
  uint64_t samples = 0;

  /// The sampler's RNG seed when the answer is sampled (zero otherwise).
  /// Together with `samples` and `degrade_reason` this makes any
  /// approximate answer — including chaos-triggered ones — reproducible
  /// from its log line alone.
  uint64_t sampler_seed = 0;

  /// True when the exact pass blew its budget and the engine re-answered
  /// by sampling; `degrade_reason` then carries the exact pass's failure
  /// (e.g. "kDeadlineExceeded: ..."). Shard-local degradation (some
  /// shards sampled, the rest exact) also sets this, with
  /// `degraded_shards` saying how many.
  bool degraded = false;
  std::string degrade_reason;

  /// Fault-domain sharding facts: how many shards the by-tuple pass ran
  /// across (zero = unsharded) and how many of them degraded locally to
  /// sampling.
  uint64_t shards = 0;
  uint64_t degraded_shards = 0;

  /// One-line human rendering, e.g.
  /// `algorithm="ByTuplePDCOUNT, O(m*n + n^2)" wall=1.2ms steps=532 ...`.
  std::string ToString() const;

  /// Schema-stable JSON object; every field above appears, always in the
  /// same order.
  std::string ToJson() const;
};

}  // namespace aqua

#endif  // AQUA_OBS_QUERY_STATS_H_
