#ifndef LOADBENCH_ANSWER_CHECK_H_
#define LOADBENCH_ANSWER_CHECK_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "aqua/common/interval.h"

namespace loadbench {

/// What a request class's answer must be, computed in-process before the
/// run. Each field is optional: an open cell has no exact answer, and a
/// by-table or grouped class has no approximate path, so no range.
struct Reference {
  /// `server::RenderAnswer` of the exact answer of an ungrouped class.
  std::optional<std::string> exact_answer;
  /// (group, RenderAnswer) per group, in the order the engine emits them.
  std::optional<std::vector<std::pair<std::string, std::string>>>
      exact_groups;
  /// The exact by-tuple range of the aggregate; an approximate answer's
  /// values must lie inside it.
  std::optional<aqua::Interval> range;
};

enum class Verdict {
  kExact,        // byte-identical to the reference
  kApproximate,  // flagged approximate, values inside the exact range
  kWrong,        // well-formed, but not the right answer
  kMalformed,    // not a well-formed success body
  kRefused,      // non-200 status, or no response at all
};

bool Succeeded(Verdict v);

/// The verdict on one response plus the facts the metrics read off it.
struct Checked {
  Verdict verdict = Verdict::kMalformed;
  std::string detail;     // why, when not a success
  std::string decision;   // admission decision, e.g. "admit"
  bool grouped = false;
  int64_t wall_time_us = -1;  // stats.wall_time_us (ungrouped only)
  uint64_t steps = 0;         // stats.steps, summed over groups
  uint64_t samples = 0;       // stats.samples
};

/// Checks one /query response against `ref`. An exact answer must equal
/// the reference byte for byte; an approximate one must be flagged and lie
/// inside `ref.range` (to a relative 1e-9, for summation order).
Checked CheckResponse(int http_status, std::string_view body,
                      const Reference& ref);

}  // namespace loadbench

#endif  // LOADBENCH_ANSWER_CHECK_H_
