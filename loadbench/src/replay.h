#ifndef LOADBENCH_REPLAY_H_
#define LOADBENCH_REPLAY_H_

#include <string>
#include <utility>
#include <vector>

#include "aqua/common/result.h"
#include "workloads.h"

namespace loadbench {

/// Named per-layer values, in report order.
using LayerMetrics = std::vector<std::pair<std::string, double>>;

/// The traced replay: sends the workload's request stream, in order,
/// through each layer's public function in-process, timing every call from
/// outside the program (no tracing inside src/). Replays for at least one
/// second and until every class has been seen, and stops after
/// `budget_s`. `engine_us_p50` is the untraced run's median engine time,
/// for `trace.engine_gap_us`.
aqua::Result<LayerMetrics> Replay(const Workload& w, double engine_us_p50,
                                  double budget_s);

}  // namespace loadbench

#endif  // LOADBENCH_REPLAY_H_
