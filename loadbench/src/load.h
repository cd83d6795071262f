#ifndef LOADBENCH_LOAD_H_
#define LOADBENCH_LOAD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "answer_check.h"
#include "aqua/common/status.h"
#include "workloads.h"

namespace loadbench {

/// One attempted request of the measured run.
struct Sample {
  uint32_t cls = 0;
  double latency_ms = 0;  // connect + send -> last byte read
  double done_s = 0;      // completion, in seconds since the run started
  size_t body_bytes = 0;
  Checked checked;
};

struct LoadResult {
  std::vector<Sample> samples;
  double elapsed_s = 0;
  double cpu_s = 0;  // the generator's own CPU time (all its threads)
};

/// Sends every class once, one at a time, and checks each answer: fills
/// caches and lazy set-up before timing, and fails fast on a wrong answer.
aqua::Status Warmup(const Workload& w, int port);

/// Closed loop: `connections` threads each send the next request of the
/// stream, wait for its answer, check it, and repeat. Runs for `seconds`,
/// and on past that (up to three times as long) until the p99 has
/// kMinTailSamples requests beyond it.
LoadResult RunLoad(const Workload& w, int port, double seconds,
                   int connections);

}  // namespace loadbench

#endif  // LOADBENCH_LOAD_H_
