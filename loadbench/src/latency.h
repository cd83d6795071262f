#ifndef LOADBENCH_LATENCY_H_
#define LOADBENCH_LATENCY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace loadbench {

/// One attempted request as the latency metrics see it.
struct Outcome {
  double latency_ms = 0;
  bool ok = false;           // a correct answer came back
  int64_t deadline_ms = 0;   // the deadline the request was sent with
  double done_s = 0;         // completion, in seconds since the run started
};

/// Nearest-rank percentile: the value at 1-based rank ceil(q * n) of
/// `sorted` (ascending). `sorted` must be non-empty; 0 < q <= 1.
double Percentile(const std::vector<double>& sorted, double q);

/// How many of `n` samples lie strictly beyond the nearest-rank q-th
/// percentile, i.e. n - ceil(q * n). A percentile is reported only when
/// this is at least kMinTailSamples.
size_t SamplesBeyond(size_t n, double q);
inline constexpr size_t kMinTailSamples = 10;

/// The fewest samples whose p99 has kMinTailSamples beyond it (1000).
size_t MinSamplesForP99();

/// Median of a non-empty set (the mean of the two middle values when the
/// count is even).
double Median(std::vector<double> values);

struct LatencySummary {
  size_t samples = 0;       // attempted requests
  double p50_ms = 0;
  double p99_ms = 0;
  size_t beyond_p99 = 0;    // samples strictly slower than p99
};

/// Latency percentiles over every attempted request. A failed request
/// counts as infinitely slow, so failures push the percentiles up instead
/// of vanishing from them.
LatencySummary SummarizeLatency(const std::vector<Outcome>& outcomes);

/// Throughput and median latency that a burst of outside noise cannot
/// move much: the run is cut into `windows` equal spans by completion
/// time; `qps` is the median over spans of each span's successful
/// requests per second, `p50_ms` the median over spans of each span's p50
/// (failures infinitely slow, as above). Requests completing after
/// `elapsed_s` count in the last span.
struct Windowed {
  double qps = 0;
  double p50_ms = 0;
};
Windowed SummarizeWindows(const std::vector<Outcome>& outcomes,
                          double elapsed_s, int windows);

/// A p99 that a stretch of outside noise shorter than half the run cannot
/// move much: the requests, in order of completion, are cut into as many
/// equal chunks (at most `max_chunks`) as still have kMinTailSamples
/// beyond their own p99; `p99_ms` is the median of the chunks' p99s
/// (failures infinitely slow, as above). A run too short for two chunks
/// is one chunk.
struct Tail {
  double p99_ms = 0;
  size_t chunks = 0;
  size_t requests_per_chunk = 0;  // the fewest in any chunk
  size_t beyond_p99 = 0;          // the fewest beyond its p99 in any chunk
};
Tail SummarizeTail(std::vector<Outcome> outcomes, int max_chunks);

/// Share of attempted requests that missed their deadline: a request
/// misses when it failed, or when its latency exceeded its deadline.
double DeadlineMissRate(const std::vector<Outcome>& outcomes);

}  // namespace loadbench

#endif  // LOADBENCH_LATENCY_H_
