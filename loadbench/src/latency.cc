#include "latency.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace loadbench {
namespace {

size_t NearestRank(size_t n, double q) {
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double Percentile(const std::vector<double>& sorted, double q) {
  return sorted[NearestRank(sorted.size(), q) - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - NearestRank(n, q);
}

size_t MinSamplesForP99() {
  size_t n = 1;
  while (SamplesBeyond(n, 0.99) < kMinTailSamples) ++n;
  return n;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

LatencySummary SummarizeLatency(const std::vector<Outcome>& outcomes) {
  LatencySummary s;
  s.samples = outcomes.size();
  if (outcomes.empty()) return s;
  std::vector<double> sorted;
  sorted.reserve(outcomes.size());
  for (const Outcome& o : outcomes) {
    sorted.push_back(o.ok ? o.latency_ms
                          : std::numeric_limits<double>::infinity());
  }
  std::sort(sorted.begin(), sorted.end());
  s.p50_ms = Percentile(sorted, 0.50);
  s.p99_ms = Percentile(sorted, 0.99);
  s.beyond_p99 = SamplesBeyond(sorted.size(), 0.99);
  return s;
}

Windowed SummarizeWindows(const std::vector<Outcome>& outcomes,
                          double elapsed_s, int windows) {
  std::vector<std::vector<double>> latencies(windows);
  std::vector<size_t> successes(windows, 0);
  for (const Outcome& o : outcomes) {
    const int w = std::clamp(
        static_cast<int>(o.done_s / elapsed_s * windows), 0, windows - 1);
    latencies[w].push_back(o.ok ? o.latency_ms
                                : std::numeric_limits<double>::infinity());
    successes[w] += o.ok ? 1 : 0;
  }
  const double span_s = elapsed_s / windows;
  std::vector<double> qps, p50;
  for (int w = 0; w < windows; ++w) {
    qps.push_back(static_cast<double>(successes[w]) / span_s);
    if (latencies[w].empty()) continue;
    std::sort(latencies[w].begin(), latencies[w].end());
    p50.push_back(Percentile(latencies[w], 0.50));
  }
  Windowed out;
  out.qps = Median(qps);
  out.p50_ms = p50.empty() ? 0 : Median(p50);
  return out;
}

Tail SummarizeTail(std::vector<Outcome> outcomes, int max_chunks) {
  Tail t;
  if (outcomes.empty()) return t;
  std::stable_sort(outcomes.begin(), outcomes.end(),
                   [](const Outcome& a, const Outcome& b) {
                     return a.done_s < b.done_s;
                   });
  const size_t n = outcomes.size();
  t.chunks = std::clamp<size_t>(n / MinSamplesForP99(), 1,
                                static_cast<size_t>(std::max(1, max_chunks)));
  std::vector<double> p99;
  for (size_t i = 0; i < t.chunks; ++i) {
    const std::vector<Outcome> chunk(
        outcomes.begin() + static_cast<std::ptrdiff_t>(i * n / t.chunks),
        outcomes.begin() + static_cast<std::ptrdiff_t>((i + 1) * n / t.chunks));
    const LatencySummary s = SummarizeLatency(chunk);
    p99.push_back(s.p99_ms);
    t.requests_per_chunk =
        i == 0 ? s.samples : std::min(t.requests_per_chunk, s.samples);
    t.beyond_p99 = i == 0 ? s.beyond_p99 : std::min(t.beyond_p99, s.beyond_p99);
  }
  t.p99_ms = Median(p99);
  return t;
}

double DeadlineMissRate(const std::vector<Outcome>& outcomes) {
  if (outcomes.empty()) return 0;
  size_t missed = 0;
  for (const Outcome& o : outcomes) {
    if (!o.ok || o.latency_ms > static_cast<double>(o.deadline_ms)) ++missed;
  }
  return static_cast<double>(missed) / static_cast<double>(outcomes.size());
}

}  // namespace loadbench
