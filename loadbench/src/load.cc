#include "load.h"

#include <atomic>
#include <charconv>
#include <chrono>
#include <string_view>
#include <thread>
#include <unordered_map>

#include <sys/resource.h>

#include "http_client.h"
#include "latency.h"

namespace loadbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kRequestTimeoutMs = 30000;

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

constexpr std::string_view kWallField = "\"wall_time_us\":";

/// Hash of a response body with the values of its wall-clock fields left
/// out: two answers to one request differ in nothing else unless the
/// answer itself differs.
uint64_t StableHash(std::string_view body) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t pos = 0;;) {
    const size_t at = body.find(kWallField, pos);
    const size_t end = at == std::string_view::npos ? body.size()
                                                    : at + kWallField.size();
    h = (h ^ std::hash<std::string_view>{}(body.substr(pos, end - pos))) *
        1099511628211ULL;
    if (at == std::string_view::npos) return h;
    pos = end;
    while (pos < body.size() && body[pos] >= '0' && body[pos] <= '9') ++pos;
  }
}

int64_t WallTimeUs(std::string_view body) {
  const size_t at = body.find(kWallField);
  if (at == std::string_view::npos) return -1;
  int64_t us = -1;
  std::from_chars(body.data() + at + kWallField.size(),
                  body.data() + body.size(), us);
  return us;
}

/// Checks responses, remembering the verdict on each correct body it has
/// seen. A body that repeats one already checked, wall-clock fields aside,
/// gets that verdict without being parsed again, which keeps the
/// generator's CPU time per request small on large grouped answers.
class Checker {
 public:
  explicit Checker(const Workload& w) : w_(w) {}

  Sample Send(uint32_t cls, int port) {
    const RequestClass& c = w_.classes[cls];
    Sample s;
    s.cls = cls;
    const auto start = Clock::now();
    aqua::Result<HttpReply> reply =
        Exchange(port, c.request, kRequestTimeoutMs);
    s.latency_ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                             start)
                       .count();
    if (!reply.ok()) {
      s.checked.verdict = Verdict::kRefused;
      s.checked.detail = reply.status().ToString();
      return s;
    }
    s.body_bytes = reply->body.size();
    if (reply->status != 200) {
      s.checked = CheckResponse(reply->status, reply->body, c.reference);
      return s;
    }
    const uint64_t key = StableHash(reply->body) ^ (uint64_t{cls} << 48);
    if (const auto it = seen_.find(key); it != seen_.end()) {
      s.checked = it->second;
      if (!s.checked.grouped) s.checked.wall_time_us = WallTimeUs(reply->body);
      return s;
    }
    s.checked = CheckResponse(reply->status, reply->body, c.reference);
    if (Succeeded(s.checked.verdict)) seen_.emplace(key, s.checked);
    return s;
  }

 private:
  const Workload& w_;
  std::unordered_map<uint64_t, Checked> seen_;
};

}  // namespace

aqua::Status Warmup(const Workload& w, int port) {
  Checker checker(w);
  for (uint32_t c = 0; c < w.classes.size(); ++c) {
    // A cold first request may overrun its deadline (e.g. a degraded
    // request whose sampler pays first-touch costs); warm-up retries
    // refusals. A wrong answer fails at once.
    Sample s = checker.Send(c, port);
    for (int retry = 0; retry < 2 && s.checked.verdict == Verdict::kRefused;
         ++retry) {
      s = checker.Send(c, port);
    }
    if (!Succeeded(s.checked.verdict)) {
      return aqua::Status::Internal("warm-up request " + w.classes[c].body +
                                    " failed: " + s.checked.detail);
    }
  }
  return aqua::Status::OK();
}

LoadResult RunLoad(const Workload& w, int port, double seconds,
                   int connections) {
  const size_t min_samples = MinSamplesForP99();

  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  std::vector<std::vector<Sample>> per_thread(connections);
  const double cpu_start = CpuSeconds();
  const auto start = Clock::now();
  const auto soft_end = start + std::chrono::duration<double>(seconds);
  const auto hard_end = start + std::chrono::duration<double>(3 * seconds);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < connections; ++t) {
      threads.emplace_back([&, t] {
        Checker checker(w);
        while (true) {
          const auto now = Clock::now();
          if (now >= hard_end ||
              (now >= soft_end && done.load() >= min_samples)) {
            break;
          }
          const size_t i = next.fetch_add(1);
          Sample s = checker.Send(w.stream[i % w.stream.size()], port);
          s.done_s =
              std::chrono::duration<double>(Clock::now() - start).count();
          per_thread[t].push_back(std::move(s));
          done.fetch_add(1);
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  LoadResult result;
  result.elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  result.cpu_s = CpuSeconds() - cpu_start;
  for (std::vector<Sample>& v : per_thread) {
    result.samples.insert(result.samples.end(),
                          std::make_move_iterator(v.begin()),
                          std::make_move_iterator(v.end()));
  }
  return result;
}

}  // namespace loadbench
