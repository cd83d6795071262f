// Tests of the benchmark's own logic: percentiles and the tail-count rule,
// failures as infinitely slow deadline misses, and the answer comparator.

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "answer_check.h"
#include "json_scan.h"
#include "latency.h"

namespace loadbench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 0.50), 50);
  EXPECT_EQ(Percentile(v, 0.99), 99);
  EXPECT_EQ(Percentile(v, 1.00), 100);
  EXPECT_EQ(Percentile({7.0}, 0.99), 7);
}

TEST(Percentile, TailCountRule) {
  // p99 has at least ten samples beyond it only from 1000 samples on.
  EXPECT_EQ(SamplesBeyond(100, 0.99), 1u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_GE(SamplesBeyond(1000, 0.99), kMinTailSamples);
  EXPECT_EQ(SamplesBeyond(0, 0.99), 0u);
  EXPECT_EQ(MinSamplesForP99(), 1000u);
}

TEST(Percentile, Median) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
}

TEST(Latency, FailuresAreInfinitelySlow) {
  std::vector<Outcome> outcomes;
  for (int i = 0; i < 98; ++i) outcomes.push_back({1.0, true, 2000});
  outcomes.push_back({0.5, false, 2000});  // fast, but failed
  outcomes.push_back({0.5, false, 2000});
  const LatencySummary s = SummarizeLatency(outcomes);
  EXPECT_EQ(s.samples, 100u);
  EXPECT_EQ(s.p50_ms, 1.0);
  EXPECT_TRUE(std::isinf(s.p99_ms));
  EXPECT_EQ(s.beyond_p99, 1u);
}

TEST(Latency, FailuresAreDeadlineMisses) {
  const std::vector<Outcome> outcomes = {
      {10.0, true, 25},   // within its deadline
      {30.0, true, 25},   // answered, but late
      {1.0, false, 25},   // failed fast: still a miss
      {25.0, true, 25},   // exactly on the deadline is not a miss
  };
  EXPECT_DOUBLE_EQ(DeadlineMissRate(outcomes), 0.5);
  EXPECT_EQ(DeadlineMissRate({}), 0.0);
}

TEST(Latency, WindowsIgnoreOneNoisySpan) {
  // Ten one-second spans of ten 1 ms requests each; span 3 is a burst of
  // outside noise where requests took 50 ms and only two completed.
  std::vector<Outcome> outcomes;
  for (int w = 0; w < 10; ++w) {
    const int n = w == 3 ? 2 : 10;
    for (int i = 0; i < n; ++i) {
      outcomes.push_back({w == 3 ? 50.0 : 1.0, true, 2000, w + 0.05 * i});
    }
  }
  const Windowed s = SummarizeWindows(outcomes, 10.0, 10);
  EXPECT_DOUBLE_EQ(s.qps, 10.0);
  EXPECT_DOUBLE_EQ(s.p50_ms, 1.0);
  // A request finishing after the nominal end counts in the last span.
  outcomes.push_back({1.0, true, 2000, 10.5});
  EXPECT_DOUBLE_EQ(SummarizeWindows(outcomes, 10.0, 10).qps, 10.0);
}

TEST(Latency, TailChunksIgnoreOneNoisyStretch) {
  // 3000 requests of 1 ms, completing in order; the middle third is a
  // stretch of outside noise where every request took 50 ms. The outcomes
  // arrive out of completion order, as the load threads deliver them.
  std::vector<Outcome> outcomes;
  for (int i = 2999; i >= 0; --i) {
    const bool noisy = i >= 1000 && i < 2000;
    outcomes.push_back({noisy ? 50.0 : 1.0, true, 2000, 0.01 * i});
  }
  EXPECT_EQ(SummarizeLatency(outcomes).p99_ms, 50.0);
  const Tail t = SummarizeTail(outcomes, 10);
  EXPECT_EQ(t.chunks, 3u);  // each chunk keeps ten samples beyond its p99
  EXPECT_EQ(t.requests_per_chunk, 1000u);
  EXPECT_EQ(t.beyond_p99, kMinTailSamples);
  EXPECT_EQ(t.p99_ms, 1.0);
  // Too short for two chunks: the whole run is one.
  outcomes.resize(1999);
  EXPECT_EQ(SummarizeTail(outcomes, 10).chunks, 1u);
  EXPECT_EQ(SummarizeTail(outcomes, 10).p99_ms, 50.0);
  // Long runs stop at max_chunks.
  outcomes.assign(50000, {1.0, true, 2000, 0});
  EXPECT_EQ(SummarizeTail(outcomes, 10).chunks, 10u);
}

TEST(Latency, TailFailuresAreInfinitelySlow) {
  // Failures in every chunk put every chunk's p99 on a failure.
  std::vector<Outcome> outcomes;
  for (int i = 0; i < 2000; ++i) {
    outcomes.push_back({1.0, i % 50 != 0, 2000, 0.001 * i});
  }
  EXPECT_TRUE(std::isinf(SummarizeTail(outcomes, 10).p99_ms));
}

TEST(JsonScan, KeepsRawBytes) {
  const std::string text = R"({"a": {"b":[1, 2.5e3,"x\"y"]}, "c":true})";
  const auto doc = ParseJson(text);
  ASSERT_TRUE(doc.has_value());
  const JsonValue* a = doc->Find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->raw, R"({"b":[1, 2.5e3,"x\"y"]})");
  EXPECT_EQ(a->Find("b")->items[1].number, 2500);
  EXPECT_EQ(a->Find("b")->items[2].str, "x\"y");
}

TEST(JsonScan, RejectsMalformed) {
  for (const char* bad : {"", "{", "{\"a\":}", "{\"a\":1,}", "[1 2]", "tru",
                          "{\"a\":1} x", "\"unterminated", "01x", "-"}) {
    EXPECT_FALSE(ParseJson(bad).has_value()) << bad;
  }
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(ParseJson(deep).has_value());
}

constexpr char kRangeAnswer[] =
    R"({"semantics":"range","range":{"low":3,"high":7},"approximate":false,"note":""})";
constexpr char kStats[] =
    R"({"wall_time_us":12,"steps":40,"samples":0})";

std::string Body(const std::string& answer, const std::string& stats = kStats,
                 const std::string& decision = "admit") {
  return R"({"ok":true,"decision":")" + decision + R"(","answer":)" + answer +
         R"(,"stats":)" + stats + "}";
}

Reference ExactRef() {
  Reference r;
  r.exact_answer = kRangeAnswer;
  r.range = aqua::Interval{3, 7};
  return r;
}

TEST(CheckResponse, ExactMustMatchByteForByte) {
  const Checked ok = CheckResponse(200, Body(kRangeAnswer), ExactRef());
  EXPECT_EQ(ok.verdict, Verdict::kExact);
  EXPECT_EQ(ok.wall_time_us, 12);
  EXPECT_EQ(ok.steps, 40u);
  EXPECT_EQ(ok.decision, "admit");
  // Same value, different bytes (3 vs 3.0): not the reference rendering.
  const std::string respelled =
      R"({"semantics":"range","range":{"low":3.0,"high":7},"approximate":false,"note":""})";
  EXPECT_EQ(CheckResponse(200, Body(respelled), ExactRef()).verdict,
            Verdict::kWrong);
  Reference open;  // an open cell: no exact answer exists
  open.range = aqua::Interval{3, 7};
  EXPECT_EQ(CheckResponse(200, Body(kRangeAnswer), open).verdict,
            Verdict::kWrong);
}

TEST(CheckResponse, ApproximateMustLieInsideTheRange) {
  const Reference ref = ExactRef();
  const std::string inside =
      R"({"semantics":"distribution","distribution":[[3,0.25],[7,0.75]],"approximate":true,"note":"sampled"})";
  const std::string outside =
      R"({"semantics":"distribution","distribution":[[2,0.25],[7,0.75]],"approximate":true,"note":""})";
  const std::string expected =
      R"({"semantics":"expected","expected":7.0000000000001,"approximate":true,"note":""})";
  const std::string wide =
      R"({"semantics":"range","range":{"low":3,"high":8},"approximate":true,"note":""})";
  const std::string stats = R"({"wall_time_us":9,"steps":1,"samples":160})";
  const Checked c = CheckResponse(200, Body(inside, stats), ref);
  EXPECT_EQ(c.verdict, Verdict::kApproximate);
  EXPECT_EQ(c.samples, 160u);
  EXPECT_EQ(CheckResponse(200, Body(outside), ref).verdict, Verdict::kWrong);
  // Within the relative tolerance for summation order.
  EXPECT_EQ(CheckResponse(200, Body(expected), ref).verdict,
            Verdict::kApproximate);
  EXPECT_EQ(CheckResponse(200, Body(wide), ref).verdict, Verdict::kWrong);
  Reference no_range;  // by-table: never approximate
  no_range.exact_answer = kRangeAnswer;
  EXPECT_EQ(CheckResponse(200, Body(inside), no_range).verdict,
            Verdict::kWrong);
}

TEST(CheckResponse, RejectsMalformedAndRefused) {
  const Reference ref = ExactRef();
  EXPECT_EQ(CheckResponse(200, "", ref).verdict, Verdict::kMalformed);
  EXPECT_EQ(CheckResponse(200, "{\"ok\":true", ref).verdict,
            Verdict::kMalformed);
  EXPECT_EQ(CheckResponse(200, R"({"ok":false,"decision":"admit"})", ref)
                .verdict,
            Verdict::kMalformed);
  EXPECT_EQ(CheckResponse(200, Body(kRangeAnswer, "{}"), ref).verdict,
            Verdict::kMalformed);
  EXPECT_EQ(CheckResponse(200, Body(R"({"semantics":"range"})"), ref).verdict,
            Verdict::kMalformed);
  EXPECT_EQ(CheckResponse(429, R"({"ok":false})", ref).verdict,
            Verdict::kRefused);
  EXPECT_FALSE(Succeeded(Verdict::kRefused));
  EXPECT_FALSE(Succeeded(Verdict::kMalformed));
}

TEST(CheckResponse, GroupedComparesEveryGroup) {
  Reference ref;
  ref.exact_groups = {{"'215'", kRangeAnswer}, {"'342'", kRangeAnswer}};
  auto group = [](const std::string& name) {
    return R"({"group":")" + name + R"(","answer":)" + kRangeAnswer +
           R"(,"stats":{"steps":5}})";
  };
  const std::string body = R"({"ok":true,"decision":"admit","groups":[)" +
                           group("'215'") + "," + group("'342'") + "]}";
  const Checked c = CheckResponse(200, body, ref);
  EXPECT_EQ(c.verdict, Verdict::kExact);
  EXPECT_TRUE(c.grouped);
  EXPECT_EQ(c.steps, 10u);
  const std::string missing = R"({"ok":true,"decision":"admit","groups":[)" +
                              group("'215'") + "]}";
  EXPECT_EQ(CheckResponse(200, missing, ref).verdict, Verdict::kWrong);
  const std::string renamed = R"({"ok":true,"decision":"admit","groups":[)" +
                              group("'215'") + "," + group("'999'") + "]}";
  EXPECT_EQ(CheckResponse(200, renamed, ref).verdict, Verdict::kWrong);
}

}  // namespace
}  // namespace loadbench
