// Deterministic tests for resource-governed execution and graceful
// degradation: deadlines interrupt the naive enumerator mid-flight, step
// budgets are exact, degrade=sample transparently re-answers with the
// Monte-Carlo sampler, and cancellation is always honoured.

#include <gtest/gtest.h>

#include <chrono>

#include "aqua/common/failpoint.h"
#include "aqua/core/by_tuple_sum.h"
#include "aqua/core/engine.h"
#include "aqua/workload/ebay.h"

namespace aqua {
namespace {

class DegradeFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // 24 tuples x 2 candidate mappings = 2^24 ~ 16.7M sequences: seconds
    // of naive enumeration, so a 50ms deadline always fires mid-flight.
    EbayOptions opts;
    opts.num_auctions = 6;
    opts.min_bids = 4;
    opts.max_bids = 4;
    Rng rng(11);
    table_ = *GenerateEbayTable(opts, rng);
    pm_ = *MakeEbayPMapping();
    sum_all_.func = AggregateFunction::kSum;
    sum_all_.attribute = "price";
    sum_all_.relation = "T2";
    sum_all_.where = Predicate::True();
    avg_all_ = sum_all_;
    avg_all_.func = AggregateFunction::kAvg;
  }

  // Engine options that force the exponential path for SUM distribution:
  // a sequence budget far above 2^24 so only the ExecContext can stop it.
  EngineOptions ForcedNaive() const {
    EngineOptions options;
    options.naive.max_sequences = 1ull << 40;
    return options;
  }

  Table table_;
  PMapping pm_;
  AggregateQuery sum_all_;
  AggregateQuery avg_all_;
};

TEST_F(DegradeFixture, DeadlineInterruptsNaiveEnumerationMidFlight) {
  EngineOptions options = ForcedNaive();
  options.limits.timeout_ms = 50;
  const Engine engine(options);
  const auto start = std::chrono::steady_clock::now();
  const auto answer =
      engine.Answer(sum_all_, pm_, table_, MappingSemantics::kByTuple,
                    AggregateSemantics::kDistribution);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kDeadlineExceeded)
      << answer.status().ToString();
  // The deadline is polled every kCheckInterval sequences, so the overrun
  // is bounded. The bound here is deliberately loose (20x the deadline)
  // to tolerate a loaded CI machine; full enumeration takes far longer.
  EXPECT_LT(elapsed.count(), 1000) << elapsed.count() << "ms";
}

TEST_F(DegradeFixture, StepBudgetFailsDeterministically) {
  EngineOptions options = ForcedNaive();
  options.limits.max_steps = 10000;  // << 2^24 sequences
  const Engine engine(options);
  const auto answer =
      engine.Answer(sum_all_, pm_, table_, MappingSemantics::kByTuple,
                    AggregateSemantics::kDistribution);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kResourceExhausted)
      << answer.status().ToString();
}

TEST_F(DegradeFixture, MemoryBudgetStopsOutcomeMapGrowth) {
  // SUM over continuous prices makes nearly every sequence a distinct
  // outcome, so the outcome map grows without bound; a byte budget stops
  // it even though steps and time are unlimited.
  EngineOptions options = ForcedNaive();
  options.limits.max_bytes = 64 * 1024;
  const Engine engine(options);
  const auto answer =
      engine.Answer(sum_all_, pm_, table_, MappingSemantics::kByTuple,
                    AggregateSemantics::kDistribution);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kResourceExhausted)
      << answer.status().ToString();
}

TEST_F(DegradeFixture, DegradeSampleAnswersDistributionApproximately) {
  EngineOptions options = ForcedNaive();
  options.limits.timeout_ms = 50;
  options.degrade = DegradePolicy::kSample;
  const Engine engine(options);
  const auto start = std::chrono::steady_clock::now();
  const auto answer =
      engine.Answer(sum_all_, pm_, table_, MappingSemantics::kByTuple,
                    AggregateSemantics::kDistribution);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_TRUE(answer->approximate);
  EXPECT_NE(answer->note.find("degraded to sampling"), std::string::npos)
      << answer->note;
  EXPECT_EQ(answer->semantics, AggregateSemantics::kDistribution);
  // The exact pass stops at half the 50 ms deadline and the degraded pass
  // at the deadline itself; the loose factor absorbs CI noise.
  EXPECT_LT(elapsed.count(), 2000) << elapsed.count() << "ms";

  // The empirical distribution's mean must agree with the exact expected
  // SUM (Theorem 4 gives it in PTIME) well within sampling error.
  const auto exact = ByTupleSum::ExpectedSumLinear(sum_all_, pm_, table_);
  ASSERT_TRUE(exact.ok());
  const auto approx_mean = answer->distribution.Expectation();
  ASSERT_TRUE(approx_mean.ok());
  EXPECT_NEAR(*approx_mean, *exact, 0.05 * *exact);
}

TEST_F(DegradeFixture, DeadlineBoundsTheExactAndDegradedPassesTogether) {
  // The exact pass first spends 200 ms of a 400 ms deadline (a delay on
  // its failpoint), then the naive sequence guard refuses 24 tuples at
  // once. The sampler is asked for far more samples than fit in the time,
  // so it runs until a deadline stops it: the request's, 400 ms after the
  // start, not a fresh 400 ms window of its own, which would end at about
  // 600 ms. The slack covers building the answer from every sample drawn
  // (about a million distinct sums to merge and sort) and a loaded machine.
  fault::ScopedFailpoint fp("core/engine/exact", "delay(200)");
  ASSERT_TRUE(fp.status().ok());
  constexpr int64_t kDeadlineMs = 400;
  constexpr int64_t kSlackMs = 100;
  EngineOptions options;
  options.limits.timeout_ms = kDeadlineMs;
  options.degrade = DegradePolicy::kSample;
  options.degrade_sampler.num_samples = size_t{1} << 23;
  const Engine engine(options);
  const auto start = std::chrono::steady_clock::now();
  const auto answer =
      engine.Answer(sum_all_, pm_, table_, MappingSemantics::kByTuple,
                    AggregateSemantics::kDistribution);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_TRUE(answer->approximate);
  EXPECT_NE(answer->note.find("budget-truncated"), std::string::npos)
      << answer->note;
  EXPECT_GE(answer->stats.samples,
            options.degrade_sampler.min_samples_on_budget);
  EXPECT_GE(elapsed.count(), 200);
  EXPECT_LT(elapsed.count(), kDeadlineMs + kSlackMs)
      << elapsed.count() << " ms";
}

TEST_F(DegradeFixture, DegradeSampleAnswersExpectedValueApproximately) {
  // AVG expected value is an open Figure-6 cell (naive only). With no
  // WHERE clause every tuple contributes under both mappings, so
  // AVG = SUM/n with probability one and E[AVG] = E[SUM]/n is available
  // in closed form to validate the estimate.
  EngineOptions options = ForcedNaive();
  options.limits.max_steps = 100000;  // deterministic budget failure
  options.degrade = DegradePolicy::kSample;
  const Engine engine(options);
  const auto answer =
      engine.Answer(avg_all_, pm_, table_, MappingSemantics::kByTuple,
                    AggregateSemantics::kExpectedValue);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_TRUE(answer->approximate);
  EXPECT_NE(answer->note.find("std error"), std::string::npos)
      << answer->note;
  const auto exact_sum = ByTupleSum::ExpectedSumLinear(sum_all_, pm_, table_);
  ASSERT_TRUE(exact_sum.ok());
  const double exact_avg = *exact_sum / static_cast<double>(table_.num_rows());
  EXPECT_NEAR(answer->expected_value, exact_avg, 0.05 * exact_avg);
}

TEST_F(DegradeFixture, DegradedSamplerIsBudgetTruncatedNotFailed) {
  // A step budget that lets the sampler draw only a few hundred of its
  // 10k requested samples: the degraded pass must return a truncated
  // estimate, not propagate the second budget failure.
  EngineOptions options = ForcedNaive();
  options.limits.max_steps = 10000;  // ~400 samples at 25 steps each
  options.degrade = DegradePolicy::kSample;
  const Engine engine(options);
  const auto answer =
      engine.Answer(sum_all_, pm_, table_, MappingSemantics::kByTuple,
                    AggregateSemantics::kDistribution);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_TRUE(answer->approximate);
  EXPECT_NE(answer->note.find("budget-truncated"), std::string::npos)
      << answer->note;
}

TEST_F(DegradeFixture, DegradedAnswerStatsCoverBothPasses) {
  // A deterministic step-budget failure on the exact pass, then the
  // sampling pass: the attached QueryStats must record the degradation
  // reason, the sample count, and the work of BOTH passes — the exact
  // pass alone charges ~max_steps before failing, so a steps total above
  // that proves the sampling pass's charges were added on top.
  EngineOptions options = ForcedNaive();
  options.limits.max_steps = 10000;
  options.degrade = DegradePolicy::kSample;
  const Engine engine(options);
  const auto answer =
      engine.Answer(sum_all_, pm_, table_, MappingSemantics::kByTuple,
                    AggregateSemantics::kDistribution);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  const QueryStats& stats = answer->stats;
  EXPECT_TRUE(stats.degraded);
  EXPECT_NE(stats.degrade_reason.find("resource-exhausted"),
            std::string::npos)
      << stats.degrade_reason;
  EXPECT_GT(stats.samples, 0u);
  EXPECT_GT(stats.steps, 10000u) << "stats must include the exact pass's "
                                    "charges, not just the sampling pass";
  EXPECT_GE(stats.wall_time_us, 0);
  EXPECT_EQ(stats.rows, table_.num_rows());
  // The human-readable rendering surfaces the degradation.
  EXPECT_NE(stats.ToString().find("degraded"), std::string::npos);
}

TEST_F(DegradeFixture, DegradedStatsCarrySamplerSeedForReproduction) {
  // The seed that produced an approximate answer must travel with the
  // stats, so a logged degraded answer can be re-derived exactly by
  // re-running with --sampler-seed=<logged value>.
  EngineOptions options = ForcedNaive();
  options.limits.max_steps = 10000;
  options.degrade = DegradePolicy::kSample;
  options.degrade_sampler.seed = 0xDECADE;
  const Engine engine(options);
  const auto answer =
      engine.Answer(sum_all_, pm_, table_, MappingSemantics::kByTuple,
                    AggregateSemantics::kDistribution);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_TRUE(answer->stats.degraded);
  EXPECT_EQ(answer->stats.sampler_seed, 0xDECADEu);
  EXPECT_NE(answer->stats.ToString().find("sampler_seed="),
            std::string::npos);

  // Same options, same seed: the approximate answer is reproducible.
  const auto again =
      engine.Answer(sum_all_, pm_, table_, MappingSemantics::kByTuple,
                    AggregateSemantics::kDistribution);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->ToString(), answer->ToString());
}

TEST_F(DegradeFixture, InjectedResourceExhaustionDegradesLikeRealOne) {
  // The failpoint on the exact pass drives the same ladder as a genuine
  // budget exhaustion: flagged-approximate answer, reason recorded.
  fault::ScopedFailpoint fp("core/engine/exact",
                            "error(resource-exhausted,injected)");
  ASSERT_TRUE(fp.status().ok());
  EngineOptions options;
  options.degrade = DegradePolicy::kSample;
  const Engine engine(options);
  const auto answer =
      engine.Answer(sum_all_, pm_, table_, MappingSemantics::kByTuple,
                    AggregateSemantics::kRange);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_TRUE(answer->approximate);
  EXPECT_TRUE(answer->stats.degraded);
  EXPECT_NE(answer->stats.degrade_reason.find("resource-exhausted"),
            std::string::npos);
}

TEST_F(DegradeFixture, InjectedNonDegradableErrorSurfacesCleanly) {
  // kUnavailable is not on the degradation ladder: the engine must return
  // it as-is, never silently re-answer with the sampler.
  fault::ScopedFailpoint fp("core/engine/exact", "error(unavailable)");
  ASSERT_TRUE(fp.status().ok());
  EngineOptions options;
  options.degrade = DegradePolicy::kSample;
  const Engine engine(options);
  const auto answer =
      engine.Answer(sum_all_, pm_, table_, MappingSemantics::kByTuple,
                    AggregateSemantics::kRange);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kUnavailable);
}

TEST_F(DegradeFixture, NonDegradedAnswerStatsStayClean) {
  const Engine engine;
  const auto answer =
      engine.Answer(sum_all_, pm_, table_, MappingSemantics::kByTuple,
                    AggregateSemantics::kRange);
  ASSERT_TRUE(answer.ok());
  EXPECT_FALSE(answer->stats.degraded);
  EXPECT_TRUE(answer->stats.degrade_reason.empty());
  EXPECT_EQ(answer->stats.samples, 0u);
}

TEST_F(DegradeFixture, CancellationIsHonouredNotDegraded) {
  EngineOptions options = ForcedNaive();
  options.degrade = DegradePolicy::kSample;
  const Engine engine(options);
  CancellationToken cancel = CancellationToken::Make();
  cancel.RequestCancel();
  const auto answer =
      engine.Answer(sum_all_, pm_, table_, MappingSemantics::kByTuple,
                    AggregateSemantics::kDistribution, cancel);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kCancelled)
      << answer.status().ToString();
}

TEST_F(DegradeFixture, RangeSemanticsUnaffectedByTightDeadline) {
  // The range cells are linear-time; a 50ms deadline is plenty for 24
  // tuples, so governance must not disturb exact answers that fit.
  EngineOptions options;
  options.limits.timeout_ms = 50;
  const Engine ungoverned;
  const Engine governed(options);
  const auto expect = ungoverned.Answer(sum_all_, pm_, table_,
                                        MappingSemantics::kByTuple,
                                        AggregateSemantics::kRange);
  const auto got = governed.Answer(sum_all_, pm_, table_,
                                   MappingSemantics::kByTuple,
                                   AggregateSemantics::kRange);
  ASSERT_TRUE(expect.ok());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_FALSE(got->approximate);
  EXPECT_DOUBLE_EQ(got->range.low, expect->range.low);
  EXPECT_DOUBLE_EQ(got->range.high, expect->range.high);
}

TEST_F(DegradeFixture, ExplainReportsDegradationPolicy) {
  EngineOptions options;
  options.degrade = DegradePolicy::kSample;
  const Engine engine(options);
  const auto plan = engine.Explain(sum_all_, MappingSemantics::kByTuple,
                                   AggregateSemantics::kDistribution);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("degrade=sample"), std::string::npos) << *plan;

  const Engine off;  // default policy
  const auto plain = off.Explain(sum_all_, MappingSemantics::kByTuple,
                                 AggregateSemantics::kDistribution);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->find("degrade=sample"), std::string::npos) << *plain;
}

}  // namespace
}  // namespace aqua
