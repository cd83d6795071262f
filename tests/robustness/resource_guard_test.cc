// Tests for the resource guard rails: the naive enumerator's sequence
// budget at its exact boundary, and the by-table answers' step budget and
// cancellation (l*n steps: one per source row per candidate mapping).

#include <gtest/gtest.h>

#include "aqua/core/engine.h"
#include "aqua/core/naive.h"
#include "aqua/query/parser.h"
#include "aqua/workload/ebay.h"

namespace aqua {
namespace {

class ResourceGuardFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ds2_ = *PaperInstanceDS2();  // 8 tuples
    pm2_ = *MakeEbayPMapping();  // 2 candidate mappings -> 2^8 sequences
    q_ = PaperQueryQ2Prime();
  }

  AggregateQuery WithFunc(AggregateFunction f) const {
    AggregateQuery q = q_;
    q.func = f;
    return q;
  }

  Table ds2_;
  PMapping pm2_;
  AggregateQuery q_;
};

TEST_F(ResourceGuardFixture, NaiveRunsAtExactlyMaxSequences) {
  NaiveOptions options;
  options.max_sequences = 256;  // 2^8, exactly the workload size
  const auto naive = NaiveByTuple::Dist(q_, pm2_, ds2_, options);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
}

TEST_F(ResourceGuardFixture, NaiveRefusesOneSequenceOverBudget) {
  NaiveOptions options;
  options.max_sequences = 255;  // one under 2^8
  const auto naive = NaiveByTuple::Dist(q_, pm2_, ds2_, options);
  ASSERT_FALSE(naive.ok());
  EXPECT_EQ(naive.status().code(), StatusCode::kResourceExhausted);
  // The refusal names the blown budget so callers can tune it.
  EXPECT_NE(naive.status().message().find("2^8"), std::string::npos)
      << naive.status().message();
  EXPECT_NE(naive.status().message().find("255"), std::string::npos)
      << naive.status().message();
}

TEST_F(ResourceGuardFixture, GuardIsCheckedBeforeEnumerating) {
  // A budget the check must refuse without doing any work: if the guard
  // were applied per-sequence instead of up front, this would take years.
  EbayOptions big;
  big.num_auctions = 8;
  big.min_bids = 8;
  big.max_bids = 8;
  Rng rng(7);
  const auto table = GenerateEbayTable(big, rng);  // 64 tuples -> 2^64
  ASSERT_TRUE(table.ok());
  NaiveOptions options;
  options.max_sequences = 1 << 20;
  const auto naive = NaiveByTuple::Dist(PaperQueryQ2Prime(), pm2_, *table,
                                        options);
  ASSERT_FALSE(naive.ok());
  EXPECT_EQ(naive.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(ResourceGuardFixture, ClosedCellsAnswer) {
  const Engine engine;
  // COUNT has PTIME algorithms for all three semantics; SUM keeps range
  // and expected value; ranges exist for everything.
  const auto count_dist =
      engine.Answer(WithFunc(AggregateFunction::kCount), pm2_, ds2_,
                    MappingSemantics::kByTuple,
                    AggregateSemantics::kDistribution);
  EXPECT_TRUE(count_dist.ok()) << count_dist.status().ToString();
  const auto sum_expected =
      engine.Answer(WithFunc(AggregateFunction::kSum), pm2_, ds2_,
                    MappingSemantics::kByTuple,
                    AggregateSemantics::kExpectedValue);
  EXPECT_TRUE(sum_expected.ok()) << sum_expected.status().ToString();
  const auto min_range =
      engine.Answer(WithFunc(AggregateFunction::kMin), pm2_, ds2_,
                    MappingSemantics::kByTuple, AggregateSemantics::kRange);
  EXPECT_TRUE(min_range.ok()) << min_range.status().ToString();
}

/// Runs every by-table entry point (plain, grouped, nested) under `engine`
/// and `cancel`, returning each outcome's status and charged steps.
struct ByTableOutcome {
  const char* entry;
  Status status;
  uint64_t steps = 0;
};

std::vector<ByTableOutcome> AnswerByTable(const Engine& engine,
                                          const AggregateQuery& q,
                                          const PMapping& pm, const Table& t,
                                          CancellationToken cancel = {}) {
  const AggregateQuery grouped = *SqlParser::ParseSimple(
      "SELECT MAX(price) FROM T2 GROUP BY auctionId");
  std::vector<ByTableOutcome> out;
  const auto plain =
      engine.Answer(q, pm, t, MappingSemantics::kByTable,
                    AggregateSemantics::kExpectedValue, cancel);
  out.push_back(
      {"Answer", plain.status(), plain.ok() ? plain->stats.steps : 0});
  const auto groups =
      engine.AnswerGrouped(grouped, pm, t, MappingSemantics::kByTable,
                           AggregateSemantics::kRange, cancel);
  out.push_back({"AnswerGrouped", groups.status(),
                 groups.ok() && !groups->empty()
                     ? groups->front().answer.stats.steps
                     : 0});
  const auto nested =
      engine.AnswerNested(PaperQueryQ2(), pm, t, MappingSemantics::kByTable,
                          AggregateSemantics::kRange, cancel);
  out.push_back(
      {"AnswerNested", nested.status(), nested.ok() ? nested->stats.steps : 0});
  return out;
}

TEST_F(ResourceGuardFixture, ByTableChargesOneStepPerRowPerMapping) {
  const uint64_t l_times_n = pm2_.size() * ds2_.num_rows();
  for (const ByTableOutcome& o : AnswerByTable(Engine(), q_, pm2_, ds2_)) {
    ASSERT_TRUE(o.status.ok()) << o.entry << ": " << o.status.ToString();
    EXPECT_EQ(o.steps, l_times_n) << o.entry;
  }
}

TEST_F(ResourceGuardFixture, ByTableStepBudgetBelowLTimesNIsExhausted) {
  EngineOptions options;
  options.limits.max_steps = pm2_.size() * ds2_.num_rows() - 1;
  for (const ByTableOutcome& o :
       AnswerByTable(Engine(options), q_, pm2_, ds2_)) {
    EXPECT_EQ(o.status.code(), StatusCode::kResourceExhausted)
        << o.entry << ": " << o.status.ToString();
  }
  // Exactly l*n steps is enough.
  options.limits.max_steps = pm2_.size() * ds2_.num_rows();
  for (const ByTableOutcome& o :
       AnswerByTable(Engine(options), q_, pm2_, ds2_)) {
    EXPECT_TRUE(o.status.ok()) << o.entry << ": " << o.status.ToString();
  }
}

TEST_F(ResourceGuardFixture, ByTableHonoursCancellation) {
  const CancellationToken cancel = CancellationToken::Make();
  cancel.RequestCancel();
  for (const ByTableOutcome& o :
       AnswerByTable(Engine(), q_, pm2_, ds2_, cancel)) {
    EXPECT_EQ(o.status.code(), StatusCode::kCancelled)
        << o.entry << ": " << o.status.ToString();
  }
}

}  // namespace
}  // namespace aqua
