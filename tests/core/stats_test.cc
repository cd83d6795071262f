// Verifies the observability layer end to end through the engine: every
// Answer* entry point populates QueryStats, the metrics registry counts
// each query, and phase spans land in an installed trace sink.

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "aqua/core/engine.h"
#include "aqua/obs/metrics.h"
#include "aqua/obs/query_stats.h"
#include "aqua/obs/trace.h"
#include "aqua/query/parser.h"
#include "aqua/workload/ebay.h"

namespace aqua {
namespace {

class StatsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ds2_ = *PaperInstanceDS2();
    pm2_ = *MakeEbayPMapping();
    count_q_ =
        *SqlParser::ParseSimple("SELECT COUNT(*) FROM T2 WHERE price > 300");
    grouped_q_ = *SqlParser::ParseSimple(
        "SELECT MAX(DISTINCT price) FROM T2 GROUP BY auctionId");
  }

  void ExpectCommonFields(const QueryStats& stats, MappingSemantics ms,
                          AggregateSemantics as) {
    EXPECT_FALSE(stats.algorithm.empty());
    EXPECT_EQ(stats.mapping_semantics, MappingSemanticsToString(ms));
    EXPECT_EQ(stats.aggregate_semantics, AggregateSemanticsToString(as));
    EXPECT_GE(stats.wall_time_us, 0);
    EXPECT_GT(stats.rows, 0u);
    EXPECT_EQ(stats.mappings, 2u);
  }

  Engine engine_;
  Table ds2_;
  PMapping pm2_;
  AggregateQuery count_q_;
  AggregateQuery grouped_q_;
};

TEST_F(StatsFixture, EveryAnswerCellPopulatesStats) {
  const char* sqls[] = {
      "SELECT COUNT(*) FROM T2 WHERE price > 300",
      "SELECT SUM(price) FROM T2",
      "SELECT AVG(price) FROM T2",
      "SELECT MIN(price) FROM T2",
      "SELECT MAX(price) FROM T2",
  };
  for (const char* sql : sqls) {
    const AggregateQuery q = *SqlParser::ParseSimple(sql);
    for (auto ms : {MappingSemantics::kByTable, MappingSemantics::kByTuple}) {
      for (auto as :
           {AggregateSemantics::kRange, AggregateSemantics::kDistribution,
            AggregateSemantics::kExpectedValue}) {
        const auto a = engine_.Answer(q, pm2_, ds2_, ms, as);
        ASSERT_TRUE(a.ok()) << sql;
        ExpectCommonFields(a->stats, ms, as);
        // The algorithm name matches what Explain reports for the cell.
        const auto plan = engine_.Explain(q, ms, as);
        ASSERT_TRUE(plan.ok());
        EXPECT_EQ(a->stats.algorithm, *plan) << sql;
        EXPECT_FALSE(a->stats.degraded);
      }
    }
  }
}

TEST_F(StatsFixture, ByTupleExactPathRecordsSteps) {
  const auto a = engine_.Answer(count_q_, pm2_, ds2_,
                                MappingSemantics::kByTuple,
                                AggregateSemantics::kDistribution);
  ASSERT_TRUE(a.ok());
  // The COUNT DP charges one step per cell, so a non-trivial instance
  // must show work.
  EXPECT_GT(a->stats.steps, 0u);
  EXPECT_EQ(a->stats.rows, ds2_.num_rows());
}

TEST_F(StatsFixture, GroupedAnswersCarryPerGroupStats) {
  const auto groups =
      engine_.AnswerGrouped(grouped_q_, pm2_, ds2_, MappingSemantics::kByTuple,
                            AggregateSemantics::kRange);
  ASSERT_TRUE(groups.ok());
  ASSERT_GT(groups->size(), 1u);
  uint64_t total_rows = 0;
  for (const GroupedAnswer& g : *groups) {
    EXPECT_FALSE(g.answer.stats.algorithm.empty());
    EXPECT_EQ(g.answer.stats.mapping_semantics, "by-tuple");
    EXPECT_GT(g.answer.stats.rows, 0u);
    EXPECT_EQ(g.answer.stats.mappings, 2u);
    total_rows += g.answer.stats.rows;
  }
  // Per-group row counts partition the (grouped) input.
  EXPECT_EQ(total_rows, ds2_.num_rows());
}

TEST_F(StatsFixture, NestedAnswerPopulatesStats) {
  const NestedAggregateQuery q2 = PaperQueryQ2();
  for (auto ms : {MappingSemantics::kByTable, MappingSemantics::kByTuple}) {
    const auto a = engine_.AnswerNested(q2, pm2_, ds2_, ms,
                                        AggregateSemantics::kRange);
    ASSERT_TRUE(a.ok()) << MappingSemanticsToString(ms);
    EXPECT_FALSE(a->stats.algorithm.empty());
    EXPECT_EQ(a->stats.mapping_semantics, MappingSemanticsToString(ms));
    EXPECT_EQ(a->stats.rows, ds2_.num_rows());
    EXPECT_EQ(a->stats.mappings, 2u);
  }
}

TEST_F(StatsFixture, MetricsRegistryCountsQueries) {
  auto& registry = obs::MetricsRegistry::Default();
  obs::Counter ok = registry.GetCounter(
      "aqua_queries_total",
      {{"cell", "by-tuple/COUNT/distribution"}, {"outcome", "ok"}});
  const uint64_t before = ok.value();
  ASSERT_TRUE(engine_
                  .Answer(count_q_, pm2_, ds2_, MappingSemantics::kByTuple,
                          AggregateSemantics::kDistribution)
                  .ok());
  EXPECT_EQ(ok.value(), before + 1);
  // Steps flow into the registry too.
  EXPECT_GT(registry.GetCounter("aqua_steps_charged_total").value(), 0u);
}

// Requests that fail before any kernel runs still count: every return of
// the Answer* entry points goes through one epilogue.
TEST_F(StatsFixture, EarlyFailuresCountAsErrors) {
  auto& registry = obs::MetricsRegistry::Default();
  obs::Counter errors = registry.GetCounter(
      "aqua_queries_total",
      {{"cell", "by-tuple/COUNT/range"}, {"outcome", "error"}});
  const uint64_t before = errors.value();
  const AggregateQuery having = *SqlParser::ParseSimple(
      "SELECT COUNT(*) FROM T2 GROUP BY auctionId HAVING COUNT(*) > 1");
  const auto grouped =
      engine_.AnswerGrouped(having, pm2_, ds2_, MappingSemantics::kByTuple,
                            AggregateSemantics::kRange);
  ASSERT_FALSE(grouped.ok());
  EXPECT_EQ(grouped.status().code(), StatusCode::kUnimplemented);
  EXPECT_EQ(errors.value(), before + 1);
}

TEST_F(StatsFixture, TraceSinkCapturesEngineSpans) {
  obs::TraceSink sink;
  obs::InstallTraceSink(&sink);
  ASSERT_TRUE(engine_
                  .Answer(count_q_, pm2_, ds2_, MappingSemantics::kByTuple,
                          AggregateSemantics::kDistribution)
                  .ok());
  obs::UninstallTraceSink();
  ASSERT_GE(sink.size(), 2u);
  bool saw_engine = false, saw_algorithm = false;
  for (const obs::TraceEvent& e : sink.events()) {
    if (std::string_view(e.name) == "Engine::Answer") saw_engine = true;
    if (std::string_view(e.name) == "ByTupleCount::Dist") saw_algorithm = true;
  }
  EXPECT_TRUE(saw_engine);
  EXPECT_TRUE(saw_algorithm);
}

TEST(QueryStatsTest, ToJsonIsSchemaStable) {
  QueryStats stats;
  stats.algorithm = "ByTuplePDCOUNT";
  stats.mapping_semantics = "by-tuple";
  stats.aggregate_semantics = "distribution";
  stats.wall_time_us = 42;
  stats.steps = 7;
  stats.bytes = 3;
  stats.rows = 5;
  stats.mappings = 2;
  stats.samples = 0;
  stats.degraded = false;
  EXPECT_EQ(stats.ToJson(),
            "{\"algorithm\":\"ByTuplePDCOUNT\","
            "\"mapping_semantics\":\"by-tuple\","
            "\"aggregate_semantics\":\"distribution\","
            "\"wall_time_us\":42,\"steps\":7,\"bytes\":3,\"rows\":5,"
            "\"mappings\":2,"
            "\"limit_timeout_ms\":0,\"limit_steps\":0,\"limit_bytes\":0,"
            "\"samples\":0,\"sampler_seed\":0,"
            "\"degraded\":false,\"degrade_reason\":\"\","
            "\"shards\":0,\"degraded_shards\":0}");
}

TEST(QueryStatsTest, EffectiveLimitsAppearWhenSet) {
  QueryStats stats;
  stats.algorithm = "ByTupleRangeCOUNT";
  stats.mapping_semantics = "by-tuple";
  stats.aggregate_semantics = "range";
  stats.limit_timeout_ms = 250;
  stats.limit_steps = 1000;
  stats.limit_bytes = 4096;
  const std::string s = stats.ToString();
  EXPECT_NE(s.find("limits=250ms/1000steps/4096bytes"), std::string::npos)
      << s;
  const std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"limit_timeout_ms\":250"), std::string::npos);
  EXPECT_NE(json.find("\"limit_steps\":1000"), std::string::npos);
  EXPECT_NE(json.find("\"limit_bytes\":4096"), std::string::npos);
}

TEST(QueryStatsTest, UnlimitedBudgetOmitsLimitsFromToString) {
  QueryStats stats;
  stats.algorithm = "ByTableAggregateQuery";
  stats.mapping_semantics = "by-table";
  stats.aggregate_semantics = "range";
  // All three dimensions unbounded: the human line stays uncluttered.
  EXPECT_EQ(stats.ToString().find("limits="), std::string::npos);
}

TEST(QueryStatsTest, ToStringMentionsDegradation) {
  QueryStats stats;
  stats.algorithm = "MonteCarlo";
  stats.mapping_semantics = "by-tuple";
  stats.aggregate_semantics = "distribution";
  stats.samples = 100;
  stats.sampler_seed = 0xA9A9A9A9ULL;
  stats.degraded = true;
  stats.degrade_reason = "DEADLINE_EXCEEDED: out of time";
  const std::string s = stats.ToString();
  EXPECT_NE(s.find("samples=100"), std::string::npos) << s;
  EXPECT_NE(s.find("sampler_seed=" + std::to_string(0xA9A9A9A9ULL)),
            std::string::npos)
      << s;
  EXPECT_NE(s.find("degraded (DEADLINE_EXCEEDED"), std::string::npos) << s;
}

TEST(QueryStatsTest, ToStringMentionsShardsOnlyWhenSharded) {
  QueryStats stats;
  stats.algorithm = "ByTuplePDCOUNT";
  stats.mapping_semantics = "by-tuple";
  stats.aggregate_semantics = "distribution";
  // Unsharded: the human line stays uncluttered.
  EXPECT_EQ(stats.ToString().find("shards="), std::string::npos);
  stats.shards = 4;
  stats.degraded_shards = 1;
  const std::string s = stats.ToString();
  EXPECT_NE(s.find("shards=4"), std::string::npos) << s;
  EXPECT_NE(s.find("degraded_shards=1"), std::string::npos) << s;
}

}  // namespace
}  // namespace aqua
