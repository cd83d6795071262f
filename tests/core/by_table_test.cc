#include "aqua/core/by_table.h"

#include <gtest/gtest.h>

#include "aqua/query/parser.h"
#include "aqua/storage/table_builder.h"
#include "aqua/workload/ebay.h"
#include "aqua/workload/real_estate.h"

namespace aqua {
namespace {

TEST(CombineResultsTest, Range) {
  const auto a = ByTable::CombineResults({3.0, 1.0, 2.0}, {0.2, 0.5, 0.3},
                                         AggregateSemantics::kRange);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->range, (Interval{1.0, 3.0}));
}

TEST(CombineResultsTest, DistributionMergesEqualResults) {
  const auto a = ByTable::CombineResults({5.0, 2.0, 5.0}, {0.2, 0.5, 0.3},
                                         AggregateSemantics::kDistribution);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->distribution.size(), 2u);
  EXPECT_NEAR(a->distribution.Pr(5.0), 0.5, 1e-12);
  EXPECT_NEAR(a->distribution.Pr(2.0), 0.5, 1e-12);
}

TEST(CombineResultsTest, ExpectedValue) {
  const auto a = ByTable::CombineResults({10.0, 20.0}, {0.25, 0.75},
                                         AggregateSemantics::kExpectedValue);
  ASSERT_TRUE(a.ok());
  EXPECT_NEAR(a->expected_value, 17.5, 1e-12);
}

TEST(CombineResultsTest, ExpectedValueConditionsOnPartialMass) {
  const auto a = ByTable::CombineResults({10.0, 20.0}, {0.25, 0.25},
                                         AggregateSemantics::kExpectedValue);
  ASSERT_TRUE(a.ok());
  EXPECT_NEAR(a->expected_value, 15.0, 1e-12);
}

TEST(CombineResultsTest, RejectsBadInput) {
  EXPECT_FALSE(ByTable::CombineResults({}, {}, AggregateSemantics::kRange)
                   .ok());
  EXPECT_FALSE(ByTable::CombineResults({1.0}, {0.5, 0.5},
                                       AggregateSemantics::kRange)
                   .ok());
  EXPECT_FALSE(ByTable::CombineResults({1.0}, {0.0},
                                       AggregateSemantics::kExpectedValue)
                   .ok());
}

class ByTableFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ds2_ = *PaperInstanceDS2();
    pm2_ = *MakeEbayPMapping();
  }
  Table ds2_;
  PMapping pm2_;
};

TEST_F(ByTableFixture, AllFiveAggregatesAnswer) {
  for (const char* sql : {
           "SELECT COUNT(*) FROM T2 WHERE price > 300",
           "SELECT SUM(price) FROM T2",
           "SELECT AVG(price) FROM T2",
           "SELECT MIN(price) FROM T2",
           "SELECT MAX(price) FROM T2",
       }) {
    const AggregateQuery q = *SqlParser::ParseSimple(sql);
    for (auto sem :
         {AggregateSemantics::kRange, AggregateSemantics::kDistribution,
          AggregateSemantics::kExpectedValue}) {
      const auto a = ByTable::Answer(q, pm2_, ds2_, sem);
      EXPECT_TRUE(a.ok()) << sql << ": " << a.status().ToString();
    }
  }
}

TEST_F(ByTableFixture, MaxOverWholeTable) {
  const AggregateQuery q = *SqlParser::ParseSimple("SELECT MAX(price) FROM T2");
  const auto a = ByTable::Answer(q, pm2_, ds2_, AggregateSemantics::kRange);
  ASSERT_TRUE(a.ok());
  // max bid = 439.95, max currentPrice = 438.05.
  EXPECT_NEAR(a->range.low, 438.05, 1e-9);
  EXPECT_NEAR(a->range.high, 439.95, 1e-9);
}

TEST_F(ByTableFixture, RejectsGroupedQuery) {
  const AggregateQuery q =
      *SqlParser::ParseSimple("SELECT MAX(price) FROM T2 GROUP BY auctionId");
  EXPECT_FALSE(
      ByTable::Answer(q, pm2_, ds2_, AggregateSemantics::kRange).ok());
}

TEST_F(ByTableFixture, GroupedAnswersPerGroup) {
  const AggregateQuery q =
      *SqlParser::ParseSimple("SELECT MAX(price) FROM T2 GROUP BY auctionId");
  const auto rows = ByTable::AnswerGrouped(q, pm2_, ds2_,
                                           AggregateSemantics::kRange);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0].group, Value::Int64(34));
  EXPECT_NEAR((*rows)[0].answer.range.low, 336.94, 1e-9);
  EXPECT_NEAR((*rows)[0].answer.range.high, 349.99, 1e-9);
  EXPECT_EQ((*rows)[1].group, Value::Int64(38));
  EXPECT_NEAR((*rows)[1].answer.range.low, 438.05, 1e-9);
  EXPECT_NEAR((*rows)[1].answer.range.high, 439.95, 1e-9);
}

TEST_F(ByTableFixture, GroupedKeepsDoublesEqualToSixDigitsApart) {
  // 12345.67 and 12345.71 both print as "12345.7"; they are two groups.
  TableBuilder builder(ds2_.schema());
  for (const double time : {12345.67, 12345.71, 12345.67}) {
    ASSERT_TRUE(builder
                    .AppendRow({Value::Int64(1), Value::Int64(1),
                                Value::Double(time), Value::Double(10.0),
                                Value::Double(10.0)})
                    .ok());
  }
  const Table t = *std::move(builder).Finish();
  const AggregateQuery q = *SqlParser::ParseSimple(
      "SELECT COUNT(*) FROM T2 GROUP BY timeUpdate");
  const auto rows = ByTable::AnswerGrouped(q, pm2_, t,
                                           AggregateSemantics::kDistribution);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0].group, Value::Double(12345.67));
  EXPECT_EQ((*rows)[0].answer.distribution.size(), 1u);
  EXPECT_NEAR((*rows)[0].answer.distribution.Pr(2.0), 1.0, 1e-12);
  EXPECT_EQ((*rows)[1].group, Value::Double(12345.71));
  EXPECT_EQ((*rows)[1].answer.distribution.size(), 1u);
  EXPECT_NEAR((*rows)[1].answer.distribution.Pr(1.0), 1.0, 1e-12);
}

TEST_F(ByTableFixture, GroupedRejectsUngrouped) {
  const AggregateQuery q = *SqlParser::ParseSimple("SELECT MAX(price) FROM T2");
  EXPECT_FALSE(
      ByTable::AnswerGrouped(q, pm2_, ds2_, AggregateSemantics::kRange).ok());
}

TEST_F(ByTableFixture, UndefinedAggregateUnderSomeMappingFails) {
  // MIN over a selection that is empty under every mapping.
  const AggregateQuery q =
      *SqlParser::ParseSimple("SELECT MIN(price) FROM T2 WHERE price > 10000");
  const auto a = ByTable::Answer(q, pm2_, ds2_, AggregateSemantics::kRange);
  ASSERT_FALSE(a.ok());
  EXPECT_EQ(a.status().code(), StatusCode::kInvalidArgument);
}

TEST(ByTableRealEstateTest, CountOverWholeGeneratedTable) {
  Rng rng(5);
  RealEstateOptions opts;
  opts.num_properties = 500;
  const Table t = *GenerateRealEstateTable(opts, rng);
  const PMapping pm = *MakeRealEstatePMapping();
  const AggregateQuery q = *SqlParser::ParseSimple(
      "SELECT COUNT(*) FROM T1 WHERE date < '2008-1-20'");
  const auto a = ByTable::Answer(q, pm, t, AggregateSemantics::kExpectedValue);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_GE(a->expected_value, 0.0);
  EXPECT_LE(a->expected_value, 500.0);
}

}  // namespace
}  // namespace aqua
