#include "aqua/core/engine.h"

#include <gtest/gtest.h>

#include "aqua/core/by_tuple_count.h"
#include "aqua/core/by_tuple_sum.h"
#include "aqua/core/naive.h"
#include "aqua/query/parser.h"
#include "aqua/workload/ebay.h"
#include "aqua/workload/real_estate.h"

namespace aqua {
namespace {

class EngineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ds2_ = *PaperInstanceDS2();
    pm2_ = *MakeEbayPMapping();
  }
  Engine engine_;
  Table ds2_;
  PMapping pm2_;
};

TEST_F(EngineFixture, AllThirtySemanticsCellsAnswer) {
  // 5 operators x 2 mapping semantics x 3 aggregate semantics; naive
  // fallback enabled, instance small enough for enumeration.
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
        EXPECT_TRUE(a.ok()) << sql << " " << MappingSemanticsToString(ms)
                            << "/" << AggregateSemanticsToString(as) << ": "
                            << a.status().ToString();
        if (a.ok()) {
          EXPECT_EQ(a->semantics, as);
        }
      }
    }
  }
}

// The paper's Figure 6 by-tuple matrix, one algorithm per cell: the open
// cells (SUM/dist, AVG/dist, AVG/expected) enumerate sequences, MIN/MAX
// distribution and expected value run the CDF extension, and the rest run
// their PTIME algorithm.
TEST_F(EngineFixture, Figure6MatrixNamesOneAlgorithmPerCell) {
  struct Cell {
    const char* sql;
    AggregateSemantics semantics;
    const char* algorithm;
  };
  constexpr const char* kNaive = "NaiveByTuple";
  constexpr const char* kCdf = "CDF factorisation";
  const Cell cells[] = {
      {"SELECT COUNT(*) FROM T2", AggregateSemantics::kRange,
       "ByTupleRangeCOUNT"},
      {"SELECT COUNT(*) FROM T2", AggregateSemantics::kDistribution,
       "ByTuplePDCOUNT"},
      {"SELECT COUNT(*) FROM T2", AggregateSemantics::kExpectedValue,
       "ByTupleExpValCOUNT"},
      {"SELECT SUM(price) FROM T2", AggregateSemantics::kRange,
       "ByTupleRangeSUM"},
      {"SELECT SUM(price) FROM T2", AggregateSemantics::kDistribution, kNaive},
      {"SELECT SUM(price) FROM T2", AggregateSemantics::kExpectedValue,
       "ByTupleExpValSUM"},
      {"SELECT AVG(price) FROM T2", AggregateSemantics::kRange,
       "ByTupleRangeAVG"},
      {"SELECT AVG(price) FROM T2", AggregateSemantics::kDistribution, kNaive},
      {"SELECT AVG(price) FROM T2", AggregateSemantics::kExpectedValue,
       kNaive},
      {"SELECT MIN(price) FROM T2", AggregateSemantics::kRange,
       "ByTupleRangeMIN"},
      {"SELECT MIN(price) FROM T2", AggregateSemantics::kDistribution, kCdf},
      {"SELECT MIN(price) FROM T2", AggregateSemantics::kExpectedValue, kCdf},
      {"SELECT MAX(price) FROM T2", AggregateSemantics::kRange,
       "ByTupleRangeMAX"},
      {"SELECT MAX(price) FROM T2", AggregateSemantics::kDistribution, kCdf},
      {"SELECT MAX(price) FROM T2", AggregateSemantics::kExpectedValue, kCdf},
  };
  for (const Cell& cell : cells) {
    const AggregateQuery q = *SqlParser::ParseSimple(cell.sql);
    const auto name =
        engine_.Explain(q, MappingSemantics::kByTuple, cell.semantics);
    ASSERT_TRUE(name.ok()) << cell.sql;
    EXPECT_NE(name->find(cell.algorithm), std::string::npos)
        << cell.sql << " " << AggregateSemanticsToString(cell.semantics)
        << " -> " << *name;
    // Only the open cells enumerate.
    EXPECT_EQ(name->find(kNaive) != std::string::npos,
              cell.algorithm == kNaive)
        << cell.sql << " -> " << *name;
  }
}

TEST_F(EngineFixture, ExactMinMaxDistributionClosesOpenCells) {
  // The engine answers MIN/MAX distribution and expected value without
  // naive enumeration, via the CDF factorisation extension.
  for (const char* sql :
       {"SELECT MIN(price) FROM T2", "SELECT MAX(price) FROM T2"}) {
    const AggregateQuery q = *SqlParser::ParseSimple(sql);
    for (auto as : {AggregateSemantics::kDistribution,
                    AggregateSemantics::kExpectedValue}) {
      const auto a =
          engine_.Answer(q, pm2_, ds2_, MappingSemantics::kByTuple, as);
      EXPECT_TRUE(a.ok()) << sql << ": " << a.status().ToString();
    }
  }
  // And the answers agree with naive enumeration.
  const AggregateQuery q = *SqlParser::ParseSimple("SELECT MAX(price) FROM T2");
  const auto exact = engine_.Answer(q, pm2_, ds2_, MappingSemantics::kByTuple,
                                    AggregateSemantics::kDistribution);
  const auto brute = NaiveByTuple::Dist(q, pm2_, ds2_);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(brute.ok());
  EXPECT_EQ(brute->undefined_mass, 0.0);
  EXPECT_LT(Distribution::TotalVariationDistanceApprox(
                exact->distribution, brute->distribution, 1e-9),
            1e-9);
}

TEST_F(EngineFixture, CountExpectedViaDistributionAgrees) {
  const AggregateQuery q =
      *SqlParser::ParseSimple("SELECT COUNT(*) FROM T2 WHERE price > 300");
  const auto a = engine_.Answer(q, pm2_, ds2_, MappingSemantics::kByTuple,
                                AggregateSemantics::kExpectedValue);
  const auto b = ByTupleCount::ExpectedViaDistribution(q, pm2_, ds2_);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR(a->expected_value, *b, 1e-9);
}

TEST_F(EngineFixture, AvgRangePaperFormulaAgrees) {
  const AggregateQuery q = *SqlParser::ParseSimple("SELECT AVG(price) FROM T2");
  const auto exact = engine_.Answer(q, pm2_, ds2_, MappingSemantics::kByTuple,
                                    AggregateSemantics::kRange);
  const auto paper = ByTupleSum::RangeAvgPaper(q, pm2_, ds2_);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(paper.ok());
  // No WHERE clause: the two coincide.
  EXPECT_NEAR(exact->range.low, paper->low, 1e-9);
  EXPECT_NEAR(exact->range.high, paper->high, 1e-9);
}

TEST_F(EngineFixture, GroupedByTuple) {
  const AggregateQuery q =
      *SqlParser::ParseSimple("SELECT MAX(price) FROM T2 GROUP BY auctionId");
  const auto rows = engine_.AnswerGrouped(q, pm2_, ds2_,
                                          MappingSemantics::kByTuple,
                                          AggregateSemantics::kRange);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0].group, Value::Int64(34));
  EXPECT_NEAR((*rows)[0].answer.range.low, 336.94, 1e-9);
  EXPECT_NEAR((*rows)[0].answer.range.high, 349.99, 1e-9);
  EXPECT_EQ((*rows)[1].group, Value::Int64(38));
  EXPECT_NEAR((*rows)[1].answer.range.low, 340.5, 1e-9);
  EXPECT_NEAR((*rows)[1].answer.range.high, 439.95, 1e-9);
}

TEST_F(EngineFixture, GroupedByTupleRequiresCertainGroupAttribute) {
  const AggregateQuery q =
      *SqlParser::ParseSimple("SELECT COUNT(*) FROM T2 GROUP BY price");
  const auto rows = engine_.AnswerGrouped(q, pm2_, ds2_,
                                          MappingSemantics::kByTuple,
                                          AggregateSemantics::kRange);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kUnimplemented);
}

TEST_F(EngineFixture, GroupedOmitsGroupsThatNeverQualify) {
  const AggregateQuery q = *SqlParser::ParseSimple(
      "SELECT MAX(price) FROM T2 WHERE price > 400 GROUP BY auctionId");
  const auto rows = engine_.AnswerGrouped(q, pm2_, ds2_,
                                          MappingSemantics::kByTuple,
                                          AggregateSemantics::kRange);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  // Auction 34 never has price > 400 under any mapping.
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].group, Value::Int64(38));
}

TEST_F(EngineFixture, GroupedSurfacesBindingErrors) {
  // A literal incomparable with the mapped column must fail loudly, not
  // silently return zero groups.
  const AggregateQuery q = *SqlParser::ParseSimple(
      "SELECT COUNT(*) FROM T2 WHERE price = 'oops' GROUP BY auctionId");
  const auto rows = engine_.AnswerGrouped(q, pm2_, ds2_,
                                          MappingSemantics::kByTuple,
                                          AggregateSemantics::kRange);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EngineFixture, GroupedExpectedSumUsesTheorem4PerGroup) {
  const AggregateQuery q =
      *SqlParser::ParseSimple("SELECT SUM(price) FROM T2 GROUP BY auctionId");
  const auto rows = engine_.AnswerGrouped(q, pm2_, ds2_,
                                          MappingSemantics::kByTuple,
                                          AggregateSemantics::kExpectedValue);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_NEAR((*rows)[0].answer.expected_value, 975.437, 1e-9);
}

TEST_F(EngineFixture, NestedDispatch) {
  const NestedAggregateQuery q2 = PaperQueryQ2();
  for (auto ms : {MappingSemantics::kByTable, MappingSemantics::kByTuple}) {
    for (auto as :
         {AggregateSemantics::kRange, AggregateSemantics::kDistribution,
          AggregateSemantics::kExpectedValue}) {
      const auto a = engine_.AnswerNested(q2, pm2_, ds2_, ms, as);
      EXPECT_TRUE(a.ok()) << MappingSemanticsToString(ms) << "/"
                          << AggregateSemanticsToString(as) << ": "
                          << a.status().ToString();
    }
  }
}

TEST_F(EngineFixture, SqlFrontDoor) {
  const auto a = engine_.AnswerSql(
      "SELECT SUM(price) FROM T2 WHERE auctionId = 34", pm2_, ds2_,
      MappingSemantics::kByTuple, AggregateSemantics::kExpectedValue);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_NEAR(a->expected_value, 975.437, 1e-9);

  const auto nested = engine_.AnswerSql(
      "SELECT AVG(R1.price) FROM (SELECT MAX(DISTINCT R2.price) FROM T2 AS "
      "R2 GROUP BY R2.auctionID) AS R1",
      pm2_, ds2_, MappingSemantics::kByTuple, AggregateSemantics::kRange);
  ASSERT_TRUE(nested.ok()) << nested.status().ToString();
  EXPECT_NEAR(nested->range.low, (336.94 + 340.5) / 2, 1e-9);

  const auto grouped = engine_.AnswerGroupedSql(
      "SELECT MAX(price) FROM T2 GROUP BY auctionId", pm2_, ds2_,
      MappingSemantics::kByTable, AggregateSemantics::kExpectedValue);
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ(grouped->size(), 2u);
}

TEST_F(EngineFixture, SqlFrontDoorShapeErrors) {
  EXPECT_FALSE(engine_
                   .AnswerSql("SELECT MAX(price) FROM T2 GROUP BY auctionId",
                              pm2_, ds2_, MappingSemantics::kByTable,
                              AggregateSemantics::kRange)
                   .ok());
  EXPECT_FALSE(engine_
                   .AnswerSql("not sql at all", pm2_, ds2_,
                              MappingSemantics::kByTable,
                              AggregateSemantics::kRange)
                   .ok());
}

TEST_F(EngineFixture, AnswerRejectsGroupedQuery) {
  const AggregateQuery q =
      *SqlParser::ParseSimple("SELECT MAX(price) FROM T2 GROUP BY auctionId");
  EXPECT_FALSE(engine_
                   .Answer(q, pm2_, ds2_, MappingSemantics::kByTuple,
                           AggregateSemantics::kRange)
                   .ok());
}

TEST_F(EngineFixture, Q1EndToEnd) {
  const Table ds1 = *PaperInstanceDS1();
  const PMapping pm1 = *MakeRealEstatePMapping();
  const auto a = engine_.AnswerSql(
      "SELECT COUNT(*) FROM T1 WHERE date < '2008-1-20'", pm1, ds1,
      MappingSemantics::kByTuple, AggregateSemantics::kDistribution);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_NEAR(a->distribution.Pr(2.0), 0.48, 1e-12);
}

}  // namespace
}  // namespace aqua
