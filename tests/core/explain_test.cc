#include <gtest/gtest.h>

#include "aqua/core/engine.h"
#include "aqua/query/parser.h"

namespace aqua {
namespace {

AggregateQuery Query(const char* sql) { return *SqlParser::ParseSimple(sql); }

TEST(ExplainTest, ByTableAlwaysGeneric) {
  const Engine engine;
  for (const char* sql :
       {"SELECT COUNT(*) FROM t", "SELECT SUM(v) FROM t",
        "SELECT AVG(v) FROM t", "SELECT MIN(v) FROM t",
        "SELECT MAX(v) FROM t"}) {
    for (auto as :
         {AggregateSemantics::kRange, AggregateSemantics::kDistribution,
          AggregateSemantics::kExpectedValue}) {
      const auto e = engine.Explain(Query(sql), MappingSemantics::kByTable, as);
      ASSERT_TRUE(e.ok());
      EXPECT_NE(e->find("ByTableAggregateQuery"), std::string::npos) << sql;
    }
  }
}

TEST(ExplainTest, ByTuplePtimeCells) {
  const Engine engine;
  struct Case {
    const char* sql;
    AggregateSemantics semantics;
    const char* expected;
  };
  const Case cases[] = {
      {"SELECT COUNT(*) FROM t", AggregateSemantics::kRange,
       "ByTupleRangeCOUNT"},
      {"SELECT COUNT(*) FROM t", AggregateSemantics::kDistribution,
       "ByTuplePDCOUNT"},
      {"SELECT COUNT(*) FROM t", AggregateSemantics::kExpectedValue,
       "linearity of expectation"},
      {"SELECT SUM(v) FROM t", AggregateSemantics::kRange, "ByTupleRangeSUM"},
      {"SELECT SUM(v) FROM t", AggregateSemantics::kExpectedValue,
       "Theorem 4"},
      {"SELECT AVG(v) FROM t", AggregateSemantics::kRange, "tight variant"},
      {"SELECT MIN(v) FROM t", AggregateSemantics::kRange, "ByTupleRangeMIN"},
      {"SELECT MAX(v) FROM t", AggregateSemantics::kRange, "ByTupleRangeMAX"},
  };
  for (const Case& c : cases) {
    const auto e =
        engine.Explain(Query(c.sql), MappingSemantics::kByTuple, c.semantics);
    ASSERT_TRUE(e.ok()) << c.sql;
    EXPECT_NE(e->find(c.expected), std::string::npos)
        << c.sql << " -> " << *e;
  }
}

TEST(ExplainTest, OpenCellsNameTheNaiveFallback) {
  const Engine engine;
  // SUM/distribution remains open even with the extensions.
  const auto sum = engine.Explain(Query("SELECT SUM(v) FROM t"),
                                  MappingSemantics::kByTuple,
                                  AggregateSemantics::kDistribution);
  ASSERT_TRUE(sum.ok());
  EXPECT_NE(sum->find("NaiveByTuple"), std::string::npos);
  EXPECT_NE(sum->find("l^n"), std::string::npos);
  // MAX/distribution runs the exact extension.
  const auto max_exact = engine.Explain(Query("SELECT MAX(v) FROM t"),
                                        MappingSemantics::kByTuple,
                                        AggregateSemantics::kDistribution);
  ASSERT_TRUE(max_exact.ok());
  EXPECT_NE(max_exact->find("CDF factorisation"), std::string::npos);
}

TEST(ExplainTest, GoldenSweepOverEveryCell) {
  // The full (operator x mapping semantics x aggregate semantics) matrix,
  // pinned as exact strings. QueryStats
  // reuses these texts verbatim as its `algorithm` field, so any drift
  // here is an observable schema change for --stats consumers.
  constexpr const char* kByTable =
      "ByTableAggregateQuery (reformulate per candidate, execute, "
      "CombineResults), O(l) scans = O(l*n)";
  constexpr const char* kNaive =
      "NaiveByTuple (enumerate mapping sequences), O(l^n * n)";
  constexpr const char* kCdf =
      "exact extremum distribution via CDF factorisation "
      "(extension beyond the paper), O(n*m log(n*m))";
  struct Cell {
    const char* sql;
    AggregateSemantics semantics;
    const char* expected;  // by-tuple
  };
  const Cell cells[] = {
      {"SELECT COUNT(*) FROM t", AggregateSemantics::kRange,
       "ByTupleRangeCOUNT, O(n*m)"},
      {"SELECT COUNT(*) FROM t", AggregateSemantics::kDistribution,
       "ByTuplePDCOUNT, O(m*n + n^2)"},
      {"SELECT COUNT(*) FROM t", AggregateSemantics::kExpectedValue,
       "ByTupleExpValCOUNT direct (linearity of expectation), O(n*m)"},
      {"SELECT SUM(v) FROM t", AggregateSemantics::kRange,
       "ByTupleRangeSUM, O(n*m)"},
      {"SELECT SUM(v) FROM t", AggregateSemantics::kDistribution, kNaive},
      {"SELECT SUM(v) FROM t", AggregateSemantics::kExpectedValue,
       "ByTupleExpValSUM = by-table expected value (Theorem 4), O(n*m)"},
      {"SELECT AVG(v) FROM t", AggregateSemantics::kRange,
       "ByTupleRangeAVG (tight variant), O(n*m + n log n)"},
      {"SELECT AVG(v) FROM t", AggregateSemantics::kDistribution, kNaive},
      {"SELECT AVG(v) FROM t", AggregateSemantics::kExpectedValue, kNaive},
      {"SELECT MIN(v) FROM t", AggregateSemantics::kRange,
       "ByTupleRangeMIN, O(n*m)"},
      {"SELECT MIN(v) FROM t", AggregateSemantics::kDistribution, kCdf},
      {"SELECT MIN(v) FROM t", AggregateSemantics::kExpectedValue, kCdf},
      {"SELECT MAX(v) FROM t", AggregateSemantics::kRange,
       "ByTupleRangeMAX, O(n*m)"},
      {"SELECT MAX(v) FROM t", AggregateSemantics::kDistribution, kCdf},
      {"SELECT MAX(v) FROM t", AggregateSemantics::kExpectedValue, kCdf},
  };
  const Engine engine;
  for (const Cell& cell : cells) {
    const AggregateQuery q = Query(cell.sql);
    // By-table: one generic plan, independent of operator.
    const auto bt =
        engine.Explain(q, MappingSemantics::kByTable, cell.semantics);
    ASSERT_TRUE(bt.ok()) << cell.sql;
    EXPECT_EQ(*bt, kByTable) << cell.sql;
    // By-tuple: the pinned per-cell text.
    const auto e =
        engine.Explain(q, MappingSemantics::kByTuple, cell.semantics);
    ASSERT_TRUE(e.ok()) << cell.sql;
    EXPECT_EQ(*e, cell.expected)
        << cell.sql << " semantics="
        << AggregateSemanticsToString(cell.semantics);
  }
}

TEST(ExplainTest, InvalidQueryRejected) {
  const Engine engine;
  AggregateQuery bad;  // no relation, null predicate
  EXPECT_FALSE(engine
                   .Explain(bad, MappingSemantics::kByTuple,
                            AggregateSemantics::kRange)
                   .ok());
}

}  // namespace
}  // namespace aqua
