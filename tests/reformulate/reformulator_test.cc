#include "aqua/reformulate/reformulator.h"

#include <gtest/gtest.h>

#include "aqua/query/executor.h"
#include "aqua/query/parser.h"
#include "aqua/workload/ebay.h"
#include "aqua/workload/real_estate.h"

namespace aqua {
namespace {

TEST(ReformulatorTest, Q1ReformulatesPerMapping) {
  // Paper Example 3: Q1 becomes Q11 under m11 and Q12 under m12.
  const PMapping pm = *MakeRealEstatePMapping();
  const AggregateQuery q1 = PaperQueryQ1();

  const auto q11 = Reformulator::Reformulate(q1, pm.mapping(0));
  ASSERT_TRUE(q11.ok()) << q11.status().ToString();
  EXPECT_EQ(q11->relation, "S1");
  EXPECT_EQ(q11->where->ToString(), "postedDate < '2008-1-20'");

  const auto q12 = Reformulator::Reformulate(q1, pm.mapping(1));
  ASSERT_TRUE(q12.ok());
  EXPECT_EQ(q12->where->ToString(), "reducedDate < '2008-1-20'");
}

TEST(ReformulatorTest, AggregateAttributeIsRewritten) {
  const PMapping pm = *MakeEbayPMapping();
  const AggregateQuery q = PaperQueryQ2Prime();
  const auto r0 = Reformulator::Reformulate(q, pm.mapping(0));
  ASSERT_TRUE(r0.ok());
  EXPECT_EQ(r0->attribute, "bid");
  EXPECT_EQ(r0->where->ToString(), "auction = 34");
  const auto r1 = Reformulator::Reformulate(q, pm.mapping(1));
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->attribute, "currentPrice");
}

TEST(ReformulatorTest, GroupByIsRewritten) {
  const PMapping pm = *MakeEbayPMapping();
  AggregateQuery q = *SqlParser::ParseSimple(
      "SELECT MAX(price) FROM T2 GROUP BY auctionId");
  const auto r = Reformulator::Reformulate(q, pm.mapping(0));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->group_by, "auction");
}

TEST(ReformulatorTest, HavingAttributeIsRewritten) {
  const PMapping pm = *MakeEbayPMapping();
  AggregateQuery q = *SqlParser::ParseSimple(
      "SELECT MAX(price) FROM T2 GROUP BY auctionId HAVING MIN(price) > "
      "300");
  const auto r0 = Reformulator::Reformulate(q, pm.mapping(0));
  ASSERT_TRUE(r0.ok()) << r0.status().ToString();
  ASSERT_TRUE(r0->having.has_value());
  EXPECT_EQ(r0->having->attribute, "bid");
  const auto r1 = Reformulator::Reformulate(q, pm.mapping(1));
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->having->attribute, "currentPrice");
}

TEST(ReformulatorTest, HavingCountStarKeepsEmptyAttribute) {
  const PMapping pm = *MakeEbayPMapping();
  AggregateQuery q = *SqlParser::ParseSimple(
      "SELECT MAX(price) FROM T2 GROUP BY auctionId HAVING COUNT(*) > 2");
  const auto r = Reformulator::Reformulate(q, pm.mapping(0));
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->having.has_value());
  EXPECT_TRUE(r->having->attribute.empty());
}

TEST(ReformulatorTest, UnmappedAttributeFails) {
  const PMapping pm = *MakeRealEstatePMapping();
  AggregateQuery q = *SqlParser::ParseSimple(
      "SELECT COUNT(*) FROM T1 WHERE comments = 'nice'");
  const auto r = Reformulator::Reformulate(q, pm.mapping(0));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ReformulatorTest, WrongRelationFails) {
  const PMapping pm = *MakeRealEstatePMapping();
  AggregateQuery q = *SqlParser::ParseSimple("SELECT COUNT(*) FROM Other");
  EXPECT_FALSE(Reformulator::Reformulate(q, pm.mapping(0)).ok());
}

TEST(ReformulatorTest, NestedReformulation) {
  const PMapping pm = *MakeEbayPMapping();
  const NestedAggregateQuery q2 = PaperQueryQ2();
  const auto r = Reformulator::ReformulateNested(q2, pm.mapping(1));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->inner.attribute, "currentPrice");
  EXPECT_EQ(r->inner.group_by, "auction");
  EXPECT_EQ(r->outer, AggregateFunction::kAvg);
}

TEST(ReformulatorTest, BindAllProducesOneBindingPerCandidate) {
  const PMapping pm = *MakeEbayPMapping();
  const Table t = *PaperInstanceDS2();
  const auto bindings =
      Reformulator::BindAll(PaperQueryQ2Prime(), pm, t);
  ASSERT_TRUE(bindings.ok()) << bindings.status().ToString();
  ASSERT_EQ(bindings->size(), 2u);
  EXPECT_DOUBLE_EQ((*bindings)[0].probability, 0.3);
  EXPECT_DOUBLE_EQ((*bindings)[1].probability, 0.7);
  // Binding 0 aggregates the bid column, binding 1 the currentPrice column.
  EXPECT_DOUBLE_EQ((*bindings)[0].attribute->DoubleAt(2), 331.94);
  EXPECT_DOUBLE_EQ((*bindings)[1].attribute->DoubleAt(2), 202.50);
  // The WHERE auctionId = 34 predicate holds for the first four rows only.
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ((*bindings)[0].predicate.Matches(t, r), r < 4);
  }
}

TEST(ReformulatorTest, BindAllCountStarHasNoAttribute) {
  const PMapping pm = *MakeRealEstatePMapping();
  const Table t = *PaperInstanceDS1();
  const auto bindings = Reformulator::BindAll(PaperQueryQ1(), pm, t);
  ASSERT_TRUE(bindings.ok()) << bindings.status().ToString();
  EXPECT_EQ((*bindings)[0].attribute, nullptr);
}

TEST(ReformulatorTest, OneAttributeTypeRuleOnEveryPath) {
  // BindAll, the executor's SELECT aggregate and its HAVING aggregate all
  // apply the same rule with the same codes and texts.
  const PMapping pm = *MakeRealEstatePMapping();
  const Table t = *PaperInstanceDS1();
  struct Case {
    const char* target;  // aggregate over the target schema T1
    const char* source;  // the same aggregate under mapping 0, over S1
    StatusCode code;
    const char* message;
  };
  const Case cases[] = {
      {"SUM(date)", "SUM(postedDate)", StatusCode::kInvalidArgument,
       "SUM requires a numeric attribute; 'postedDate' is date"},
      {"AVG(phone)", "AVG(agentPhone)", StatusCode::kInvalidArgument,
       "AVG requires a numeric attribute; 'agentPhone' is string"},
      {"MIN(phone)", "MIN(agentPhone)", StatusCode::kUnimplemented,
       "aggregation over string attribute 'agentPhone'"},
  };
  for (const Case& c : cases) {
    const AggregateQuery target = *SqlParser::ParseSimple(
        std::string("SELECT ") + c.target + " FROM T1");
    const Status bound = Reformulator::BindAll(target, pm, t).status();
    EXPECT_EQ(bound.code(), c.code) << c.target;
    EXPECT_EQ(bound.message(), c.message) << c.target;

    const AggregateQuery source = *SqlParser::ParseSimple(
        std::string("SELECT ") + c.source + " FROM S1");
    const Status scalar = Executor::ExecuteScalar(source, t).status();
    EXPECT_EQ(scalar.code(), c.code) << c.source;
    EXPECT_EQ(scalar.message(), c.message) << c.source;

    const AggregateQuery having = *SqlParser::ParseSimple(
        std::string("SELECT COUNT(*) FROM S1 GROUP BY ID HAVING ") +
        c.source + " > 0");
    const Status grouped = Executor::ExecuteGrouped(having, t).status();
    EXPECT_EQ(grouped.code(), c.code) << c.source;
    EXPECT_EQ(grouped.message(), std::string("HAVING ") + c.message)
        << c.source;
  }
}

TEST(ReformulatorTest, BindAllRejectsWrongRelation) {
  const PMapping pm = *MakeRealEstatePMapping();
  const Table t = *PaperInstanceDS1();
  AggregateQuery q = *SqlParser::ParseSimple("SELECT COUNT(*) FROM T9");
  EXPECT_FALSE(Reformulator::BindAll(q, pm, t).ok());
}

}  // namespace
}  // namespace aqua
