#include "aqua/core/by_tuple_minmax.h"

#include <set>

#include <gtest/gtest.h>

#include "aqua/core/naive.h"
#include "aqua/query/parser.h"
#include "aqua/storage/table_builder.h"
#include "aqua/workload/ebay.h"

namespace aqua {
namespace {

class MinMaxFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ds2_ = *PaperInstanceDS2();
    pm2_ = *MakeEbayPMapping();
  }
  Table ds2_;
  PMapping pm2_;
};

TEST_F(MinMaxFixture, MaxRangeWholeTable) {
  AggregateQuery q = *SqlParser::ParseSimple("SELECT MAX(price) FROM T2");
  const auto r = ByTupleMinMax::RangeMax(q, pm2_, ds2_);
  ASSERT_TRUE(r.ok());
  // All tuples mandatory: low = max of per-tuple minima = 340.5 (tuple 8),
  // high = max of maxima = 439.95.
  EXPECT_NEAR(r->low, 340.5, 1e-9);
  EXPECT_NEAR(r->high, 439.95, 1e-9);
}

TEST_F(MinMaxFixture, MinRangeWholeTable) {
  AggregateQuery q = *SqlParser::ParseSimple("SELECT MIN(price) FROM T2");
  const auto r = ByTupleMinMax::RangeMin(q, pm2_, ds2_);
  ASSERT_TRUE(r.ok());
  // low = min of minima = 195 (tuple 1); high = min of per-tuple maxima
  // = 195 as well (tuple 1 has bid = currentPrice = 195).
  EXPECT_NEAR(r->low, 195.0, 1e-9);
  EXPECT_NEAR(r->high, 195.0, 1e-9);
}

TEST_F(MinMaxFixture, DistinctIsNoOpForMinMax) {
  AggregateQuery q =
      *SqlParser::ParseSimple("SELECT MAX(DISTINCT price) FROM T2");
  const auto r = ByTupleMinMax::RangeMax(q, pm2_, ds2_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NEAR(r->high, 439.95, 1e-9);
}

TEST_F(MinMaxFixture, MaxRangeAgreesWithNaiveUnderSelectiveCondition) {
  AggregateQuery q =
      *SqlParser::ParseSimple("SELECT MAX(price) FROM T2 WHERE price < 340");
  const auto fast = ByTupleMinMax::RangeMax(q, pm2_, ds2_);
  const auto oracle = NaiveByTuple::Range(q, pm2_, ds2_);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  ASSERT_TRUE(oracle.ok());
  EXPECT_NEAR(fast->low, oracle->low, 1e-9);
  EXPECT_NEAR(fast->high, oracle->high, 1e-9);
}

TEST_F(MinMaxFixture, MinRangeAgreesWithNaiveUnderSelectiveCondition) {
  AggregateQuery q =
      *SqlParser::ParseSimple("SELECT MIN(price) FROM T2 WHERE price > 330");
  const auto fast = ByTupleMinMax::RangeMin(q, pm2_, ds2_);
  const auto oracle = NaiveByTuple::Range(q, pm2_, ds2_);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(oracle.ok());
  EXPECT_NEAR(fast->low, oracle->low, 1e-9);
  EXPECT_NEAR(fast->high, oracle->high, 1e-9);
}

TEST_F(MinMaxFixture, NoMandatoryTuples) {
  // Both tuples satisfy under exactly one mapping: every tuple can be
  // excluded, so the lower MAX bound keeps a single cheapest tuple.
  const Schema schema =
      *Schema::Make({{"a", ValueType::kDouble}, {"b", ValueType::kDouble}});
  TableBuilder builder(schema);
  ASSERT_TRUE(builder.AppendRow({Value::Double(5), Value::Double(-50)}).ok());
  ASSERT_TRUE(builder.AppendRow({Value::Double(9), Value::Double(-60)}).ok());
  const Table t = *std::move(builder).Finish();
  const RelationMapping ma = *RelationMapping::Make("S", "T", {{"a", "v"}});
  const RelationMapping mb = *RelationMapping::Make("S", "T", {{"b", "v"}});
  const PMapping pm = *PMapping::Make({{ma, 0.5}, {mb, 0.5}});
  AggregateQuery q = *SqlParser::ParseSimple(
      "SELECT MAX(v) FROM T WHERE v > 0");
  const auto fast = ByTupleMinMax::RangeMax(q, pm, t);
  ASSERT_TRUE(fast.ok());
  EXPECT_NEAR(fast->low, 5.0, 1e-12);   // keep only tuple 1 at value 5
  EXPECT_NEAR(fast->high, 9.0, 1e-12);  // keep tuple 2 at value 9
  const auto oracle = NaiveByTuple::Range(q, pm, t);
  ASSERT_TRUE(oracle.ok());
  EXPECT_NEAR(oracle->low, fast->low, 1e-12);
  EXPECT_NEAR(oracle->high, fast->high, 1e-12);
}

TEST_F(MinMaxFixture, UndefinedWhenNothingSatisfies) {
  AggregateQuery q =
      *SqlParser::ParseSimple("SELECT MAX(price) FROM T2 WHERE price > 1e9");
  EXPECT_FALSE(ByTupleMinMax::RangeMax(q, pm2_, ds2_).ok());
  AggregateQuery q2 =
      *SqlParser::ParseSimple("SELECT MIN(price) FROM T2 WHERE price > 1e9");
  EXPECT_FALSE(ByTupleMinMax::RangeMin(q2, pm2_, ds2_).ok());
}

TEST_F(MinMaxFixture, RejectsWrongFunction) {
  AggregateQuery q = *SqlParser::ParseSimple("SELECT SUM(price) FROM T2");
  EXPECT_FALSE(ByTupleMinMax::RangeMax(q, pm2_, ds2_).ok());
  EXPECT_FALSE(ByTupleMinMax::RangeMin(q, pm2_, ds2_).ok());
}

// The distribution charges its scan (rows x mappings), one step per CDF
// event (satisfying (tuple, mapping) pair) and one per distinct value
// swept. Counted here straight from the source columns the two mappings
// bind `price` to.
TEST_F(MinMaxFixture, DistMaxChargesScanEventsAndSweep) {
  AggregateQuery q =
      *SqlParser::ParseSimple("SELECT MAX(price) FROM T2 WHERE price < 340");
  const Column& bid = **ds2_.ColumnByName("bid");
  const Column& current = **ds2_.ColumnByName("currentPrice");
  uint64_t events = 0;
  std::set<double> values;
  for (size_t r = 0; r < ds2_.num_rows(); ++r) {
    for (const Column* c : {&bid, &current}) {
      if (c->IsNull(r) || !(c->NumericAt(r) < 340)) continue;
      ++events;
      values.insert(c->NumericAt(r));
    }
  }
  ASSERT_GT(events, 0u);
  ExecContext ctx;
  const auto dist = ByTupleMinMax::DistMax(q, pm2_, ds2_, {}, &ctx);
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  EXPECT_EQ(ctx.steps(),
            ds2_.num_rows() * pm2_.size() + events + values.size());
  // Without the WHERE every (tuple, mapping) pair is an event.
  q = *SqlParser::ParseSimple("SELECT MAX(price) FROM T2");
  ExecContext all_ctx;
  ASSERT_TRUE(ByTupleMinMax::ExpectedMax(q, pm2_, ds2_, {}, &all_ctx).ok());
  std::set<double> all_values;
  for (size_t r = 0; r < ds2_.num_rows(); ++r) {
    all_values.insert(bid.NumericAt(r));
    all_values.insert(current.NumericAt(r));
  }
  EXPECT_EQ(all_ctx.steps(),
            ds2_.num_rows() * pm2_.size() * 2 + all_values.size());
}

TEST_F(MinMaxFixture, DistMaxMatchesNaive) {
  for (const char* sql :
       {"SELECT MAX(price) FROM T2", "SELECT MAX(price) FROM T2 WHERE price "
                                     "< 340",
        "SELECT MAX(price) FROM T2 WHERE price > 430"}) {
    AggregateQuery q = *SqlParser::ParseSimple(sql);
    const auto exact = ByTupleMinMax::DistMax(q, pm2_, ds2_);
    const auto naive = NaiveByTuple::Dist(q, pm2_, ds2_);
    ASSERT_TRUE(exact.ok()) << sql << ": " << exact.status().ToString();
    ASSERT_TRUE(naive.ok());
    EXPECT_NEAR(exact->undefined_mass, naive->undefined_mass, 1e-12) << sql;
    EXPECT_LT(Distribution::TotalVariationDistanceApprox(
                  exact->distribution, naive->distribution, 1e-9),
              1e-9)
        << sql;
  }
}

TEST_F(MinMaxFixture, DistMinMatchesNaive) {
  for (const char* sql :
       {"SELECT MIN(price) FROM T2",
        "SELECT MIN(price) FROM T2 WHERE price > 330"}) {
    AggregateQuery q = *SqlParser::ParseSimple(sql);
    const auto exact = ByTupleMinMax::DistMin(q, pm2_, ds2_);
    const auto naive = NaiveByTuple::Dist(q, pm2_, ds2_);
    ASSERT_TRUE(exact.ok()) << sql;
    ASSERT_TRUE(naive.ok());
    EXPECT_NEAR(exact->undefined_mass, naive->undefined_mass, 1e-12) << sql;
    EXPECT_LT(Distribution::TotalVariationDistanceApprox(
                  exact->distribution, naive->distribution, 1e-9),
              1e-9)
        << sql;
  }
}

TEST_F(MinMaxFixture, ExpectedMaxMatchesNaive) {
  AggregateQuery q = *SqlParser::ParseSimple("SELECT MAX(price) FROM T2");
  const auto exact = ByTupleMinMax::ExpectedMax(q, pm2_, ds2_);
  const auto naive = NaiveByTuple::Expected(q, pm2_, ds2_);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(naive.ok());
  EXPECT_NEAR(*exact, *naive, 1e-9);
}

TEST_F(MinMaxFixture, ExpectedRefusesWhenUndefinedMassPositive) {
  AggregateQuery q =
      *SqlParser::ParseSimple("SELECT MIN(price) FROM T2 WHERE price > 430");
  EXPECT_FALSE(ByTupleMinMax::ExpectedMin(q, pm2_, ds2_).ok());
}

TEST_F(MinMaxFixture, DistWhenNothingSatisfies) {
  AggregateQuery q =
      *SqlParser::ParseSimple("SELECT MAX(price) FROM T2 WHERE price > 1e9");
  const auto exact = ByTupleMinMax::DistMax(q, pm2_, ds2_);
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(exact->undefined_mass, 1.0, 1e-12);
  EXPECT_TRUE(exact->distribution.empty());
}

TEST_F(MinMaxFixture, DistScalesWellBeyondNaive) {
  // 2000 tuples would be 2^2000 sequences; the factorised CDF sweep is
  // instantaneous and still a proper distribution.
  Rng rng(12);
  EbayOptions opts;
  opts.num_auctions = 250;
  opts.min_bids = 8;
  opts.max_bids = 8;
  const Table big = *GenerateEbayTable(opts, rng);
  AggregateQuery q = *SqlParser::ParseSimple("SELECT MAX(price) FROM T2");
  const auto exact = ByTupleMinMax::DistMax(q, pm2_, big);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_NEAR(exact->distribution.TotalMass() + exact->undefined_mass, 1.0,
              1e-6);
  // The distribution's hull equals the O(nm) range algorithm's answer.
  const auto range = ByTupleMinMax::RangeMax(q, pm2_, big);
  ASSERT_TRUE(range.ok());
  Distribution pruned = exact->distribution;
  pruned.Prune(1e-13);
  const auto hull = pruned.ToRange();
  ASSERT_TRUE(hull.ok());
  EXPECT_NEAR(hull->high, range->high, 1e-9);
}

TEST_F(MinMaxFixture, RowSubsetPerAuction) {
  AggregateQuery q = *SqlParser::ParseSimple("SELECT MAX(price) FROM T2");
  const std::vector<uint32_t> auction38 = {4, 5, 6, 7};
  const auto r = ByTupleMinMax::RangeMax(q, pm2_, ds2_, &auction38);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->low, 340.5, 1e-9);
  EXPECT_NEAR(r->high, 439.95, 1e-9);
}

}  // namespace
}  // namespace aqua
