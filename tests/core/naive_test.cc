#include "aqua/core/naive.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "aqua/core/by_tuple_count.h"
#include "aqua/core/nested.h"
#include "aqua/core/sampler.h"
#include "aqua/query/executor.h"
#include "aqua/query/parser.h"
#include "aqua/workload/ebay.h"
#include "aqua/workload/real_estate.h"

namespace aqua {
namespace {

class NaiveFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ds1_ = *PaperInstanceDS1();
    pm1_ = *MakeRealEstatePMapping();
    q1_ = PaperQueryQ1();
    ds2_ = *PaperInstanceDS2();
    pm2_ = *MakeEbayPMapping();
  }
  Table ds1_;
  PMapping pm1_;
  AggregateQuery q1_;
  Table ds2_;
  PMapping pm2_;
};

TEST_F(NaiveFixture, CountDistributionMatchesExample3) {
  const auto naive = NaiveByTuple::Dist(q1_, pm1_, ds1_);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  EXPECT_NEAR(naive->undefined_mass, 0.0, 1e-12);
  EXPECT_NEAR(naive->distribution.Pr(1.0), 0.16, 1e-12);
  EXPECT_NEAR(naive->distribution.Pr(2.0), 0.48, 1e-12);
  EXPECT_NEAR(naive->distribution.Pr(3.0), 0.36, 1e-12);
}

TEST_F(NaiveFixture, AgreesWithPolynomialCountDistribution) {
  const auto naive = NaiveByTuple::Dist(q1_, pm1_, ds1_);
  const auto fast = ByTupleCount::Dist(q1_, pm1_, ds1_);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(fast.ok());
  Distribution pruned = *fast;
  pruned.Prune(1e-15);
  EXPECT_LT(Distribution::TotalVariationDistance(naive->distribution, pruned),
            1e-9);
}

TEST_F(NaiveFixture, SumDistributionMassAndSupport) {
  AggregateQuery q = PaperQueryQ2Prime();
  const auto naive = NaiveByTuple::Dist(q, pm2_, ds2_);
  ASSERT_TRUE(naive.ok());
  EXPECT_NEAR(naive->distribution.TotalMass(), 1.0, 1e-9);
  // 4 relevant tuples, one with equal bid/current: 2^3 = 8 distinct sums.
  EXPECT_EQ(naive->distribution.size(), 8u);
}

TEST_F(NaiveFixture, UndefinedMassForMinOverEmptyableSelection) {
  // price > 430 holds only via bid 439.95 (tuple 7) or current 438.05
  // (tuple 8), each under one mapping; the all-other-mapping sequence
  // leaves the selection empty.
  AggregateQuery q =
      *SqlParser::ParseSimple("SELECT MIN(price) FROM T2 WHERE price > 430");
  const auto naive = NaiveByTuple::Dist(q, pm2_, ds2_);
  ASSERT_TRUE(naive.ok());
  EXPECT_GT(naive->undefined_mass, 0.0);
  EXPECT_NEAR(naive->distribution.TotalMass() + naive->undefined_mass, 1.0,
              1e-9);
  // Expected value must refuse.
  EXPECT_FALSE(NaiveByTuple::Expected(q, pm2_, ds2_).ok());
}

TEST_F(NaiveFixture, BudgetGuardRefusesLargeInstances) {
  Rng rng(1);
  EbayOptions opts;
  opts.num_auctions = 10;
  opts.min_bids = 4;
  opts.max_bids = 4;
  const Table big = *GenerateEbayTable(opts, rng);
  AggregateQuery q = *SqlParser::ParseSimple("SELECT SUM(price) FROM T2");
  NaiveOptions limits;
  limits.max_sequences = 1024;  // 2^40 sequences needed
  const auto r = NaiveByTuple::Dist(q, pm2_, big, limits);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(NaiveFixture, SingleMappingDegeneratesToDeterministic) {
  const RelationMapping only = pm2_.mapping(1);  // currentPrice
  const PMapping pm = *PMapping::Make({{only, 1.0}});
  AggregateQuery q = *SqlParser::ParseSimple("SELECT SUM(price) FROM T2");
  const auto naive = NaiveByTuple::Dist(q, pm, ds2_);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  EXPECT_EQ(naive->distribution.size(), 1u);
  double total = 0;
  for (size_t i = 0; i < ds2_.num_rows(); ++i) {
    total += ds2_.column(4).DoubleAt(i);
  }
  EXPECT_NEAR(*naive->distribution.Expectation(), total, 1e-9);
}

TEST_F(NaiveFixture, EmptyTableBehaviour) {
  const Table empty = Table::Empty(ds2_.schema());
  AggregateQuery sum = *SqlParser::ParseSimple("SELECT SUM(price) FROM T2");
  const auto s = NaiveByTuple::Dist(sum, pm2_, empty);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s->distribution.Pr(0.0), 1.0, 1e-12);
  AggregateQuery mx = *SqlParser::ParseSimple("SELECT MAX(price) FROM T2");
  const auto m = NaiveByTuple::Dist(mx, pm2_, empty);
  ASSERT_TRUE(m.ok());
  EXPECT_NEAR(m->undefined_mass, 1.0, 1e-12);
}

TEST_F(NaiveFixture, RowSubsetMatchesTableIIAuction34) {
  AggregateQuery q = *SqlParser::ParseSimple("SELECT SUM(price) FROM T2");
  const std::vector<uint32_t> rows = {0, 1, 2, 3};
  const auto naive = NaiveByTuple::Expected(q, pm2_, ds2_, {}, &rows);
  ASSERT_TRUE(naive.ok());
  EXPECT_NEAR(*naive, 975.437, 1e-9);  // Table VII
}

TEST_F(NaiveFixture, DistinctRejectedExceptMinMax) {
  AggregateQuery q =
      *SqlParser::ParseSimple("SELECT SUM(DISTINCT price) FROM T2");
  EXPECT_FALSE(NaiveByTuple::Dist(q, pm2_, ds2_).ok());
  AggregateQuery mx =
      *SqlParser::ParseSimple("SELECT MAX(DISTINCT price) FROM T2");
  EXPECT_TRUE(NaiveByTuple::Dist(mx, pm2_, ds2_).ok());
}

const char* const kSelects[] = {"COUNT(*)", "SUM(price)", "AVG(price)",
                                "MIN(price)", "MAX(price)"};

// With a single group that never vanishes, the nested enumeration is the
// flat one: MAX over one group value is that value. Both visit the same
// sequences through the same enumerator, so the answers agree bit for bit
// and the charges step for step.
TEST_F(NaiveFixture, NestedWithOneGroupIsTheFlatEnumeration) {
  Rng rng(5);
  EbayOptions opts;
  opts.num_auctions = 1;
  opts.min_bids = 8;
  opts.max_bids = 8;
  const Table one_auction = *GenerateEbayTable(opts, rng);
  for (const char* select : kSelects) {
    const AggregateQuery flat = *SqlParser::ParseSimple(
        std::string("SELECT ") + select + " FROM T2");
    NestedAggregateQuery nested;
    nested.outer = AggregateFunction::kMax;
    nested.inner = flat;
    nested.inner.group_by = "auctionId";
    ExecContext flat_ctx;
    ExecContext nested_ctx;
    const auto a =
        NaiveByTuple::Dist(flat, pm2_, one_auction, {}, {}, &flat_ctx);
    const auto b =
        NestedByTuple::NaiveDist(nested, pm2_, one_auction, {}, &nested_ctx);
    ASSERT_TRUE(a.ok()) << select << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << select << ": " << b.status().ToString();
    EXPECT_EQ(a->undefined_mass, b->undefined_mass) << select;
    ASSERT_EQ(a->distribution.size(), b->distribution.size()) << select;
    for (size_t k = 0; k < a->distribution.size(); ++k) {
      EXPECT_EQ(a->distribution.entries()[k].outcome,
                b->distribution.entries()[k].outcome)
          << select;
      EXPECT_EQ(a->distribution.entries()[k].prob,
                b->distribution.entries()[k].prob)
          << select;
    }
    EXPECT_EQ(flat_ctx.steps(), nested_ctx.steps()) << select;
    EXPECT_EQ(flat_ctx.steps(), uint64_t{1} << 8) << select;
    EXPECT_EQ(flat_ctx.bytes(), nested_ctx.bytes()) << select;
  }
}

// The empty-set rule is one rule: folding the qualifying values directly,
// enumerating sequences and sampling them agree for every aggregate.
// `qualifying` is the (certain) set of values the query aggregates.
void ExpectOneEmptySetRule(const AggregateQuery& q, const PMapping& pm,
                           const Table& t,
                           const std::vector<double>& qualifying) {
  const std::string what = q.ToString();
  const std::optional<double> folded = Executor::Fold(q.func, qualifying);
  const auto naive = NaiveByTuple::Dist(q, pm, t);
  ASSERT_TRUE(naive.ok()) << what << ": " << naive.status().ToString();
  SamplerOptions so;
  so.num_samples = 64;
  const auto sampled = ByTupleSampler::Sample(q, pm, t, so);
  if (!folded.has_value()) {
    EXPECT_EQ(naive->undefined_mass, 1.0) << what;
    EXPECT_EQ(naive->distribution.size(), 0u) << what;
    EXPECT_EQ(sampled.status().code(), StatusCode::kInvalidArgument) << what;
    return;
  }
  EXPECT_EQ(naive->undefined_mass, 0.0) << what;
  ASSERT_EQ(naive->distribution.size(), 1u) << what;
  EXPECT_EQ(naive->distribution.entries()[0].outcome, *folded) << what;
  ASSERT_TRUE(sampled.ok()) << what << ": " << sampled.status().ToString();
  EXPECT_EQ(sampled->undefined_samples, 0u) << what;
  ASSERT_EQ(sampled->empirical.size(), 1u) << what;
  EXPECT_EQ(sampled->empirical.entries()[0].outcome, *folded) << what;
}

TEST_F(NaiveFixture, EmptySetRuleAgreesAtZeroTuples) {
  const Table empty = Table::Empty(ds2_.schema());
  for (const char* select : kSelects) {
    ExpectOneEmptySetRule(
        *SqlParser::ParseSimple(std::string("SELECT ") + select + " FROM T2"),
        pm2_, empty, {});
  }
}

TEST_F(NaiveFixture, EmptySetRuleAgreesAtOneTuple) {
  // One tuple under one mapping (currentPrice): a certain instance, so the
  // qualifying set is either {that price} or, under an unsatisfiable
  // WHERE, empty.
  const PMapping pm = *PMapping::Make({{pm2_.mapping(1), 1.0}});
  Rng rng(9);
  EbayOptions opts;
  opts.num_auctions = 1;
  opts.min_bids = 1;
  opts.max_bids = 1;
  const Table one = *GenerateEbayTable(opts, rng);
  ASSERT_EQ(one.num_rows(), 1u);
  const double price = one.column(4).DoubleAt(0);
  for (const char* select : kSelects) {
    const std::string sql = std::string("SELECT ") + select + " FROM T2";
    ExpectOneEmptySetRule(*SqlParser::ParseSimple(sql), pm, one, {price});
    ExpectOneEmptySetRule(*SqlParser::ParseSimple(sql + " WHERE price < 0"),
                          pm, one, {});
  }
}

}  // namespace
}  // namespace aqua
