#include "aqua/core/by_tuple_count.h"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "aqua/core/engine.h"
#include "aqua/core/tuple_scan.h"
#include "aqua/query/parser.h"
#include "aqua/storage/table_builder.h"
#include "aqua/workload/ebay.h"
#include "aqua/workload/real_estate.h"
#include "aqua/workload/synthetic.h"

namespace aqua {
namespace {

class ByTupleCountFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ds1_ = *PaperInstanceDS1();
    pm1_ = *MakeRealEstatePMapping();
    q1_ = PaperQueryQ1();
  }
  Table ds1_;
  PMapping pm1_;
  AggregateQuery q1_;
};

TEST_F(ByTupleCountFixture, RangeMatchesPaperTrace) {
  const auto r = ByTupleCount::Range(q1_, pm1_, ds1_);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (Interval{1.0, 3.0}));
}

TEST_F(ByTupleCountFixture, DistIsNormalised) {
  const auto d = ByTupleCount::Dist(q1_, pm1_, ds1_);
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d->IsNormalized(1e-9));
}

TEST_F(ByTupleCountFixture, DistSupportMatchesRange) {
  const auto d = ByTupleCount::Dist(q1_, pm1_, ds1_);
  const auto r = ByTupleCount::Range(q1_, pm1_, ds1_);
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(r.ok());
  // The range derivable from the distribution (§III-B) must equal the
  // directly computed range (zero-probability outcomes aside).
  Distribution pruned = *d;
  pruned.Prune(1e-15);
  EXPECT_EQ(*pruned.ToRange(), *r);
}

TEST_F(ByTupleCountFixture, ExpectedMatchesDerived) {
  const auto direct = ByTupleCount::Expected(q1_, pm1_, ds1_);
  const auto derived = ByTupleCount::ExpectedViaDistribution(q1_, pm1_, ds1_);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(derived.ok());
  EXPECT_NEAR(*direct, *derived, 1e-12);
}

TEST_F(ByTupleCountFixture, RowSubsetRestrictsComputation) {
  const std::vector<uint32_t> rows = {2};  // tuple 3: satisfies under both
  const auto r = ByTupleCount::Range(q1_, pm1_, ds1_, &rows);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (Interval{1.0, 1.0}));
  const auto d = ByTupleCount::Dist(q1_, pm1_, ds1_, &rows);
  ASSERT_TRUE(d.ok());
  EXPECT_NEAR(d->Pr(1.0), 1.0, 1e-12);
}

TEST_F(ByTupleCountFixture, EmptyRowSubset) {
  const std::vector<uint32_t> rows;
  const auto r = ByTupleCount::Range(q1_, pm1_, ds1_, &rows);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (Interval{0.0, 0.0}));
  const auto d = ByTupleCount::Dist(q1_, pm1_, ds1_, &rows);
  ASSERT_TRUE(d.ok());
  EXPECT_NEAR(d->Pr(0.0), 1.0, 1e-12);
  const auto e = ByTupleCount::Expected(q1_, pm1_, ds1_, &rows);
  ASSERT_TRUE(e.ok());
  EXPECT_DOUBLE_EQ(*e, 0.0);
}

TEST_F(ByTupleCountFixture, RejectsNonCountQuery) {
  AggregateQuery q = q1_;
  q.func = AggregateFunction::kSum;
  q.attribute = "listPrice";
  EXPECT_FALSE(ByTupleCount::Range(q, pm1_, ds1_).ok());
}

TEST_F(ByTupleCountFixture, RejectsCountDistinct) {
  AggregateQuery q = q1_;
  q.attribute = "date";
  q.distinct = true;
  const auto r = ByTupleCount::Range(q, pm1_, ds1_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnimplemented);
}

TEST_F(ByTupleCountFixture, CountAttributeSkipsNullsPerMapping) {
  // A table where the attribute is NULL under one mapping's column but not
  // the other's: COUNT(date) must treat NULL-under-a-mapping like a
  // non-satisfying mapping.
  const Schema schema = *Schema::Make({{"ID", ValueType::kInt64},
                                       {"price", ValueType::kDouble},
                                       {"agentPhone", ValueType::kString},
                                       {"postedDate", ValueType::kDate},
                                       {"reducedDate", ValueType::kDate}});
  TableBuilder b(schema);
  ASSERT_TRUE(b.AppendRow({Value::Int64(1), Value::Double(1.0),
                           Value::String("x"),
                           Value::FromDate(*Date::FromYmd(2008, 1, 5)),
                           Value::Null()})
                  .ok());
  const Table t = *std::move(b).Finish();
  AggregateQuery q;
  q.func = AggregateFunction::kCount;
  q.attribute = "date";
  q.relation = "T1";
  q.where = Predicate::True();
  const auto r = ByTupleCount::Range(q, pm1_, t);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Under m11 the date is present (counts), under m12 it is NULL (does
  // not), so the count ranges over [0, 1].
  EXPECT_EQ(*r, (Interval{0.0, 1.0}));
  const auto e = ByTupleCount::Expected(q, pm1_, t);
  ASSERT_TRUE(e.ok());
  EXPECT_NEAR(*e, 0.6, 1e-12);
}

TEST_F(ByTupleCountFixture, DistShiftsWhenAllMappingsSatisfy) {
  // Tuples that satisfy under every mapping shift the distribution right
  // deterministically: with no WHERE, COUNT(*) == n with certainty.
  AggregateQuery q;
  q.func = AggregateFunction::kCount;
  q.relation = "T1";
  q.where = Predicate::True();
  const auto d = ByTupleCount::Dist(q, pm1_, ds1_);
  ASSERT_TRUE(d.ok());
  EXPECT_NEAR(d->Pr(4.0), 1.0, 1e-12);
}

TEST_F(ByTupleCountFixture, MonotoneDistributionScaling) {
  // Growing prefix subsets: expected count must be monotone.
  double prev = -1.0;
  for (uint32_t n = 1; n <= 4; ++n) {
    std::vector<uint32_t> rows;
    for (uint32_t r = 0; r < n; ++r) rows.push_back(r);
    const auto e = ByTupleCount::Expected(q1_, pm1_, ds1_, &rows);
    ASSERT_TRUE(e.ok());
    EXPECT_GE(*e, prev);
    prev = *e;
  }
}

// The full-band serial recurrence of the paper's Figure 3: every tuple,
// certain or not, folds all n + 1 cells. `ByTupleCount::Dist` skips
// certain tuples and folds only the live band, and must return the same
// bits.
Distribution FullBandDist(const AggregateQuery& query,
                          const PMapping& pmapping, const Table& source) {
  const TupleScan scan =
      *TupleScan::Bind(query, AggregateFunction::kCount, pmapping, source);
  std::vector<double> occs;
  EXPECT_TRUE(scan.Run({}, nullptr, EachRow([&](const TupleView& t) {
                    occs.push_back(t.occ());
                  })).ok());
  const size_t n = occs.size();
  std::vector<double> pd(n + 1, 0.0);
  pd[0] = 1.0;
  for (const double occ : occs) {
    const double not_occ = 1.0 - occ;
    for (size_t j = n; j >= 1; --j) pd[j] = pd[j] * not_occ + pd[j - 1] * occ;
    pd[0] *= not_occ;
  }
  Distribution d;
  for (size_t c = 0; c <= n; ++c) {
    if (pd[c] > 0.0) d.AddMass(static_cast<double>(c), pd[c]);
  }
  return d;
}

// Outcome for outcome and mass for mass, bitwise, serial and parallel.
void ExpectMatchesFullBand(const AggregateQuery& query,
                           const PMapping& pmapping, const Table& source) {
  const Distribution oracle = FullBandDist(query, pmapping, source);
  for (const int threads : {1, 3}) {
    const auto d = ByTupleCount::Dist(query, pmapping, source, {}, nullptr,
                                      exec::ExecPolicy{threads});
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    ASSERT_EQ(d->size(), oracle.size()) << "threads=" << threads;
    for (size_t i = 0; i < oracle.size(); ++i) {
      EXPECT_EQ(d->entries()[i].outcome, oracle.entries()[i].outcome)
          << "atom " << i << ", threads=" << threads;
      EXPECT_EQ(d->entries()[i].prob, oracle.entries()[i].prob)
          << "atom " << i << ", threads=" << threads;
    }
  }
}

// A two-column source S(a, b) whose `value` maps to a with probability
// `pa` and to b with `pb`, queried `COUNT(*) FROM T WHERE value < 10`. A
// row (a, b) therefore has occ 0, pa, pb or pa + pb as each column is
// below 10 or not.
struct TwoColumnCase {
  Table table;
  PMapping pmapping;
  AggregateQuery query;
};

TwoColumnCase MakeTwoColumnCase(
    const std::vector<std::pair<double, double>>& rows, double pa,
    double pb) {
  const Schema schema =
      *Schema::Make({{"a", ValueType::kDouble}, {"b", ValueType::kDouble}});
  TableBuilder b(schema);
  for (const auto& [a, bv] : rows) {
    EXPECT_TRUE(b.AppendRow({Value::Double(a), Value::Double(bv)}).ok());
  }
  return {*std::move(b).Finish(),
          *PMapping::Make(
              {{*RelationMapping::Make("S", "T", {{"a", "value"}}), pa},
               {*RelationMapping::Make("S", "T", {{"b", "value"}}), pb}}),
          *SqlParser::ParseSimple("SELECT COUNT(*) FROM T WHERE value < 10")};
}

// Row shapes by occurrence probability under (pa, pb).
constexpr std::pair<double, double> kBoth{0.0, 0.0};     // pa + pb
constexpr std::pair<double, double> kOnlyA{0.0, 99.0};   // pa
constexpr std::pair<double, double> kOnlyB{99.0, 0.0};   // pb
constexpr std::pair<double, double> kNone{99.0, 99.0};   // 0

TEST(ByTupleCountBandTest, MatchesFullBandOnEbayPricePredicates) {
  Rng rng(2008);
  const Table t = *GenerateEbayTable(EbayOptions{}, rng);
  const PMapping pm = *MakeEbayPMapping();
  for (const char* where :
       {"price < 150", "price < 300", "price >= 450",
        "price < 120 OR auctionId <= 40"}) {
    SCOPED_TRACE(where);
    ExpectMatchesFullBand(
        *SqlParser::ParseSimple(std::string("SELECT COUNT(*) FROM T2 WHERE ") +
                                where),
        pm, t);
  }
}

TEST(ByTupleCountBandTest, MatchesFullBandOnSyntheticMappings) {
  for (const size_t m : {2, 8, 20}) {
    SCOPED_TRACE("m=" + std::to_string(m));
    Rng rng(400 + m);
    SyntheticOptions opts;
    opts.num_tuples = 3000;
    opts.num_attributes = 20;
    opts.num_mappings = m;
    const SyntheticWorkload w = *GenerateSyntheticWorkload(opts, rng);
    ExpectMatchesFullBand(w.MakeQuery(AggregateFunction::kCount), w.pmapping,
                          w.table);
  }
}

TEST(ByTupleCountBandTest, MatchesFullBandOnInterleavedCertainRuns) {
  // Runs of occ 1 and occ 0 between uncertain tuples shift and skip the
  // band; the result must be the full-band bits, offset included.
  std::vector<std::pair<double, double>> rows;
  for (int run = 0; run < 40; ++run) {
    for (int k = 0; k < run % 5; ++k) rows.push_back(kBoth);
    rows.push_back(run % 2 == 0 ? kOnlyA : kOnlyB);
    for (int k = 0; k < run % 3; ++k) rows.push_back(kNone);
    if (run % 7 == 0) rows.push_back(kOnlyA);
  }
  const TwoColumnCase c = MakeTwoColumnCase(rows, 0.3, 0.7);
  ExpectMatchesFullBand(c.query, c.pmapping, c.table);
}

TEST(ByTupleCountBandTest, AllCertainTuples) {
  const TwoColumnCase ones =
      MakeTwoColumnCase(std::vector(50, kBoth), 0.3, 0.7);
  ExpectMatchesFullBand(ones.query, ones.pmapping, ones.table);
  const auto d1 = ByTupleCount::Dist(ones.query, ones.pmapping, ones.table);
  ASSERT_TRUE(d1.ok());
  EXPECT_EQ(d1->entries(), (std::vector<Distribution::Entry>{{50.0, 1.0}}));

  const TwoColumnCase zeros =
      MakeTwoColumnCase(std::vector(50, kNone), 0.3, 0.7);
  ExpectMatchesFullBand(zeros.query, zeros.pmapping, zeros.table);
  const auto d0 = ByTupleCount::Dist(zeros.query, zeros.pmapping, zeros.table);
  ASSERT_TRUE(d0.ok());
  EXPECT_EQ(d0->entries(), (std::vector<Distribution::Entry>{{0.0, 1.0}}));
}

TEST(ByTupleCountBandTest, EmptyAndSingleTuple) {
  for (const auto& rows :
       {std::vector<std::pair<double, double>>{},
        std::vector{kOnlyA}, std::vector{kBoth}, std::vector{kNone}}) {
    SCOPED_TRACE("n=" + std::to_string(rows.size()));
    const TwoColumnCase c = MakeTwoColumnCase(rows, 0.3, 0.7);
    ExpectMatchesFullBand(c.query, c.pmapping, c.table);
  }
}

TEST(ByTupleCountBandTest, OneMinusEpsilonOccsStayInTheDp) {
  // pa + pb = 1 - 2^-53: within PMapping's tolerance, but not 1.0, so a
  // tuple satisfying under both mappings is still (barely) uncertain.
  const double pb = 0.5 - std::ldexp(1.0, -53);
  ASSERT_NE(0.5 + pb, 1.0);
  const TwoColumnCase c =
      MakeTwoColumnCase(std::vector(30, kBoth), 0.5, pb);
  ExpectMatchesFullBand(c.query, c.pmapping, c.table);
  const auto d = ByTupleCount::Dist(c.query, c.pmapping, c.table);
  ASSERT_TRUE(d.ok());
  // Snapping the occs to 1 would leave the single atom {30: 1}.
  EXPECT_GT(d->size(), 1u);
  EXPECT_GT(d->Pr(29.0), 0.0);
}

TEST(ByTupleCountBandTest, BothTailsUnderflowToZero) {
  // 1 200 tuples at occ 0.5 (and 0.49/0.51): Pr(count = 0) = 0.5^1200 is
  // below the smallest subnormal, so the band sheds both tails.
  std::vector<std::pair<double, double>> rows;
  for (int i = 0; i < 1200; ++i) rows.push_back(i % 3 == 0 ? kOnlyB : kOnlyA);
  for (const auto& [pa, pb] : {std::pair{0.5, 0.5}, std::pair{0.49, 0.51}}) {
    const TwoColumnCase c = MakeTwoColumnCase(rows, pa, pb);
    ExpectMatchesFullBand(c.query, c.pmapping, c.table);
    const auto d = ByTupleCount::Dist(c.query, c.pmapping, c.table);
    ASSERT_TRUE(d.ok());
    EXPECT_GT(d->entries().front().outcome, 0.0);
    EXPECT_LT(d->entries().back().outcome, 1200.0);
  }
}

TEST(ByTupleCountBandTest, ChargesScanPlusFoldedCells) {
  // occs: 1, 0.3, 0, 0.7, 1 — two uncertain tuples. The scan charges
  // n * m = 10; the DP folds 2 cells for the first (band [0, 0] -> [0, 1])
  // and 3 for the second, and allocates the n occs plus n' + 1 cells.
  const TwoColumnCase c =
      MakeTwoColumnCase({kBoth, kOnlyA, kNone, kOnlyB, kBoth}, 0.3, 0.7);
  ExecContext ctx;
  const auto d = ByTupleCount::Dist(c.query, c.pmapping, c.table, {}, &ctx);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(ctx.steps(), 10u + 2u + 3u);
  EXPECT_EQ(ctx.bytes(), (5u + 3u) * sizeof(double));
  ExpectMatchesFullBand(c.query, c.pmapping, c.table);
}

TEST(ByTupleCountBandTest, LargeEbayTableAnswersExactly) {
  // ~180k rows: the full-band DP would fold ~1.6e10 cells; over the live
  // band the exact answer charges little beyond the n * m scan.
  Rng rng(2008);
  EbayOptions opts;
  opts.num_auctions = 20'000;
  const Table t = *GenerateEbayTable(opts, rng);
  const PMapping pm = *MakeEbayPMapping();
  const uint64_t scan_steps = t.num_rows() * pm.size();
  const Engine engine;
  for (const char* where : {"price < 150", "price < 300", "price >= 450",
                            "price < 120 OR auctionId <= 4000"}) {
    SCOPED_TRACE(where);
    const auto a = engine.Answer(
        *SqlParser::ParseSimple(std::string("SELECT COUNT(*) FROM T2 WHERE ") +
                                where),
        pm, t, MappingSemantics::kByTuple, AggregateSemantics::kDistribution);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    EXPECT_FALSE(a->approximate);
    EXPECT_LT(a->stats.steps, scan_steps + 3'000'000u);
  }
}

}  // namespace
}  // namespace aqua
