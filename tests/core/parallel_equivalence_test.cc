// The parallel runtime's central contract: the thread count never changes
// an answer. Work is partitioned as a pure function of the problem size,
// budget shares and RNG streams attach to chunks (not workers), and
// reductions fold in fixed chunk order — so exact answers are bit-identical
// and sampled estimates byte-for-byte reproducible at every --threads.

#include <gtest/gtest.h>

#include "aqua/core/by_tuple_count.h"
#include "aqua/core/engine.h"
#include "aqua/core/sampler.h"
#include "aqua/exec/parallel.h"
#include "aqua/query/parser.h"
#include "aqua/workload/ebay.h"
#include "aqua/workload/synthetic.h"

namespace aqua {
namespace {

TEST(ParallelEquivalenceTest, CountDistributionBitIdenticalAcrossThreads) {
  // 10k rows: the occurrence pass runs in three 4096-row chunks, and the
  // serial band DP then folds the occs in scan order at every thread count.
  // Synthetic data keeps every tuple uncertain; eBay prices leave most
  // tuples certain, so the offset and the skipped tuples are covered too.
  Rng rng(99);
  SyntheticOptions opts;
  opts.num_tuples = 10'000;
  opts.num_attributes = 10;
  opts.num_mappings = 3;
  const SyntheticWorkload w = *GenerateSyntheticWorkload(opts, rng);
  Rng ebay_rng(2008);
  const Table ebay = *GenerateEbayTable(EbayOptions{}, ebay_rng);
  ASSERT_GT(ebay.num_rows(), 4096u * 2);
  const PMapping ebay_pm = *MakeEbayPMapping();
  struct Case {
    AggregateQuery query;
    const PMapping* pmapping;
    const Table* table;
  };
  const Case cases[] = {
      {w.MakeQuery(AggregateFunction::kCount), &w.pmapping, &w.table},
      {*SqlParser::ParseSimple("SELECT COUNT(*) FROM T2 WHERE price < 300"),
       &ebay_pm, &ebay},
  };

  for (const Case& c : cases) {
    const auto serial = ByTupleCount::Dist(c.query, *c.pmapping, *c.table);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    double mass = 0;
    for (const auto& e : serial->entries()) mass += e.prob;
    EXPECT_NEAR(mass, 1.0, 1e-9);

    for (const int threads : {2, 3, 8}) {
      const auto parallel =
          ByTupleCount::Dist(c.query, *c.pmapping, *c.table, /*rows=*/nullptr,
                             /*ctx=*/nullptr, exec::ExecPolicy{threads});
      ASSERT_TRUE(parallel.ok()) << "threads=" << threads;
      // Distribution equality is exact (bit-level) on outcomes and masses.
      EXPECT_TRUE(*parallel == *serial) << "threads=" << threads;
    }
  }
}

TEST(ParallelEquivalenceTest, ExpectedViaDistributionMatchesAcrossThreads) {
  Rng rng(101);
  SyntheticOptions opts;
  opts.num_tuples = 2000;
  opts.num_attributes = 8;
  opts.num_mappings = 2;
  const SyntheticWorkload w = *GenerateSyntheticWorkload(opts, rng);
  const AggregateQuery q = w.MakeQuery(AggregateFunction::kCount);

  const auto serial = ByTupleCount::ExpectedViaDistribution(q, w.pmapping,
                                                            w.table);
  ASSERT_TRUE(serial.ok());
  for (const int threads : {2, 8}) {
    const auto parallel = ByTupleCount::ExpectedViaDistribution(
        q, w.pmapping, w.table, /*rows=*/nullptr, /*ctx=*/nullptr,
        exec::ExecPolicy{threads});
    ASSERT_TRUE(parallel.ok());
    EXPECT_DOUBLE_EQ(*parallel, *serial) << "threads=" << threads;
  }
}

TEST(ParallelEquivalenceTest, SamplerEstimateIdenticalAcrossThreads) {
  const Table ds2 = *PaperInstanceDS2();
  const PMapping pm2 = *MakeEbayPMapping();
  const AggregateQuery q = *SqlParser::ParseSimple("SELECT SUM(price) FROM T2");
  SamplerOptions opts;
  opts.num_samples = 5000;
  opts.seed = 42;

  const auto serial = ByTupleSampler::Sample(q, pm2, ds2, opts);
  ASSERT_TRUE(serial.ok());
  for (const int threads : {2, 8}) {
    const auto parallel =
        ByTupleSampler::Sample(q, pm2, ds2, opts, /*rows=*/nullptr,
                               /*ctx=*/nullptr, exec::ExecPolicy{threads});
    ASSERT_TRUE(parallel.ok()) << "threads=" << threads;
    // Chunk i always draws from stream SplitMix64(seed ^ i) and chunks
    // merge in index order, so the estimate is byte-identical.
    EXPECT_DOUBLE_EQ(parallel->expected, serial->expected);
    EXPECT_DOUBLE_EQ(parallel->std_error, serial->std_error);
    EXPECT_TRUE(parallel->empirical == serial->empirical);
    EXPECT_EQ(parallel->num_samples, serial->num_samples);
    EXPECT_EQ(parallel->undefined_samples, serial->undefined_samples);
  }
}

class GroupedEquivalenceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ds2_ = *PaperInstanceDS2();
    pm2_ = *MakeEbayPMapping();
  }

  Result<std::vector<GroupedAnswer>> AnswerAt(int threads,
                                              AggregateSemantics semantics,
                                              ExecLimits limits = {}) {
    EngineOptions opts;
    opts.threads = threads;
    opts.limits = limits;
    const Engine engine(opts);
    return engine.AnswerGroupedSql("SELECT COUNT(*) FROM T2 GROUP BY auctionId",
                                   pm2_, ds2_, MappingSemantics::kByTuple,
                                   semantics);
  }

  Table ds2_;
  PMapping pm2_;
};

TEST_F(GroupedEquivalenceFixture, GroupedAnswersIdenticalAcrossThreads) {
  const auto serial = AnswerAt(1, AggregateSemantics::kDistribution);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_FALSE(serial->empty());
  for (const int threads : {2, 8}) {
    const auto parallel = AnswerAt(threads, AggregateSemantics::kDistribution);
    ASSERT_TRUE(parallel.ok()) << "threads=" << threads;
    ASSERT_EQ(parallel->size(), serial->size());
    for (size_t g = 0; g < serial->size(); ++g) {
      EXPECT_TRUE((*parallel)[g].group == (*serial)[g].group);
      EXPECT_TRUE((*parallel)[g].answer.distribution ==
                  (*serial)[g].answer.distribution);
      // Per-group stats come from the group's own child context, so the
      // charge accounting is identical serial or concurrent.
      EXPECT_EQ((*parallel)[g].answer.stats.steps,
                (*serial)[g].answer.stats.steps);
      EXPECT_EQ((*parallel)[g].answer.stats.bytes,
                (*serial)[g].answer.stats.bytes);
      EXPECT_EQ((*parallel)[g].answer.stats.rows,
                (*serial)[g].answer.stats.rows);
    }
  }
}

TEST_F(GroupedEquivalenceFixture, GroupedChargesAreNonZeroAndConsistent) {
  const auto groups = AnswerAt(4, AggregateSemantics::kRange);
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  uint64_t total = 0;
  for (const GroupedAnswer& g : *groups) {
    EXPECT_GT(g.answer.stats.steps, 0u)
        << "group " << g.group.ToString() << " reported no work";
    total += g.answer.stats.steps;
  }
  // The sum of per-group charges equals the serial run's sum exactly —
  // the whole-query budget was partitioned, not duplicated or dropped.
  const auto serial = AnswerAt(1, AggregateSemantics::kRange);
  ASSERT_TRUE(serial.ok());
  uint64_t serial_total = 0;
  for (const GroupedAnswer& g : *serial) serial_total += g.answer.stats.steps;
  EXPECT_EQ(total, serial_total);
}

TEST_F(GroupedEquivalenceFixture, GroupedBudgetBlowSurfacesSameError) {
  ExecLimits limits;
  limits.max_steps = 3;  // far below any group's cost
  for (const int threads : {1, 4}) {
    const auto groups = AnswerAt(threads, AggregateSemantics::kRange, limits);
    ASSERT_FALSE(groups.ok()) << "threads=" << threads;
    EXPECT_EQ(groups.status().code(), StatusCode::kResourceExhausted)
        << "threads=" << threads;
  }
}

TEST(ParallelDegradeTest, BudgetBlowAtEveryThreadCountDegradesIdentically) {
  // An exact COUNT-distribution pass over 2000 tuples blows a 50k-step
  // budget inside the band DP (the scan charges 4 000 steps, the DP would
  // fold ~273k cells); with DegradePolicy::kSample the engine re-answers
  // by sampling under a fresh budget of the same size. Both the blow and
  // the sampler's truncation point are pure functions of the problem size,
  // so the degraded answer is identical at every thread count.
  Rng rng(77);
  SyntheticOptions wopts;
  wopts.num_tuples = 2000;
  wopts.num_attributes = 6;
  wopts.num_mappings = 2;
  const SyntheticWorkload w = *GenerateSyntheticWorkload(wopts, rng);
  const AggregateQuery q = w.MakeQuery(AggregateFunction::kCount);

  auto answer_at = [&](int threads) {
    EngineOptions opts;
    opts.threads = threads;
    opts.limits.max_steps = 50'000;
    opts.degrade = DegradePolicy::kSample;
    opts.degrade_sampler.num_samples = 10'000;
    opts.degrade_sampler.min_samples_on_budget = 5;
    const Engine engine(opts);
    return engine.Answer(q, w.pmapping, w.table, MappingSemantics::kByTuple,
                         AggregateSemantics::kDistribution);
  };

  const auto serial = answer_at(1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  EXPECT_TRUE(serial->approximate);
  for (const int threads : {4}) {
    const auto parallel = answer_at(threads);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_TRUE(parallel->approximate);
    EXPECT_TRUE(parallel->distribution == serial->distribution);
    EXPECT_EQ(parallel->note, serial->note);
  }
}

}  // namespace
}  // namespace aqua
