// The sharded execution contract at the engine level: `--shards` never
// changes an answer. Fault-free, every by-tuple cell of the Figure 6 table
// must produce a byte-identical answer (or the identical error) at 1, 2,
// 4, and 8 shards, on the serial path (threads=1) and the concurrent one
// (threads=2) alike, because shard planning is a pure function of the row
// count and every merge operator is the exact combination law for its
// answer shape. Cells without a merge law must not shard at all.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "aqua/core/cells.h"
#include "aqua/core/engine.h"
#include "aqua/query/parser.h"
#include "aqua/workload/ebay.h"
#include "aqua/workload/synthetic.h"

namespace aqua {
namespace {

Result<AggregateAnswer> AnswerAt(const std::string& sql, const Table& table,
                                 const PMapping& pmapping,
                                 EngineOptions options, int shards,
                                 int threads, AggregateSemantics semantics) {
  options.shards = shards;
  options.threads = threads;
  return Engine(options).AnswerSql(sql, pmapping, table,
                                   MappingSemantics::kByTuple, semantics);
}

std::string Rendered(const Result<AggregateAnswer>& answer) {
  return answer.ok() ? answer->ToString() : answer.status().ToString();
}

class ShardEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds2_ = *PaperInstanceDS2();
    pm2_ = *MakeEbayPMapping();
  }

  Result<AggregateAnswer> AnswerAt(const std::string& sql, int shards,
                                   int threads,
                                   AggregateSemantics semantics) const {
    return aqua::AnswerAt(sql, ds2_, pm2_, EngineOptions{}, shards, threads,
                          semantics);
  }

  Table ds2_;
  PMapping pm2_;
};

TEST_F(ShardEquivalenceTest, EveryCellIsShardInvariant) {
  const AggregateFunction funcs[] = {
      AggregateFunction::kCount, AggregateFunction::kSum,
      AggregateFunction::kAvg, AggregateFunction::kMin,
      AggregateFunction::kMax};
  const char* const sqls[] = {
      "SELECT COUNT(*) FROM T2 WHERE price > 300", "SELECT SUM(price) FROM T2",
      "SELECT AVG(price) FROM T2", "SELECT MIN(price) FROM T2",
      "SELECT MAX(price) FROM T2"};
  const AggregateSemantics semantics_list[] = {
      AggregateSemantics::kRange, AggregateSemantics::kDistribution,
      AggregateSemantics::kExpectedValue};
  const EngineOptions options;
  for (size_t f = 0; f < 5; ++f) {
    for (const AggregateSemantics semantics : semantics_list) {
      const bool shards_cell =
          FindByTupleCell(funcs[f], semantics).merge != nullptr;
      const std::string where =
          std::string(sqls[f]) + " [" +
          std::string(AggregateSemanticsToString(semantics)) + "]";
      const auto serial =
          aqua::AnswerAt(sqls[f], ds2_, pm2_, options, 1, 1, semantics);
      if (serial.ok()) {
        EXPECT_FALSE(serial->approximate) << where;
        EXPECT_EQ(serial->stats.shards, 0u) << where;
      }
      for (const int threads : {1, 2}) {
        for (const int shards : {1, 2, 4, 8}) {
          const auto sharded = aqua::AnswerAt(sqls[f], ds2_, pm2_, options,
                                              shards, threads, semantics);
          EXPECT_EQ(Rendered(sharded), Rendered(serial))
              << where << " shards=" << shards << " threads=" << threads;
          if (!sharded.ok()) continue;
          EXPECT_EQ(sharded->stats.shards,
                    shards_cell && shards > 1 ? static_cast<uint64_t>(shards)
                                              : 0u)
              << where << " shards=" << shards << " threads=" << threads;
        }
      }
    }
  }
}

TEST_F(ShardEquivalenceTest, ShardedRunReportsEffectiveShardCount) {
  const auto sharded =
      AnswerAt("SELECT COUNT(*) FROM T2", 4, 2, AggregateSemantics::kRange);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  // DS2 has more than four rows, so all four fault domains engage.
  EXPECT_EQ(sharded->stats.shards, 4u);
  EXPECT_EQ(sharded->stats.degraded_shards, 0u);

  const auto serial =
      AnswerAt("SELECT COUNT(*) FROM T2", 1, 1, AggregateSemantics::kRange);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial->stats.shards, 0u);  // unsharded runs do not claim shards
}

TEST_F(ShardEquivalenceTest, ShardsBeyondRowCountClampToRows) {
  // More shards than rows must behave exactly like shards == rows.
  const auto serial = AnswerAt("SELECT COUNT(*) FROM T2", 1, 1,
                               AggregateSemantics::kDistribution);
  ASSERT_TRUE(serial.ok());
  const auto oversharded = AnswerAt("SELECT COUNT(*) FROM T2", 64, 2,
                                    AggregateSemantics::kDistribution);
  ASSERT_TRUE(oversharded.ok()) << oversharded.status().ToString();
  EXPECT_EQ(oversharded->ToString(), serial->ToString());
  EXPECT_LE(oversharded->stats.shards, ds2_.num_rows());
}

TEST(ShardEquivalenceSyntheticTest, CountDistributionOnLargerWorkload) {
  // A bigger instance so shard boundaries land mid-distribution: 512
  // tuples, 3 candidate mappings, arbitrary float probabilities. Unlike
  // the dyadic paper workloads (where every product is exact and the
  // sweep above asserts bit-equality), regrouping the convolution here
  // re-associates double sums, so the contract is agreement to within
  // accumulated rounding — outcome sets identical, masses within 1e-12
  // total variation.
  Rng rng(2009);
  SyntheticOptions wopts;
  wopts.num_tuples = 512;
  wopts.num_attributes = 6;
  wopts.num_mappings = 3;
  const SyntheticWorkload w = *GenerateSyntheticWorkload(wopts, rng);
  const AggregateQuery q = w.MakeQuery(AggregateFunction::kCount);

  auto answer_at = [&](int shards, int threads) {
    EngineOptions opts;
    opts.shards = shards;
    opts.threads = threads;
    const Engine engine(opts);
    return engine.Answer(q, w.pmapping, w.table, MappingSemantics::kByTuple,
                         AggregateSemantics::kDistribution);
  };

  const auto serial = answer_at(1, 1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (const int shards : {2, 8}) {
    const auto sharded = answer_at(shards, 2);
    ASSERT_TRUE(sharded.ok()) << "shards=" << shards << ": "
                              << sharded.status().ToString();
    EXPECT_EQ(sharded->distribution.entries().size(),
              serial->distribution.entries().size())
        << "shards=" << shards;
    EXPECT_LE(Distribution::TotalVariationDistance(sharded->distribution,
                                                   serial->distribution),
              1e-12)
        << "shards=" << shards;
  }
}

TEST(ShardEquivalenceEbayTest, ExtremaOnTwentyThousandAuctions) {
  // About 180k bids: enough tuples that a running product of per-tuple
  // CDF factors underflows a double, which once emptied the unsharded
  // MIN/MAX distributions. Every shard count must return a full unit of
  // mass, agree to rounding, and have a defined expectation.
  EbayOptions wopts;
  wopts.num_auctions = 20000;
  Rng rng(wopts.seed);
  const Table table = *GenerateEbayTable(wopts, rng);
  const PMapping pm = *MakeEbayPMapping();
  for (const char* sql :
       {"SELECT MIN(price) FROM T2", "SELECT MAX(price) FROM T2"}) {
    const auto serial = AnswerAt(sql, table, pm, EngineOptions{}, 1, 1,
                                 AggregateSemantics::kDistribution);
    ASSERT_TRUE(serial.ok()) << sql << ": " << serial.status().ToString();
    for (const int threads : {1, 2}) {
      for (const int shards : {1, 2, 4, 8}) {
        const auto dist = AnswerAt(sql, table, pm, EngineOptions{}, shards,
                                   threads, AggregateSemantics::kDistribution);
        ASSERT_TRUE(dist.ok()) << sql << " shards=" << shards << ": "
                               << dist.status().ToString();
        EXPECT_NEAR(dist->distribution.TotalMass(), 1.0, 1e-9)
            << sql << " shards=" << shards << " threads=" << threads;
        EXPECT_LE(Distribution::TotalVariationDistance(dist->distribution,
                                                       serial->distribution),
                  1e-12)
            << sql << " shards=" << shards << " threads=" << threads;
        const auto expected = AnswerAt(sql, table, pm, EngineOptions{},
                                       shards, threads,
                                       AggregateSemantics::kExpectedValue);
        EXPECT_TRUE(expected.ok())
            << sql << " shards=" << shards << ": "
            << expected.status().ToString();
      }
    }
  }
}

}  // namespace
}  // namespace aqua
