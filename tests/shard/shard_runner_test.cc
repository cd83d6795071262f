// Shard runner behavior: deterministic partition planning, the 1-shard
// plan running inline, serial and pooled n-shard execution with exact
// budget absorption, shard-local degradation under a fresh budget share,
// non-degradable failures, and torn-partial detection.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "aqua/common/exec_context.h"
#include "aqua/common/failpoint.h"
#include "aqua/core/shards.h"
#include "aqua/exec/thread_pool.h"

namespace aqua {
namespace {

/// A well-formed exact job: charges one step per row and reports the row
/// sum as its expectation.
ShardJob SumJob() {
  return [](size_t, RowSpan rows, ExecContext* ctx,
            const exec::ExecPolicy&) -> Result<merge::ShardPartial> {
    const size_t n = rows.size(0);
    AQUA_RETURN_NOT_OK(ExecCharge(ctx, n));
    merge::ShardPartial p;
    for (size_t i = 0; i < n; ++i) {
      p.expected += static_cast<double>(rows.row(i));
    }
    p.rows_covered = n;
    return p;
  };
}

double TotalExpected(const std::vector<merge::ShardPartial>& parts) {
  double total = 0.0;
  for (const merge::ShardPartial& p : parts) total += p.expected;
  return total;
}

TEST(PlanShardsTest, ContiguousCoveringPartition) {
  const std::vector<RowSpan> plan = PlanShards(10, 3);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].size(10), 4u);  // remainder goes to the lowest shards
  EXPECT_EQ(plan[1].size(10), 3u);
  EXPECT_EQ(plan[2].size(10), 3u);
  size_t next = 0;
  for (const RowSpan& rows : plan) {
    for (size_t i = 0; i < rows.size(10); ++i) EXPECT_EQ(rows.row(i), next++);
  }
  EXPECT_EQ(next, 10u);
}

TEST(PlanShardsTest, ClampsToRowCountAndOne) {
  EXPECT_EQ(PlanShards(2, 8).size(), 2u);  // never empty shards
  EXPECT_EQ(PlanShards(0, 4).size(), 1u);
  EXPECT_EQ(PlanShards(0, 4)[0].size(0), 0u);
  EXPECT_EQ(PlanShards(5, 0).size(), 1u);  // shards < 1 = one shard
  EXPECT_EQ(PlanShards(5, 0)[0].size(5), 5u);
}

TEST(RowSpanTest, IdListRangeAndWholeTable) {
  const std::vector<uint32_t> ids = {7, 2, 9};
  const RowSpan list = &ids;
  EXPECT_EQ(list.size(100), 3u);
  EXPECT_EQ(list.row(1), 2u);
  EXPECT_EQ(list.Sub(0, 2).size(100), 2u);
  EXPECT_EQ(list.Sub(1, 3).row(0), 2u);
  const RowSpan all = nullptr;
  EXPECT_EQ(all.size(100), 100u);
  EXPECT_EQ(all.row(42), 42u);
  const RowSpan range = RowSpan::Range(5, 8);
  EXPECT_EQ(range.size(100), 3u);
  EXPECT_EQ(range.row(2), 7u);
}

TEST(RowSpanTest, ForEachBlockSplitsInVisitOrder) {
  // (ids, first, n) per block; the rows are ids[first + i] or first + i.
  using Block = std::tuple<const uint32_t*, size_t, size_t>;
  auto blocks = [](RowSpan span, size_t num_rows, size_t block) {
    std::vector<Block> out;
    span.ForEachBlock(num_rows, block,
                      [&](const uint32_t* ids, size_t first, size_t n) {
                        out.emplace_back(ids, first, n);
                      });
    return out;
  };
  EXPECT_EQ(blocks(RowSpan::Range(5, 10), 100, 2),
            (std::vector<Block>{{nullptr, 5, 2}, {nullptr, 7, 2},
                                {nullptr, 9, 1}}));
  EXPECT_EQ(blocks(RowSpan(), 4, 4), (std::vector<Block>{{nullptr, 0, 4}}));
  const std::vector<uint32_t> ids = {7, 2, 9, 2};
  EXPECT_EQ(blocks(RowSpan(&ids).Sub(1, 4), 100, 2),
            (std::vector<Block>{{ids.data(), 1, 2}, {ids.data(), 3, 1}}));
  EXPECT_TRUE(blocks(RowSpan::Range(3, 3), 100, 2).empty());
}

TEST(ShardRunnerTest, OneShardPlanRunsInlineWithCallerPolicy) {
  // The unsharded case: the job sees the caller's context and policy,
  // and shard failpoints never fire on it.
  fault::ScopedFailpoint fp("shard/run", "error(unavailable)");
  ExecContext parent(ExecLimits{}, {});
  int seen_threads = 0;
  ExecContext* seen_ctx = nullptr;
  const ShardJob job = [&](size_t, RowSpan rows, ExecContext* ctx,
                           const exec::ExecPolicy& policy)
      -> Result<merge::ShardPartial> {
    seen_threads = policy.threads;
    seen_ctx = ctx;
    return SumJob()(0, rows, ctx, policy);
  };
  const auto parts = RunShards({RowSpan::Range(0, 8)}, 8,
                               exec::ExecPolicy{3}, &parent, job, nullptr);
  ASSERT_TRUE(parts.ok()) << parts.status().ToString();
  ASSERT_EQ(parts->size(), 1u);
  EXPECT_EQ(TotalExpected(*parts), 28.0);
  EXPECT_EQ(seen_threads, 3);
  EXPECT_EQ(seen_ctx, &parent);
  EXPECT_EQ(parent.steps(), 8u);
}

TEST(ShardRunnerTest, RunsShardsInOrderAndAbsorbsBudget) {
  exec::ThreadPool pool(2);
  for (const int threads : {1, 2}) {
    ExecContext parent(ExecLimits{}, {});
    const auto parts = RunShards(PlanShards(8, 4), 8,
                                 exec::ExecPolicy{threads, &pool}, &parent,
                                 SumJob(), nullptr);
    ASSERT_TRUE(parts.ok()) << parts.status().ToString();
    ASSERT_EQ(parts->size(), 4u);
    EXPECT_EQ((*parts)[0].expected, 0.0 + 1);
    EXPECT_EQ((*parts)[3].expected, 6.0 + 7);
    // One step per row, absorbed exactly once.
    EXPECT_EQ(parent.steps(), 8u) << "threads=" << threads;
  }
}

TEST(ShardRunnerTest, DegradableFailureRunsFallbackAndFlagsShard) {
  const ShardJob job = [](size_t s, RowSpan rows, ExecContext*,
                          const exec::ExecPolicy&)
      -> Result<merge::ShardPartial> {
    if (s == 1) return Status::Unavailable("shard 1 died");
    merge::ShardPartial p;
    p.rows_covered = rows.size(0);
    p.expected = 1.0;
    return p;
  };
  const ShardJob fallback = [](size_t, RowSpan rows, ExecContext*,
                               const exec::ExecPolicy&)
      -> Result<merge::ShardPartial> {
    merge::ShardPartial p;
    p.rows_covered = rows.size(0);
    p.expected = 2.0;
    p.note = "sampled";
    return p;
  };
  const auto parts = RunShards(PlanShards(8, 2), 8, exec::ExecPolicy{},
                               nullptr, job, &fallback);
  ASSERT_TRUE(parts.ok()) << parts.status().ToString();
  EXPECT_FALSE((*parts)[0].approximate);
  EXPECT_TRUE((*parts)[1].approximate);
  EXPECT_EQ((*parts)[1].expected, 2.0);
}

TEST(ShardRunnerTest, DegradedShardSamplesUnderAFreshChildOfItsShare) {
  // Shard 1 exhausts its half of a 100-step budget; its fallback must
  // still get a whole fresh 50-step share, and both charges land in the
  // parent.
  ExecLimits limits;
  limits.max_steps = 100;
  ExecContext parent(limits, {});
  const ShardJob job = [](size_t s, RowSpan rows, ExecContext* ctx,
                          const exec::ExecPolicy&)
      -> Result<merge::ShardPartial> {
    AQUA_RETURN_NOT_OK(ExecCharge(ctx, s == 1 ? 51 : 10));
    merge::ShardPartial p;
    p.rows_covered = rows.size(0);
    return p;
  };
  const ShardJob fallback = [](size_t, RowSpan rows, ExecContext* ctx,
                               const exec::ExecPolicy&)
      -> Result<merge::ShardPartial> {
    AQUA_RETURN_NOT_OK(ExecCharge(ctx, 50));
    merge::ShardPartial p;
    p.rows_covered = rows.size(0);
    return p;
  };
  const auto parts = RunShards(PlanShards(8, 2), 8, exec::ExecPolicy{},
                               &parent, job, &fallback);
  ASSERT_TRUE(parts.ok()) << parts.status().ToString();
  EXPECT_FALSE((*parts)[0].approximate);
  EXPECT_TRUE((*parts)[1].approximate);
  EXPECT_EQ(parent.steps(), 10u + 51u + 50u);
}

TEST(ShardRunnerTest, NonDegradableFailureFailsTheRun) {
  const ShardJob job = [](size_t, RowSpan, ExecContext*,
                          const exec::ExecPolicy&)
      -> Result<merge::ShardPartial> {
    return Status::InvalidArgument("bad query reaches every shard alike");
  };
  const ShardJob fallback = SumJob();
  const auto parts = RunShards(PlanShards(8, 2), 8, exec::ExecPolicy{},
                               nullptr, job, &fallback);
  ASSERT_FALSE(parts.ok());
  EXPECT_EQ(parts.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardRunnerTest, TornPartialIsDetected) {
  // Without a fallback the short partial must surface as an error naming
  // the coverage gap — never merge silently.
  fault::ScopedFailpoint fp("shard/run", "once*partial");
  const auto parts = RunShards(PlanShards(8, 2), 8, exec::ExecPolicy{},
                               nullptr, SumJob(), nullptr);
  ASSERT_FALSE(parts.ok());
  EXPECT_NE(std::string(parts.status().message()).find("torn shard partial"),
            std::string::npos)
      << parts.status().ToString();
}

TEST(ShardRunnerTest, TornPartialDegradesWhenFallbackAvailable) {
  fault::ScopedFailpoint fp("shard/run", "once*partial");
  const ShardJob fallback = SumJob();
  const auto parts = RunShards(PlanShards(8, 2), 8, exec::ExecPolicy{},
                               nullptr, SumJob(), &fallback);
  ASSERT_TRUE(parts.ok()) << parts.status().ToString();
  EXPECT_TRUE((*parts)[0].approximate);
  EXPECT_FALSE((*parts)[1].approximate);
  // The fallback re-ran over the full shard, so the answer is complete.
  EXPECT_EQ(TotalExpected(*parts), 28.0);
}

}  // namespace
}  // namespace aqua
