#include "aqua/exec/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "aqua/common/exec_context.h"
#include "aqua/common/failpoint.h"
#include "aqua/obs/metrics.h"

namespace aqua::exec {
namespace {

TEST(MakeChunksTest, PartitionsExactly) {
  const std::vector<Chunk> chunks = MakeChunks(10, 3);
  ASSERT_EQ(chunks.size(), 4u);
  EXPECT_EQ(chunks[0].begin, 0u);
  EXPECT_EQ(chunks[0].end, 3u);
  EXPECT_EQ(chunks[3].begin, 9u);
  EXPECT_EQ(chunks[3].end, 10u);
  for (size_t i = 0; i < chunks.size(); ++i) EXPECT_EQ(chunks[i].index, i);
}

TEST(MakeChunksTest, ZeroChunkSizeMeansOne) {
  const std::vector<Chunk> chunks = MakeChunks(3, 0);
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[1].begin, 1u);
  EXPECT_EQ(chunks[1].end, 2u);
}

TEST(MakeChunksTest, EmptyRange) {
  EXPECT_TRUE(MakeChunks(0, 8).empty());
}

TEST(ParallelForTest, ZeroItemsIsOk) {
  int calls = 0;
  const Status s = ParallelFor(
      ExecPolicy{}, 0, 8, nullptr,
      [&](const Chunk&, ExecContext*) -> Status {
        ++calls;
        return Status::OK();
      });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, SerialCoversEveryElementInOrder) {
  constexpr size_t kN = 1000;
  std::vector<int> seen(kN, 0);
  std::vector<size_t> chunk_order;
  const Status s = ParallelFor(
      ExecPolicy{1}, kN, 7, nullptr,
      [&](const Chunk& chunk, ExecContext*) -> Status {
        chunk_order.push_back(chunk.index);
        for (size_t i = chunk.begin; i < chunk.end; ++i) ++seen[i];
        return Status::OK();
      });
  ASSERT_TRUE(s.ok());
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(seen[i], 1) << "element " << i;
  for (size_t i = 0; i < chunk_order.size(); ++i) {
    EXPECT_EQ(chunk_order[i], i);  // serial path runs chunks in index order
  }
}

TEST(ParallelForTest, ParallelCoversEveryElementExactlyOnce) {
  constexpr size_t kN = 10'000;
  ThreadPool pool(4);
  std::vector<std::atomic<int>> seen(kN);
  const Status s = ParallelFor(
      ExecPolicy{4, &pool}, kN, 64, nullptr,
      [&](const Chunk& chunk, ExecContext*) -> Status {
        for (size_t i = chunk.begin; i < chunk.end; ++i) {
          seen[i].fetch_add(1, std::memory_order_relaxed);
        }
        return Status::OK();
      });
  ASSERT_TRUE(s.ok());
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(seen[i].load(), 1);
}

TEST(ParallelForTest, LowestIndexFailureWins) {
  // Chunks are claimed in index order, so chunk 3 always executes its body
  // before chunk 7 can poison the region: the reported status must be the
  // index-3 failure at every thread count.
  ThreadPool pool(4);
  for (const int threads : {1, 4}) {
    const Status s = ParallelFor(
        ExecPolicy{threads, &pool}, 10, 1, nullptr,
        [&](const Chunk& chunk, ExecContext*) -> Status {
          if (chunk.index == 3) return Status::InvalidArgument("chunk three");
          if (chunk.index == 7) return Status::Internal("chunk seven");
          return Status::OK();
        });
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << "threads=" << threads;
    EXPECT_NE(s.message().find("chunk three"), std::string::npos);
  }
}

TEST(ParallelForTest, BudgetSharesSumExactlyToParent) {
  // 10 equal chunks under max_steps=100: every chunk gets exactly 10, all
  // succeed, and the parent ends up with the exact sum of child charges.
  ThreadPool pool(4);
  for (const int threads : {1, 4}) {
    ExecLimits limits;
    limits.max_steps = 100;
    ExecContext parent(limits);
    const Status s = ParallelFor(
        ExecPolicy{threads, &pool}, 100, 10, &parent,
        [&](const Chunk& chunk, ExecContext* child) -> Status {
          return child->Charge(chunk.size());
        });
    ASSERT_TRUE(s.ok()) << "threads=" << threads << ": " << s.ToString();
    EXPECT_EQ(parent.steps(), 100u);
    // The shares summed to the whole budget, so the parent is now spent.
    EXPECT_EQ(parent.Charge(1).code(), StatusCode::kResourceExhausted);
  }
}

TEST(ParallelForTest, WeightsRouteBudgetProportionally) {
  // Weight 9:1 over two chunks of max_steps=100: chunk 0 may charge 90,
  // chunk 1 only 10.
  ExecLimits limits;
  limits.max_steps = 100;
  ExecContext parent(limits);
  const std::vector<uint64_t> weights = {9, 1};
  std::vector<Status> charge(2);
  const Status s = ParallelFor(
      ExecPolicy{1}, 2, 1, &parent,
      [&](const Chunk& chunk, ExecContext* child) -> Status {
        charge[chunk.index] = child->Charge(50);
        return Status::OK();  // record, don't abort, so both chunks run
      },
      &weights);
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(charge[0].ok());  // 50 <= 90
  EXPECT_EQ(charge[1].code(), StatusCode::kResourceExhausted);  // 50 > 10
}

TEST(ParallelForTest, WeightsSizeMismatchIsInternal) {
  const std::vector<uint64_t> weights = {1, 2, 3};  // but 2 chunks
  const Status s = ParallelFor(
      ExecPolicy{1}, 2, 1, nullptr,
      [](const Chunk&, ExecContext*) -> Status { return Status::OK(); },
      &weights);
  EXPECT_EQ(s.code(), StatusCode::kInternal);
}

// Satellite: a budget blow inside one chunk must surface as exactly one
// kResourceExhausted, abort the siblings via the group token without ever
// touching the caller's own token, and leave no detached task behind — the
// pool must be immediately reusable for the next region.
TEST(ParallelForTest, BudgetBlowCancelsGroupNotCaller) {
  ThreadPool pool(4);
  CancellationToken caller = CancellationToken::Make();
  ExecLimits limits;
  limits.max_steps = 100;
  ExecContext parent(limits, caller);

  std::atomic<int> exhausted{0};
  const Status s = ParallelFor(
      ExecPolicy{4, &pool}, 8, 1, &parent,
      [&](const Chunk& chunk, ExecContext* child) -> Status {
        // Chunk 5 blows its ~12-step share; everyone else stays within it.
        const Status st = child->Charge(chunk.index == 5 ? 1000 : 1);
        if (st.code() == StatusCode::kResourceExhausted) {
          exhausted.fetch_add(1, std::memory_order_relaxed);
        }
        return st;
      });
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(exhausted.load(), 1);
  // Group cancellation never propagates upstream.
  EXPECT_FALSE(caller.cancellation_requested());

  // ParallelFor returned only after every involved worker exited, so the
  // same pool immediately runs a fresh region to completion.
  std::atomic<int> ran{0};
  const Status again = ParallelFor(
      ExecPolicy{4, &pool}, 16, 1, nullptr,
      [&](const Chunk&, ExecContext*) -> Status {
        ran.fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
      });
  EXPECT_TRUE(again.ok());
  EXPECT_EQ(ran.load(), 16);
}

TEST(ParallelForTest, CallerCancellationSurfacesAsCancelled) {
  CancellationToken caller = CancellationToken::Make();
  caller.RequestCancel();
  ExecContext parent(ExecLimits{}, caller);
  const Status s = ParallelFor(
      ExecPolicy{1}, 4, 1, &parent,
      [](const Chunk&, ExecContext* child) -> Status {
        return child->CheckNow();
      });
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
}

TEST(ParallelForTest, SpawnFailureFallsBackToSerialWithIdenticalResults) {
  constexpr size_t kN = 1000;
  auto run = [&](std::vector<int>* seen) {
    return ParallelFor(ExecPolicy{4}, kN, 16, nullptr,
                       [&](const Chunk& chunk, ExecContext*) -> Status {
                         for (size_t i = chunk.begin; i < chunk.end; ++i) {
                           (*seen)[i] = static_cast<int>(i) + 1;
                         }
                         return Status::OK();
                       });
  };
  std::vector<int> parallel_seen(kN, 0);
  ASSERT_TRUE(run(&parallel_seen).ok());

  const uint64_t fallbacks_before =
      obs::MetricsRegistry::Default()
          .GetCounter("aqua_exec_serial_fallback_total")
          .value();
  fault::ScopedFailpoint fp("exec/pool/spawn", "error(unavailable)");
  ASSERT_TRUE(fp.status().ok());
  std::vector<int> fallback_seen(kN, 0);
  ASSERT_TRUE(run(&fallback_seen).ok());

  // The pool refused every helper, the caller drained all chunks inline,
  // and the result is indistinguishable from the parallel run.
  EXPECT_EQ(fallback_seen, parallel_seen);
  EXPECT_GT(obs::MetricsRegistry::Default()
                .GetCounter("aqua_exec_serial_fallback_total")
                .value(),
            fallbacks_before);
}

TEST(ParallelForTest, InjectedChunkErrorPropagatesCleanly) {
  fault::ScopedFailpoint fp("exec/parallel/chunk",
                            "once*error(unavailable,injected)");
  ASSERT_TRUE(fp.status().ok());
  std::atomic<int> bodies{0};
  const Status s = ParallelFor(ExecPolicy{1}, 100, 10, nullptr,
                               [&](const Chunk&, ExecContext*) -> Status {
                                 bodies.fetch_add(1);
                                 return Status::OK();
                               });
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(s.message(), "injected");
}

}  // namespace
}  // namespace aqua::exec
