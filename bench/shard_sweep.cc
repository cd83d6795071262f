// Shard sweep: the cost of fault isolation. Runs the sharded by-tuple
// pass at 1/2/4/8 fault domains over the fig09 medium instances and
// reports the per-shard-count wall time, with the shard runner, child
// ExecContexts, and the merge layer on the path. Fault-free the answers
// must match the serial run — COUNT range bit-identical, COUNT
// distribution within 1e-9 total variation (shard boundaries re-associate
// double sums on non-dyadic synthetic probabilities) — so a mismatch
// aborts the bench rather than reporting a fast-but-wrong point.

#include <cstdio>
#include <cstdlib>

#include "aqua/core/engine.h"
#include "aqua/prob/distribution.h"
#include "aqua/workload/synthetic.h"
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace aqua;
  const bool quick = bench::Quick(argc, argv);

  bench::Banner("Shard sweep",
                "sharded by-tuple pass at 1/2/4/8 fault domains, "
                "#attributes = 50, #mappings = 20, #tuples sweeps");

  const std::vector<size_t> sizes = quick
                                        ? std::vector<size_t>{2'000, 5'000}
                                        : std::vector<size_t>{5'000, 10'000,
                                                              20'000, 50'000};

  for (const size_t n : sizes) {
    Rng rng(500 + n);
    SyntheticOptions opts;
    opts.num_tuples = n;
    opts.num_attributes = 50;
    opts.num_mappings = 20;
    const SyntheticWorkload w = *GenerateSyntheticWorkload(opts, rng);
    const double x = static_cast<double>(n);
    const AggregateQuery count_q = w.MakeQuery(AggregateFunction::kCount);

    auto engine_at = [&](int shards) {
      EngineOptions eopts;
      eopts.shards = shards;
      eopts.threads = 2;
      return Engine(eopts);
    };

    // COUNT range: linear per shard, bit-identical at every shard count
    // (interval sums fold in shard order over exact per-tuple bounds).
    Result<AggregateAnswer> serial_range = Status::Internal("not yet run");
    for (const int shards : {1, 2, 4, 8}) {
      const Engine engine = engine_at(shards);
      Result<AggregateAnswer> answer = Status::Internal("not yet run");
      const double seconds = bench::TimeSeconds([&] {
        answer = engine.Answer(count_q, w.pmapping, w.table,
                               MappingSemantics::kByTuple,
                               AggregateSemantics::kRange);
      });
      if (!answer.ok()) {
        bench::Skipped(x, "ShardedRangeCOUNT", answer.status().message());
        break;
      }
      if (shards == 1) {
        serial_range = std::move(answer);
      } else if (answer->range.low != serial_range->range.low ||
                 answer->range.high != serial_range->range.high) {
        std::fprintf(stderr,
                     "FATAL: ShardedRangeCOUNT answer differs at shards=%d\n",
                     shards);
        std::exit(1);
      }
      bench::Row(x, "ShardedRangeCOUNT[s=" + std::to_string(shards) + "]",
                 seconds, shards == 1 ? &serial_range->stats : &answer->stats);
    }

    // COUNT distribution: the quadratic DP runs per shard (each shard's DP
    // is quadratic in its own size, so sharding also shrinks the work) and
    // the partials convolve back together.
    Result<AggregateAnswer> serial_dist = Status::Internal("not yet run");
    for (const int shards : {1, 2, 4, 8}) {
      const Engine engine = engine_at(shards);
      Result<AggregateAnswer> answer = Status::Internal("not yet run");
      const double seconds = bench::TimeSeconds([&] {
        answer = engine.Answer(count_q, w.pmapping, w.table,
                               MappingSemantics::kByTuple,
                               AggregateSemantics::kDistribution);
      });
      if (!answer.ok()) {
        bench::Skipped(x, "ShardedPDCOUNT", answer.status().message());
        break;
      }
      if (shards == 1) {
        serial_dist = std::move(answer);
      } else if (Distribution::TotalVariationDistance(
                     answer->distribution, serial_dist->distribution) > 1e-9) {
        std::fprintf(stderr,
                     "FATAL: ShardedPDCOUNT answer drifted at shards=%d\n",
                     shards);
        std::exit(1);
      }
      bench::Row(x, "ShardedPDCOUNT[s=" + std::to_string(shards) + "]",
                 seconds, shards == 1 ? &serial_dist->stats : &answer->stats);
    }
  }
  return bench::Finish(argc, argv);
}
