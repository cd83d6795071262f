// Figure 9: PTIME algorithms, medium instances — running time vs. #tuples
// (#attributes = 50, #mappings = 20). ByTuplePDCOUNT and the
// distribution-derived ByTupleExpValCOUNT are O(m*n + n^2) and separate
// from the linear pack, exactly as in the paper (its prototype became
// intractable around 50k tuples; the quadratic shape is what matters).

#include <cstdlib>

#include "aqua/core/by_tuple_count.h"
#include "aqua/core/by_tuple_minmax.h"
#include "aqua/core/by_tuple_sum.h"
#include "aqua/exec/parallel.h"
#include "aqua/workload/synthetic.h"
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace aqua;
  const bool quick = bench::Quick(argc, argv);

  bench::Banner("Figure 9",
                "medium synthetic instances, #attributes = 50, #mappings = "
                "20, #tuples sweeps");

  const std::vector<size_t> linear_sizes =
      quick ? std::vector<size_t>{10'000, 25'000}
            : std::vector<size_t>{10'000, 25'000, 50'000, 100'000, 200'000};
  // The quadratic algorithms get their own (smaller) grid, as in the paper.
  // The quick grid reaches 10k tuples so that the thread sweep's parallel
  // occurrence pass runs in several 4096-row chunks.
  const std::vector<size_t> quadratic_sizes =
      quick ? std::vector<size_t>{2'000, 5'000, 10'000}
            : std::vector<size_t>{5'000, 10'000, 20'000, 50'000};

  auto run_linear = [&](size_t n) {
    Rng rng(300 + n);
    SyntheticOptions opts;
    opts.num_tuples = n;
    opts.num_attributes = 50;
    opts.num_mappings = 20;
    const SyntheticWorkload w = *GenerateSyntheticWorkload(opts, rng);
    const double x = static_cast<double>(n);
    const AggregateQuery count_q = w.MakeQuery(AggregateFunction::kCount);
    const AggregateQuery sum_q = w.MakeQuery(AggregateFunction::kSum);
    const AggregateQuery avg_q = w.MakeQuery(AggregateFunction::kAvg);
    const AggregateQuery max_q = w.MakeQuery(AggregateFunction::kMax);
    bench::Row(x, "ByTupleRangeCOUNT", bench::TimeSeconds([&] {
                 (void)ByTupleCount::Range(count_q, w.pmapping, w.table);
               }));
    bench::Row(x, "ByTupleRangeSUM", bench::TimeSeconds([&] {
                 (void)ByTupleSum::RangeSum(sum_q, w.pmapping, w.table);
               }));
    bench::Row(x, "ByTupleRangeAVG", bench::TimeSeconds([&] {
                 (void)ByTupleSum::RangeAvgExact(avg_q, w.pmapping, w.table);
               }));
    bench::Row(x, "ByTupleRangeMAX", bench::TimeSeconds([&] {
                 (void)ByTupleMinMax::RangeMax(max_q, w.pmapping, w.table);
               }));
    bench::Row(x, "ByTupleExpValSUM", bench::TimeSeconds([&] {
                 (void)ByTupleSum::ExpectedSum(sum_q, w.pmapping, w.table);
               }));
  };

  auto run_quadratic = [&](size_t n) {
    Rng rng(400 + n);
    SyntheticOptions opts;
    opts.num_tuples = n;
    opts.num_attributes = 50;
    opts.num_mappings = 20;
    const SyntheticWorkload w = *GenerateSyntheticWorkload(opts, rng);
    const double x = static_cast<double>(n);
    const AggregateQuery count_q = w.MakeQuery(AggregateFunction::kCount);
    bench::Row(x, "ByTuplePDCOUNT", bench::TimeSeconds([&] {
                 (void)ByTupleCount::Dist(count_q, w.pmapping, w.table);
               }));
    // The paper computes expected COUNT from the distribution, which is
    // why its ByTupleExpValCOUNT curve tracks the quadratic PD cost.
    bench::Row(x, "ByTupleExpValCOUNT(derived)", bench::TimeSeconds([&] {
                 (void)ByTupleCount::ExpectedViaDistribution(
                     count_q, w.pmapping, w.table);
               }));
    // Ablation: the direct linearity-of-expectation form is O(n*m).
    bench::Row(x, "ByTupleExpValCOUNT(direct)", bench::TimeSeconds([&] {
                 (void)ByTupleCount::Expected(count_q, w.pmapping, w.table);
               }));
    // Thread sweep of the COUNT distribution: same query at 1/2/4/8 worker
    // threads. Only the O(n*m) occurrence pass runs in parallel (the band
    // DP is serial), and its 4096-row chunks never depend on the thread
    // count, so the answers must be byte-identical to the serial run; a
    // mismatch aborts the bench.
    double serial_seconds = 0.0;
    Result<Distribution> serial_dist = Status::Internal("not yet run");
    for (const int threads : {1, 2, 4, 8}) {
      const exec::ExecPolicy policy{threads};
      Result<Distribution> dist = Status::Internal("not yet run");
      const double seconds = bench::TimeSeconds([&] {
        dist = ByTupleCount::Dist(count_q, w.pmapping, w.table,
                                  /*rows=*/nullptr, /*ctx=*/nullptr, policy);
      });
      if (!dist.ok()) {
        bench::Skipped(x, "ByTuplePDCOUNT[parallel]", dist.status().message());
        break;
      }
      if (threads == 1) {
        serial_seconds = seconds;
        serial_dist = std::move(dist);
      } else if (!(dist.value() == serial_dist.value())) {
        std::fprintf(stderr,
                     "FATAL: ByTuplePDCOUNT answer differs at threads=%d\n",
                     threads);
        std::exit(1);
      }
      bench::RowParallel(
          x, "ByTuplePDCOUNT[t=" + std::to_string(threads) + "]", seconds,
          threads, seconds > 0 ? serial_seconds / seconds : 0.0);
    }
  };

  for (size_t n : linear_sizes) run_linear(n);
  for (size_t n : quadratic_sizes) run_quadratic(n);
  return bench::Finish(argc, argv);
}
