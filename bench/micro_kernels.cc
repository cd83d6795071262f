// google-benchmark microbenches for the hot kernels, plus the
// columnar-vs-row-materialising ablation called out in DESIGN.md.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "aqua/core/by_tuple_count.h"
#include "aqua/core/by_tuple_minmax.h"
#include "aqua/core/by_tuple_sum.h"
#include "aqua/core/clt.h"
#include "aqua/prob/discrete_sampler.h"
#include "aqua/prob/distribution.h"
#include "aqua/query/executor.h"
#include "aqua/query/parser.h"
#include "aqua/storage/table_builder.h"
#include "aqua/workload/ebay.h"
#include "aqua/workload/synthetic.h"

namespace {

using namespace aqua;

const SyntheticWorkload& Workload() {
  static const SyntheticWorkload* w = [] {
    Rng rng(42);
    SyntheticOptions opts;
    opts.num_tuples = 100'000;
    opts.num_attributes = 20;
    opts.num_mappings = 8;
    return new SyntheticWorkload(*GenerateSyntheticWorkload(opts, rng));
  }();
  return *w;
}

void BM_PredicateEvalPerRow(benchmark::State& state) {
  const SyntheticWorkload& w = Workload();
  const auto pred = Predicate::Comparison("a0", CompareOp::kLt,
                                          Value::Double(w.threshold));
  const BoundPredicate bound =
      *BoundPredicate::Bind(pred, w.table.schema());
  size_t row = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bound.Matches(w.table, row));
    row = (row + 1) % w.table.num_rows();
  }
}
BENCHMARK(BM_PredicateEvalPerRow);

// The same column and clause as BM_PredicateEvalPerRow, one MatchBlock of
// kBlock rows per iteration; items are cells, so ns per cell is the
// inverse of items_per_second.
void BM_PredicateMatchBlock(benchmark::State& state) {
  const SyntheticWorkload& w = Workload();
  const auto pred = Predicate::Comparison("a0", CompareOp::kLt,
                                          Value::Double(w.threshold));
  const BoundPredicate bound =
      *BoundPredicate::Bind(pred, w.table.schema());
  constexpr size_t kBlock = BoundPredicate::kBlock;
  const size_t blocks = w.table.num_rows() / kBlock;
  std::vector<uint8_t> match(kBlock);
  BoundPredicate::Scratch scratch;
  size_t block = 0;
  for (auto _ : state) {
    bound.MatchBlock(w.table, /*ids=*/nullptr, block * kBlock, kBlock,
                     match.data(), &scratch);
    benchmark::DoNotOptimize(match.data());
    benchmark::ClobberMemory();
    block = (block + 1) % blocks;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kBlock));
}
BENCHMARK(BM_PredicateMatchBlock);

// AND and OR of two comparisons, the second over a column that is NULL
// in every seventh row, so the Kleene combine sees all three truth values;
// one MatchBlock of kBlock rows per iteration, items are rows.
void BM_PredicateMatchBlockCompound(benchmark::State& state,
                                    const char* where) {
  static const Table* table = [] {
    TableBuilder builder(*Schema::Make(
        {{"x", ValueType::kDouble}, {"y", ValueType::kDouble}}));
    Rng rng(5);
    for (size_t r = 0; r < 100'000; ++r) {
      const Value y = r % 7 == 0 ? Value::Null()
                                 : Value::Double(rng.Uniform(0, 1));
      (void)builder.AppendRow({Value::Double(rng.Uniform(0, 1)), y});
    }
    return new Table(*std::move(builder).Finish());
  }();
  const AggregateQuery q =
      *SqlParser::ParseSimple(std::string("SELECT COUNT(*) FROM S WHERE ") +
                              where);
  const BoundPredicate bound = *BoundPredicate::Bind(q.where, table->schema());
  constexpr size_t kBlock = BoundPredicate::kBlock;
  const size_t blocks = table->num_rows() / kBlock;
  std::vector<uint8_t> match(kBlock);
  BoundPredicate::Scratch scratch;
  size_t block = 0;
  for (auto _ : state) {
    bound.MatchBlock(*table, /*ids=*/nullptr, block * kBlock, kBlock,
                     match.data(), &scratch);
    benchmark::DoNotOptimize(match.data());
    benchmark::ClobberMemory();
    block = (block + 1) % blocks;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kBlock));
}
BENCHMARK_CAPTURE(BM_PredicateMatchBlockCompound, and_,
                  "x < 0.5 AND y >= 0.3");
BENCHMARK_CAPTURE(BM_PredicateMatchBlockCompound, or_,
                  "x < 0.5 OR y >= 0.3");

const Column& ValueColumn() { return Workload().table.column(1); }

void BM_ColumnarSum(benchmark::State& state) {
  const Column& col = ValueColumn();
  for (auto _ : state) {
    double total = 0;
    for (size_t r = 0; r < col.size(); ++r) total += col.DoubleAt(r);
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(col.size()));
}

BENCHMARK(BM_ColumnarSum);

void BM_RowMaterialisingSum(benchmark::State& state) {
  const Column& col = ValueColumn();
  for (auto _ : state) {
    double total = 0;
    for (size_t r = 0; r < col.size(); ++r) {
      total += *col.GetValue(r).ToDouble();  // Value round-trip per cell
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(col.size()));
}

BENCHMARK(BM_RowMaterialisingSum);

// The by-tuple scans on two shapes, each reported in ns per
// (row, mapping), the inverse of items_per_second: the synthetic workload
// (100k rows, m = 8, every mapping binds the WHERE clause to its own
// column) and loadbench `scan`'s (the eBay simulator at 20,000 auctions,
// about 180k rows, m = 2, WHERE on the uncertain `price`).
struct ScanShape {
  const Table* table;
  const PMapping* pmapping;
  AggregateQuery count;
  AggregateQuery sum;

  int64_t cells() const {
    return static_cast<int64_t>(table->num_rows() * pmapping->size());
  }
};

const ScanShape& SyntheticM8() {
  static const ScanShape* shape = [] {
    const SyntheticWorkload& w = Workload();
    return new ScanShape{&w.table, &w.pmapping,
                         w.MakeQuery(AggregateFunction::kCount),
                         w.MakeQuery(AggregateFunction::kSum)};
  }();
  return *shape;
}

const ScanShape& EbayM2() {
  static const ScanShape* shape = [] {
    Rng rng(11);
    EbayOptions opts;
    opts.num_auctions = 20'000;
    const auto* table = new Table(*GenerateEbayTable(opts, rng));
    const auto* pmapping = new PMapping(*MakeEbayPMapping());
    // About half the rows satisfy under each mapping, some under one only.
    const std::string where = " FROM T2 WHERE price < 300";
    return new ScanShape{table, pmapping,
                         *SqlParser::ParseSimple("SELECT COUNT(*)" + where),
                         *SqlParser::ParseSimple("SELECT SUM(price)" + where)};
  }();
  return *shape;
}

void BM_ByTupleRangeCount(benchmark::State& state,
                          const ScanShape& (*shape)()) {
  const ScanShape& s = shape();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ByTupleCount::Range(s.count, *s.pmapping, *s.table));
  }
  state.SetItemsProcessed(state.iterations() * s.cells());
}
BENCHMARK_CAPTURE(BM_ByTupleRangeCount, synthetic_m8, SyntheticM8);
BENCHMARK_CAPTURE(BM_ByTupleRangeCount, ebay_m2, EbayM2);

void BM_ByTupleRangeSum(benchmark::State& state,
                        const ScanShape& (*shape)()) {
  const ScanShape& s = shape();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ByTupleSum::RangeSum(s.sum, *s.pmapping, *s.table));
  }
  state.SetItemsProcessed(state.iterations() * s.cells());
}
BENCHMARK_CAPTURE(BM_ByTupleRangeSum, synthetic_m8, SyntheticM8);
BENCHMARK_CAPTURE(BM_ByTupleRangeSum, ebay_m2, EbayM2);

void BM_ByTupleExpectedSum(benchmark::State& state,
                           const ScanShape& (*shape)()) {
  const ScanShape& s = shape();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ByTupleSum::ExpectedSumLinear(s.sum, *s.pmapping, *s.table));
  }
  state.SetItemsProcessed(state.iterations() * s.cells());
}
BENCHMARK_CAPTURE(BM_ByTupleExpectedSum, synthetic_m8, SyntheticM8);
BENCHMARK_CAPTURE(BM_ByTupleExpectedSum, ebay_m2, EbayM2);

void BM_ByTuplePDCountDP(benchmark::State& state) {
  // Quadratic DP on n tuples (subset of the workload).
  const SyntheticWorkload& w = Workload();
  const AggregateQuery q = w.MakeQuery(AggregateFunction::kCount);
  std::vector<uint32_t> rows(static_cast<size_t>(state.range(0)));
  for (size_t r = 0; r < rows.size(); ++r) rows[r] = static_cast<uint32_t>(r);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ByTupleCount::Dist(q, w.pmapping, w.table, &rows));
  }
}
BENCHMARK(BM_ByTuplePDCountDP)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_DistMaxSweep(benchmark::State& state) {
  // Exact extremum-distribution extension: O(nm log nm) CDF sweep.
  const SyntheticWorkload& w = Workload();
  const AggregateQuery q = w.MakeQuery(AggregateFunction::kMax);
  std::vector<uint32_t> rows(static_cast<size_t>(state.range(0)));
  for (size_t r = 0; r < rows.size(); ++r) rows[r] = static_cast<uint32_t>(r);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ByTupleMinMax::DistMax(q, w.pmapping, w.table, &rows));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DistMaxSweep)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_CltSumMoments(benchmark::State& state) {
  const SyntheticWorkload& w = Workload();
  const AggregateQuery q = w.MakeQuery(AggregateFunction::kSum);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ByTupleCLT::ApproxSum(q, w.pmapping, w.table));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w.table.num_rows()));
}
BENCHMARK(BM_CltSumMoments);

void BM_DistributionAddMass(benchmark::State& state) {
  Rng rng(7);
  std::vector<double> outcomes(10'000);
  for (auto& o : outcomes) o = static_cast<double>(rng.UniformInt(0, 999));
  for (auto _ : state) {
    Distribution d;
    for (double o : outcomes) d.AddMass(o, 1e-4);
    benchmark::DoNotOptimize(d.size());
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_DistributionAddMass);

void BM_AliasSampler(benchmark::State& state) {
  Rng seed_rng(3);
  const std::vector<double> probs = seed_rng.RandomProbabilities(64);
  const DiscreteSampler sampler = *DiscreteSampler::Make(probs);
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(rng));
  }
}
BENCHMARK(BM_AliasSampler);

void BM_ExecutorScalarScan(benchmark::State& state) {
  const SyntheticWorkload& w = Workload();
  const AggregateQuery q = *SqlParser::ParseSimple(
      "SELECT SUM(a0) FROM S WHERE a1 < 750");
  for (auto _ : state) {
    benchmark::DoNotOptimize(Executor::ExecuteScalar(q, w.table));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w.table.num_rows()));
}
BENCHMARK(BM_ExecutorScalarScan);

void BM_SqlParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(SqlParser::Parse(
        "SELECT AVG(R1.price) FROM (SELECT MAX(DISTINCT R2.price) FROM T2 "
        "AS R2 GROUP BY R2.auctionID) AS R1"));
  }
}
BENCHMARK(BM_SqlParse);

}  // namespace

BENCHMARK_MAIN();
