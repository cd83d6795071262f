#include "aqua/core/tuple_scan.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "aqua/common/random.h"
#include "aqua/core/by_table.h"
#include "aqua/core/by_tuple_count.h"
#include "aqua/core/by_tuple_minmax.h"
#include "aqua/core/by_tuple_sum.h"
#include "aqua/core/clt.h"
#include "aqua/core/engine.h"
#include "aqua/query/parser.h"
#include "aqua/storage/table_builder.h"
#include "tuple_scan_oracle.h"

namespace aqua {
namespace {

constexpr size_t kRows = 60;

// Source S: numeric columns with NULLs, two date and two string columns,
// so the three candidate mappings bind every comparison kind differently.
// With `specials`, every fifth cell of the double columns a and b is NaN,
// -0.0, an infinity or a subnormal instead.
Table MakeSource(size_t rows = kRows, bool specials = false) {
  Schema schema = *Schema::Make({{"id", ValueType::kInt64},
                                 {"a", ValueType::kDouble},
                                 {"b", ValueType::kDouble},
                                 {"c", ValueType::kInt64},
                                 {"d", ValueType::kDate},
                                 {"e", ValueType::kDate},
                                 {"s", ValueType::kString},
                                 {"t", ValueType::kString}});
  TableBuilder builder(std::move(schema));
  Rng rng(17);
  const char* const words[] = {"", "x", "xy", "y", "zz"};
  auto maybe_null = [&](Value v) {
    return rng.UniformInt(0, 6) == 0 ? Value::Null() : std::move(v);
  };
  auto day = [&] {
    return Value::FromDate(
        *Date::FromYmd(2008, 1, static_cast<int>(rng.UniformInt(1, 20))));
  };
  const double kSpecials[] = {std::nan(""), -0.0,
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::denorm_min()};
  auto number = [&](double v) {
    if (specials && rng.UniformInt(0, 4) == 0) {
      v = kSpecials[rng.UniformInt(0, 4)];
    }
    return maybe_null(Value::Double(v));
  };
  for (size_t r = 0; r < rows; ++r) {
    const Status s = builder.AppendRow(
        {Value::Int64(static_cast<int64_t>(r)),
         number(0.25 * static_cast<double>(rng.UniformInt(-8, 40))),
         number(0.5 * static_cast<double>(rng.UniformInt(0, 20))),
         maybe_null(Value::Int64(rng.UniformInt(-3, 9))), maybe_null(day()),
         maybe_null(day()),
         maybe_null(Value::String(words[rng.UniformInt(0, 4)])),
         Value::String(words[rng.UniformInt(0, 4)])});
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  return *std::move(builder).Finish();
}

PMapping MakePMapping() {
  auto mapping = [](const char* v, const char* w, const char* day,
                    const char* name) {
    return *RelationMapping::Make(
        "S", "T", {{"id", "id"}, {v, "v"}, {w, "w"}, {day, "day"},
                   {name, "name"}});
  };
  return *PMapping::Make({{mapping("a", "b", "d", "s"), 0.5},
                          {mapping("b", "a", "e", "t"), 0.3},
                          {mapping("c", "b", "d", "t"), 0.2}});
}

// WHERE conditions over every comparison kind (double, int, date, string)
// and NOT/OR/AND trees; the aggregated v is NULL in some rows under every
// mapping.
const char* const kConditions[] = {
    "",
    " WHERE w > 3",
    " WHERE NOT (w < 2) OR name = 'x'",
    " WHERE day >= '2008-1-10' AND name <> 'y'",
    " WHERE NOT (day < '2008-1-5' OR w >= 7.5)",
    " WHERE name < 'xy' AND (w <= 4 OR v > 6)",
    " WHERE v <> 2 AND NOT (NOT (day = '2008-1-7'))",
};

AggregateQuery Query(const std::string& agg, const char* condition) {
  return *SqlParser::ParseSimple("SELECT " + agg + " FROM T" + condition);
}

std::vector<uint32_t> AllIds(size_t rows) {
  std::vector<uint32_t> ids(rows);
  std::iota(ids.begin(), ids.end(), 0u);
  return ids;
}

// Rows of the big source: past one predicate block, so that blocks end
// mid-table and the last one is partial.
constexpr size_t kBigRows = BoundPredicate::kBlock + 37;

class TupleScanTest : public ::testing::Test {
 protected:
  Table source_ = MakeSource();
  Table big_ = MakeSource(kBigRows);
  Table special_ = MakeSource(kBigRows, /*specials=*/true);
  PMapping pmapping_ = MakePMapping();
  std::vector<uint32_t> ids_ = {3, 17, 0, 59, 17, 22, 41, 8};
  std::vector<uint32_t> all_ids_ = AllIds(kRows);
  // Every row of big_ backwards, then repeats on both sides of the first
  // block boundary: an id-list span longer than one block.
  std::vector<uint32_t> big_ids_ = [] {
    std::vector<uint32_t> ids = AllIds(kBigRows);
    std::reverse(ids.begin(), ids.end());
    constexpr auto kB = static_cast<uint32_t>(BoundPredicate::kBlock);
    ids.insert(ids.end(), {kB, kB - 1, 0, kB, kB + 36, kB - 1});
    return ids;
  }();
};

// A block's columns and summaries against the oracle's rows
// [first, first + block.size()), bit for bit. Counts the cells of each
// outcome.
void ExpectBlockMatchesOracle(const TupleBlock& block,
                              const std::vector<oracle::Row>& rows,
                              const std::vector<double>& prob, size_t first,
                              size_t* sat_cells, size_t* unsat_cells) {
  ASSERT_LE(first + block.size(), rows.size());
  const TupleBlock::Summary a = block.AnyAll();
  const std::vector<uint8_t> any(a.any, a.any + block.size());
  const std::vector<uint8_t> all(a.all, a.all + block.size());
  const TupleBlock::Summary e = block.Extremes();
  double occ[BoundPredicate::kBlock];
  block.Occ(occ);
  ASSERT_EQ(block.m(), prob.size());
  for (size_t j = 0; j < block.m(); ++j) EXPECT_EQ(block.prob()[j], prob[j]);
  for (size_t i = 0; i < block.size(); ++i) {
    const oracle::Row& o = rows[first + i];
    ASSERT_EQ(block.row(i), o.row);
    for (size_t j = 0; j < block.m(); ++j) {
      ASSERT_EQ(block.sat(j)[i], o.sat[j]) << "row " << o.row;
      const double masked =
          TupleBlock::Select(block.sat(j)[i], block.value(j)[i], 0.0);
      EXPECT_TRUE(oracle::SameBits(masked, o.value[j]))
          << "row " << o.row << " mapping " << j;
      ++(o.sat[j] != 0 ? *sat_cells : *unsat_cells);
    }
    EXPECT_EQ(any[i], o.any() ? 1 : 0) << "row " << o.row;
    EXPECT_EQ(all[i], o.all() ? 1 : 0) << "row " << o.row;
    EXPECT_EQ(e.any[i], any[i]);
    EXPECT_EQ(e.all[i], all[i]);
    EXPECT_TRUE(oracle::SameBits(e.vmin[i], o.vmin)) << "row " << o.row;
    EXPECT_TRUE(oracle::SameBits(e.vmax[i], o.vmax)) << "row " << o.row;
    EXPECT_TRUE(oracle::SameBits(occ[i], o.occ)) << "row " << o.row;
  }
}

// On the small source and on big_, whose spans cross a block boundary.
TEST_F(TupleScanTest, BlocksMatchThePerRowOracle) {
  constexpr size_t kB = BoundPredicate::kBlock;
  const struct {
    const Table* table;
    std::vector<RowSpan> spans;
  } sources[] = {
      {&source_, {RowSpan(), RowSpan::Range(5, 47), RowSpan(&ids_)}},
      {&big_,
       {RowSpan(), RowSpan::Range(kB - 20, kB + 30), RowSpan(&big_ids_)}},
      {&special_,
       {RowSpan(), RowSpan::Range(kB - 20, kB + 30), RowSpan(&big_ids_)}},
  };
  size_t sat_cells = 0;
  size_t unsat_cells = 0;
  for (const auto& source : sources) {
    const Table& table = *source.table;
    for (const std::string agg :
         {"COUNT(*)", "COUNT(v)", "SUM(v)", "SUM(w)", "MAX(day)"}) {
      for (const char* condition : kConditions) {
        const AggregateQuery q = Query(agg, condition);
        SCOPED_TRACE(agg + condition);
        const auto bindings = Reformulator::BindAll(q, pmapping_, table);
        ASSERT_TRUE(bindings.ok()) << bindings.status().ToString();
        const auto scan = TupleScan::Bind(q, q.func, pmapping_, table);
        ASSERT_TRUE(scan.ok()) << scan.status().ToString();
        for (const RowSpan& span : source.spans) {
          const std::vector<oracle::Row> expected =
              oracle::Scan(*bindings, table, span);
          size_t seen = 0;
          ExecContext ctx;
          ASSERT_TRUE(scan->Run(span, &ctx, [&](const TupleBlock& block) {
                            ExpectBlockMatchesOracle(
                                block, expected, scan->probabilities(), seen,
                                &sat_cells, &unsat_cells);
                            seen += block.size();
                          }).ok());
          EXPECT_EQ(seen, expected.size());
          EXPECT_EQ(ctx.steps(), expected.size() * bindings->size());
        }
      }
    }
  }
  // Both outcomes are well represented across the conditions.
  EXPECT_GT(sat_cells, 1000u);
  EXPECT_GT(unsat_cells, 1000u);
}

// Mappings whose bindings compile to the same nodes share one block
// evaluation; the rows are the per-row oracle's either way.
TEST_F(TupleScanTest, MappingsThatBindTheSameColumnsShareOnePredicate) {
  struct Case {
    const char* condition;
    size_t predicates;
  };
  const Case cases[] = {
      {"", 1},                    // TRUE under every mapping
      {" WHERE id < 500", 1},     // id is certain
      {" WHERE w > 3", 2},        // b, a, b: mappings 0 and 2 share
      {" WHERE day >= '2008-1-10' AND name <> 'y'", 3},  // (d,s) (e,t) (d,t)
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.condition);
    const AggregateQuery q = Query("SUM(v)", c.condition);
    const auto bindings = Reformulator::BindAll(q, pmapping_, big_);
    ASSERT_TRUE(bindings.ok());
    const auto scan = TupleScan::Bind(q, q.func, pmapping_, big_);
    ASSERT_TRUE(scan.ok());
    EXPECT_EQ(scan->num_predicates(), c.predicates);
    const auto& b = *bindings;
    EXPECT_EQ(b[0].predicate == b[2].predicate, c.predicates < 3);
    EXPECT_EQ(b[0].predicate == b[1].predicate, c.predicates == 1);
    size_t sat_cells = 0;
    size_t unsat_cells = 0;
    for (const RowSpan& span : {RowSpan(), RowSpan(&big_ids_)}) {
      const std::vector<oracle::Row> expected = oracle::Scan(b, big_, span);
      size_t seen = 0;
      ASSERT_TRUE(scan->Run(span, nullptr, [&](const TupleBlock& block) {
                        ExpectBlockMatchesOracle(block, expected,
                                                 scan->probabilities(), seen,
                                                 &sat_cells, &unsat_cells);
                        seen += block.size();
                      }).ok());
      EXPECT_EQ(seen, expected.size());
    }
    EXPECT_GT(sat_cells, 0u);
  }
}

TEST_F(TupleScanTest, SubSpansConcatenateToTheWhole) {
  const AggregateQuery q = Query("SUM(v)", kConditions[2]);
  const auto scan = TupleScan::Bind(q, q.func, pmapping_, source_);
  ASSERT_TRUE(scan.ok());
  for (const RowSpan& span : {RowSpan(), RowSpan(&ids_)}) {
    const size_t n = span.size(kRows);
    // Each row's index and largest satisfying value, appended to `out`.
    auto append_to = [](std::vector<std::pair<size_t, double>>* out) {
      return [out](const TupleBlock& block) {
        const double* const vmax = block.Extremes().vmax;
        for (size_t i = 0; i < block.size(); ++i) {
          out->emplace_back(block.row(i), vmax[i]);
        }
      };
    };
    std::vector<std::pair<size_t, double>> whole;
    ASSERT_TRUE(scan->Run(span, nullptr, append_to(&whole)).ok());
    ASSERT_EQ(whole.size(), n);
    std::vector<std::pair<size_t, double>> pieces;
    for (size_t begin = 0; begin < n; begin += 7) {
      const size_t end = std::min(n, begin + 7);
      ExecContext ctx;
      ASSERT_TRUE(
          scan->Run(span.Sub(begin, end), &ctx, append_to(&pieces)).ok());
      EXPECT_EQ(ctx.steps(), (end - begin) * scan->num_mappings());
    }
    EXPECT_EQ(pieces, whole);
  }
}

TEST_F(TupleScanTest, ChargesTheWholeSpanBeforeEvaluating) {
  const AggregateQuery q = Query("COUNT(*)", kConditions[1]);
  const auto scan = TupleScan::Bind(q, q.func, pmapping_, source_);
  ASSERT_TRUE(scan.ok());
  ExecLimits limits;
  limits.max_steps = kRows * scan->num_mappings() - 1;
  ExecContext ctx(limits);
  size_t folded = 0;
  const Status s = scan->Run({}, &ctx, [&](const TupleBlock&) { ++folded; });
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(folded, 0u);
}

// The block kernels of the range and expected-value cells, and the CLT
// moments, against their per-row folds, bit for bit (NaN, signed zeros and
// infinities included), with the steps charged: every span shape, blocks
// ending mid-span.
TEST_F(TupleScanTest, BlockKernelsMatchThePerRowFolds) {
  constexpr size_t kB = BoundPredicate::kBlock;
  const std::vector<uint32_t> big_all_ids = AllIds(kBigRows);
  const std::vector<RowSpan> spans = {
      RowSpan(), RowSpan::Range(kB - 1, kBigRows), RowSpan::Range(3, kB + 4),
      RowSpan(&big_ids_), RowSpan(&big_all_ids)};
  size_t compared = 0;
  for (const Table* table : {&big_, &special_}) {
    for (const char* condition : kConditions) {
      for (const char* attribute : {"v", "w", "day"}) {
        auto query = [&](const char* func) {
          return Query(std::string(func) + "(" + attribute + ")", condition);
        };
        // SUM and AVG take int64 and double attributes, not dates.
        const bool numeric = std::string(attribute) != "day";
        const AggregateQuery sum = query("SUM");
        const AggregateQuery max = query("MAX");
        SCOPED_TRACE(std::string(attribute) + condition);
        const auto bindings = Reformulator::BindAll(max, pmapping_, *table);
        ASSERT_TRUE(bindings.ok()) << bindings.status().ToString();
        const std::vector<double> prob =
            TupleScan::Bind(max, max.func, pmapping_, *table)
                ->probabilities();
        for (const RowSpan& span : spans) {
          const std::vector<oracle::Row> rows =
              oracle::Scan(*bindings, *table, span);
          const uint64_t steps = rows.size() * prob.size();
          auto same = [&](const char* name, auto got, const auto& want,
                          const ExecContext& ctx) {
            SCOPED_TRACE(name);
            EXPECT_EQ(ctx.steps(), steps);
            ASSERT_EQ(got.ok(), want.ok()) << got.status().ToString();
            if (got.ok()) {
              EXPECT_TRUE(oracle::SameBits(*got, *want))
                  << ::testing::PrintToString(*got) << " vs "
                  << ::testing::PrintToString(*want);
            }
            ++compared;
          };
          const PMapping& pm = pmapping_;
          const Table& t = *table;
          ExecContext c[11];
          same("CountRange", ByTupleCount::Range(query("COUNT"), pm, t, span,
                                                 &c[0]),
               Result<Interval>(oracle::RangeCount(rows)), c[0]);
          same("CountExpected",
               ByTupleCount::Expected(query("COUNT"), pm, t, span, &c[1]),
               Result<double>(oracle::ExpectedCount(rows, prob)), c[1]);
          same("RangeMin",
               ByTupleMinMax::RangeMin(query("MIN"), pm, t, span, &c[6]),
               oracle::RangeExtremum(rows, /*max=*/false), c[6]);
          same("RangeMax", ByTupleMinMax::RangeMax(max, pm, t, span, &c[7]),
               oracle::RangeExtremum(rows, /*max=*/true), c[7]);
          same("ApproxCount",
               ByTupleCLT::ApproxCount(query("COUNT"), pm, t, span, &c[8]),
               Result<NormalApproximation>(oracle::CltCount(rows)), c[8]);
          if (!numeric) continue;
          same("ApproxSum", ByTupleCLT::ApproxSum(sum, pm, t, span, &c[9]),
               Result<NormalApproximation>(oracle::CltSum(rows, prob)), c[9]);
          same("ApproxAvgExpectation",
               ByTupleCLT::ApproxAvgExpectation(query("AVG"), pm, t, span,
                                                1.0, &c[10]),
               oracle::CltAvg(rows, prob, 1.0), c[10]);
          same("RangeSum", ByTupleSum::RangeSum(sum, pm, t, span, &c[2]),
               Result<Interval>(oracle::RangeSum(rows)), c[2]);
          same("ExpectedSumLinear",
               ByTupleSum::ExpectedSumLinear(sum, pm, t, span, &c[3]),
               Result<double>(oracle::ExpectedSum(rows, prob)), c[3]);
          same("RangeAvgPaper",
               ByTupleSum::RangeAvgPaper(query("AVG"), pm, t, span, &c[4]),
               oracle::RangeAvgPaper(rows), c[4]);
          same("RangeAvgExact",
               ByTupleSum::RangeAvgExact(query("AVG"), pm, t, span, &c[5]),
               oracle::RangeAvgExact(rows), c[5]);
        }
      }
    }
  }
  EXPECT_GT(compared, 1000u);
}

// By-table answers against the per-mapping executor loop
// (`oracle::ByTableAnswer`): the five aggregates, COUNT/SUM/AVG(DISTINCT)
// included, under the three semantics, over double, int64 and date
// attributes of the edge-value table (NaN, -0.0, +-inf, subnormals,
// NULLs). Bit for bit, with the same status where an aggregate does not
// bind or is undefined under some candidate, and rows x mappings steps.
// The DISTINCT queries also go through `Engine::Answer`.
TEST_F(TupleScanTest, ByTableMatchesThePerMappingExecutorLoop) {
  std::vector<const char*> conditions(std::begin(kConditions),
                                      std::end(kConditions));
  conditions.push_back(" WHERE v > 9");   // empty under mapping 2 only
  conditions.push_back(" WHERE id < 0");  // empty under every mapping
  const Engine engine;
  size_t answered = 0;
  size_t undefined = 0;
  size_t unbound = 0;
  for (const Table* table : {&big_, &special_}) {
    const uint64_t steps = table->num_rows() * pmapping_.size();
    for (const char* condition : conditions) {
      std::vector<std::string> aggs = {"COUNT(*)"};
      for (const char* func : {"COUNT", "SUM", "AVG", "MIN", "MAX"}) {
        // v: double, double, int64 under the three mappings; id: int64.
        for (const char* attribute : {"v", "w", "day", "id"}) {
          for (const char* distinct : {"", "DISTINCT "}) {
            aggs.push_back(std::string(func) + "(" + distinct + attribute +
                           ")");
          }
        }
      }
      for (const std::string& agg : aggs) {
        const AggregateQuery q = Query(agg, condition);
        SCOPED_TRACE(agg + condition);
        bool nan_result = false;
        for (const AggregateSemantics semantics :
             {AggregateSemantics::kDistribution, AggregateSemantics::kRange,
              AggregateSemantics::kExpectedValue}) {
          // A NaN per-mapping scalar (SUM over inf and -inf, say) makes an
          // inverted range, which `MakeRange` refuses with an abort.
          if (semantics == AggregateSemantics::kRange && nan_result) continue;
          ExecContext want_ctx;
          const Result<AggregateAnswer> want =
              oracle::ByTableAnswer(q, pmapping_, *table, semantics,
                                    &want_ctx);
          ExecContext ctx;
          const Result<AggregateAnswer> got =
              ByTable::Answer(q, pmapping_, *table, semantics, &ctx);
          ASSERT_EQ(got.status().ToString(), want.status().ToString());
          if (!got.ok()) {
            const bool is_undefined =
                got.status().message().find("is undefined") !=
                std::string::npos;
            ++(is_undefined ? undefined : unbound);
            continue;
          }
          ++answered;
          for (const Distribution::Entry& e : want->distribution.entries()) {
            nan_result = nan_result || std::isnan(e.outcome);
          }
          EXPECT_TRUE(oracle::SameBits(*got, *want))
              << got->ToString() << " vs " << want->ToString();
          EXPECT_EQ(ctx.steps(), steps);
          EXPECT_EQ(want_ctx.steps(), steps);
          if (!q.distinct) continue;
          const Result<AggregateAnswer> served = engine.Answer(
              q, pmapping_, *table, MappingSemantics::kByTable, semantics);
          ASSERT_TRUE(served.ok()) << served.status().ToString();
          EXPECT_TRUE(oracle::SameBits(*served, *want));
          EXPECT_EQ(served->stats.steps, steps);
        }
      }
    }
  }
  EXPECT_GT(answered, 1000u);
  EXPECT_GT(undefined, 10u);
  EXPECT_GT(unbound, 10u);  // SUM and AVG of a date
}

TEST_F(TupleScanTest, BindChecksAggregateAndDistinctPolicy) {
  auto bind_code = [&](const char* agg, AggregateFunction func) {
    return TupleScan::Bind(Query(agg, ""), func, pmapping_, source_)
        .status()
        .code();
  };
  EXPECT_EQ(bind_code("SUM(v)", AggregateFunction::kCount),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(bind_code("COUNT(DISTINCT v)", AggregateFunction::kCount),
            StatusCode::kUnimplemented);
  EXPECT_EQ(bind_code("SUM(DISTINCT v)", AggregateFunction::kSum),
            StatusCode::kUnimplemented);
  EXPECT_EQ(bind_code("AVG(DISTINCT v)", AggregateFunction::kAvg),
            StatusCode::kUnimplemented);
  EXPECT_EQ(bind_code("MIN(DISTINCT v)", AggregateFunction::kMin),
            StatusCode::kOk);
  EXPECT_EQ(bind_code("MAX(DISTINCT v)", AggregateFunction::kMax),
            StatusCode::kOk);
}

// Bit-for-bit comparison of two kernel results, status included.
void ExpectIdentical(const Interval& a, const Interval& b) {
  EXPECT_EQ(a.low, b.low);
  EXPECT_EQ(a.high, b.high);
}
void ExpectIdentical(double a, double b) { EXPECT_EQ(a, b); }
void ExpectIdentical(const Distribution& a, const Distribution& b) {
  EXPECT_TRUE(a == b) << a.ToString() << " vs " << b.ToString();
}
void ExpectIdentical(const NaiveAnswer& a, const NaiveAnswer& b) {
  ExpectIdentical(a.distribution, b.distribution);
  EXPECT_EQ(a.undefined_mass, b.undefined_mass);
}
void ExpectIdentical(const NormalApproximation& a,
                     const NormalApproximation& b) {
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.variance, b.variance);
}
template <typename T>
void ExpectIdentical(const Result<T>& a, const Result<T>& b) {
  ASSERT_EQ(a.status().code(), b.status().code()) << a.status().ToString();
  if (a.ok()) ExpectIdentical(*a, *b);
}

// Every kernel, on the whole table, as a contiguous range and as an id
// list of every row: same answer bits and the same charged steps. On the
// small source and on big_, where the blocks end mid-table.
TEST_F(TupleScanTest, EveryKernelIsIdenticalOnEverySpanShape) {
  const std::vector<uint32_t> big_all_ids = AllIds(kBigRows);
  size_t answered = 0;
  size_t failed = 0;
  for (const Table* source : {&source_, &big_}) {
    const size_t rows = source->num_rows();
    const std::vector<RowSpan> spans = {
        RowSpan(), RowSpan::Range(0, rows),
        RowSpan(source == &big_ ? &big_all_ids : &all_ids_)};
    auto check = [&](const std::string& name, auto kernel) {
      SCOPED_TRACE(name);
      ExecContext base_ctx;
      const auto base = kernel(spans[0], &base_ctx);
      ++(base.ok() ? answered : failed);
      for (size_t i = 1; i < spans.size(); ++i) {
        ExecContext ctx;
        ExpectIdentical(base, kernel(spans[i], &ctx));
        EXPECT_EQ(ctx.steps(), base_ctx.steps());
      }
    };
    const QuantizedDistOptions quantized;
    for (const char* condition : kConditions) {
      SCOPED_TRACE(condition);
      const AggregateQuery count = Query("COUNT(v)", condition);
      const AggregateQuery sum = Query("SUM(v)", condition);
      const AggregateQuery avg = Query("AVG(v)", condition);
      const AggregateQuery min = Query("MIN(v)", condition);
      const AggregateQuery max = Query("MAX(v)", condition);
      const PMapping& pm = pmapping_;
      const Table& t = *source;
      check("CountRange", [&](RowSpan s, ExecContext* c) {
        return ByTupleCount::Range(count, pm, t, s, c);
      });
      check("CountDist", [&](RowSpan s, ExecContext* c) {
        return ByTupleCount::Dist(count, pm, t, s, c);
      });
      check("CountExpected", [&](RowSpan s, ExecContext* c) {
        return ByTupleCount::Expected(count, pm, t, s, c);
      });
      check("RangeSum", [&](RowSpan s, ExecContext* c) {
        return ByTupleSum::RangeSum(sum, pm, t, s, c);
      });
      check("ExpectedSumLinear", [&](RowSpan s, ExecContext* c) {
        return ByTupleSum::ExpectedSumLinear(sum, pm, t, s, c);
      });
      check("DistQuantized", [&](RowSpan s, ExecContext* c) {
        return ByTupleSum::DistQuantized(sum, pm, t, quantized, s, c);
      });
      check("RangeAvgPaper", [&](RowSpan s, ExecContext* c) {
        return ByTupleSum::RangeAvgPaper(avg, pm, t, s, c);
      });
      check("RangeAvgExact", [&](RowSpan s, ExecContext* c) {
        return ByTupleSum::RangeAvgExact(avg, pm, t, s, c);
      });
      if (source == &source_) {  // O(n^2 * buckets): small source only
        check("DistAvgQuantized", [&](RowSpan s, ExecContext* c) {
          return ByTupleSum::DistAvgQuantized(avg, pm, t, quantized, s, c);
        });
      }
      check("RangeMin", [&](RowSpan s, ExecContext* c) {
        return ByTupleMinMax::RangeMin(min, pm, t, s, c);
      });
      check("RangeMax", [&](RowSpan s, ExecContext* c) {
        return ByTupleMinMax::RangeMax(max, pm, t, s, c);
      });
      check("DistMin", [&](RowSpan s, ExecContext* c) {
        return ByTupleMinMax::DistMin(min, pm, t, s, c);
      });
      check("DistMax", [&](RowSpan s, ExecContext* c) {
        return ByTupleMinMax::DistMax(max, pm, t, s, c);
      });
      check("ExpectedMin", [&](RowSpan s, ExecContext* c) {
        return ByTupleMinMax::ExpectedMin(min, pm, t, s, c);
      });
      check("ExpectedMax", [&](RowSpan s, ExecContext* c) {
        return ByTupleMinMax::ExpectedMax(max, pm, t, s, c);
      });
      check("ApproxSum", [&](RowSpan s, ExecContext* c) {
        return ByTupleCLT::ApproxSum(sum, pm, t, s, c);
      });
      check("ApproxCount", [&](RowSpan s, ExecContext* c) {
        return ByTupleCLT::ApproxCount(count, pm, t, s, c);
      });
      check("ApproxAvgExpectation", [&](RowSpan s, ExecContext* c) {
        return ByTupleCLT::ApproxAvgExpectation(avg, pm, t, s, 1.0, c);
      });
    }
  }
  // Mostly answers, and some well-formed failures (an expected MIN/MAX
  // that is undefined with positive probability).
  EXPECT_GT(answered, 100u);
  EXPECT_GT(failed, 0u);
}

// The COUNT occurrence pass runs one scan per ParallelFor chunk of 4096
// rows; with several chunks in flight the answer and the charged steps
// match the serial pass (and TSan sees the concurrent scans).
TEST_F(TupleScanTest, ChunkedOccurrencePassMatchesAcrossThreads) {
  const Table big = MakeSource(2 * 4096 + 517);
  const AggregateQuery q = Query("COUNT(v)", kConditions[3]);
  const std::vector<uint32_t> odd = [&] {
    std::vector<uint32_t> ids;
    for (uint32_t r = 1; r < big.num_rows(); r += 2) ids.push_back(r);
    return ids;
  }();
  for (const RowSpan& span :
       {RowSpan(), RowSpan::Range(100, big.num_rows()), RowSpan(&odd)}) {
    ExecContext serial_ctx;
    const auto serial =
        ByTupleCount::Dist(q, pmapping_, big, span, &serial_ctx);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (const int threads : {2, 4}) {
      ExecContext ctx;
      const auto parallel = ByTupleCount::Dist(q, pmapping_, big, span, &ctx,
                                               exec::ExecPolicy{threads});
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      EXPECT_TRUE(*parallel == *serial) << "threads=" << threads;
      EXPECT_EQ(ctx.steps(), serial_ctx.steps()) << "threads=" << threads;
    }
  }
}

TEST_F(TupleScanTest, GridMatchesTheScan) {
  const AggregateQuery q = Query("AVG(v)", kConditions[5]);
  const auto grid = BuildTupleMappingGrid(q, pmapping_, source_, &ids_);
  ASSERT_TRUE(grid.ok()) << grid.status().ToString();
  ASSERT_EQ(grid->n, ids_.size());
  const auto scan = TupleScan::Bind(q, q.func, pmapping_, source_);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(grid->prob, scan->probabilities());
  const auto bindings = Reformulator::BindAll(q, pmapping_, source_);
  ASSERT_TRUE(bindings.ok());
  const std::vector<oracle::Row> rows =
      oracle::Scan(*bindings, source_, &ids_);
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t j = 0; j < grid->m; ++j) {
      EXPECT_EQ(grid->Sat(i, j), rows[i].sat[j] != 0);
      EXPECT_TRUE(oracle::SameBits(grid->Val(i, j), rows[i].value[j]));
    }
  }
  const auto distinct = BuildTupleMappingGrid(Query("SUM(DISTINCT v)", ""),
                                              pmapping_, source_, {});
  EXPECT_EQ(distinct.status().code(), StatusCode::kUnimplemented);
}

}  // namespace
}  // namespace aqua
