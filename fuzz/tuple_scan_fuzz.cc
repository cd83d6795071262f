// Differential libFuzzer harness for the block-at-a-time scan: the input
// is a WHERE clause. Whenever it binds under a two-mapping p-mapping over
// the edge-value table (NULLs in every column; NaN, +-0.0, +-inf and
// subnormal doubles), every block kernel must match its per-row fold in
// tests/core/tuple_scan_oracle.h bit for bit (a NaN matching any NaN), and
// charge rows x mappings steps: the range and expected COUNT, SUM and AVG
// folds and the MIN/MAX extremes, over a double, an int64 and a date
// attribute, plus each block's columns and summaries. Spans: the whole
// table, ranges and id lists with repeats of kBlock - 1, kBlock and
// kBlock + 1 rows. By-table answers, DISTINCT included, must match the
// per-mapping executor loop there, statuses included. A disagreement
// aborts through AQUA_CHECK. Seeded from fuzz/corpus/predicate.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "aqua/common/check.h"
#include "aqua/core/by_table.h"
#include "aqua/core/by_tuple_count.h"
#include "aqua/core/by_tuple_minmax.h"
#include "aqua/core/by_tuple_sum.h"
#include "aqua/core/tuple_scan.h"
#include "aqua/query/parser.h"
#include "edge_table.h"
#include "tuple_scan_oracle.h"

namespace {

using namespace aqua;

constexpr size_t kBlock = BoundPredicate::kBlock;

const Table& FixedTable() {
  static const Table* table = new Table(fuzz::MakeEdgeTable(kBlock + 61));
  return *table;
}

// The certain attributes map to themselves; `price` and `listPrice` swap
// under the second mapping.
const PMapping& TwoMappings() {
  static const PMapping* pmapping = [] {
    auto mapping = [](const char* price, const char* list_price) {
      return *RelationMapping::Make(
          "S", "T",
          {{"auctionId", "auctionId"}, {price, "price"},
           {"timeUpdate", "timeUpdate"}, {"phone", "phone"},
           {"date", "date"}, {list_price, "listPrice"}});
    };
    return new PMapping(*PMapping::Make(
        {{mapping("price", "listPrice"), 0.7},
         {mapping("listPrice", "price"), 0.3}}));
  }();
  return *pmapping;
}

// Id lists of `n` rows in a scrambled order, with repeats.
std::vector<uint32_t> Scrambled(size_t n, size_t rows) {
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < n; ++i) {
    ids.push_back(static_cast<uint32_t>((i * 7 + i / 3) % rows));
  }
  return ids;
}

template <typename T>
void CheckSame(const char* kernel, const std::string& query,
               const Result<T>& got, const Result<T>& want) {
  AQUA_CHECK(got.ok() == want.ok())
      << kernel << " fails on one side only for " << query << ": "
      << got.status().ToString() << " vs " << want.status().ToString();
  if (got.ok()) {
    AQUA_CHECK(oracle::SameBits(*got, *want))
        << kernel << " differs from its per-row fold for " << query;
  }
}

// The blocks of `span` against the oracle's rows: sat, masked value and
// the any/all/occ/vmin/vmax summaries of every row.
void CheckBlocks(const TupleScan& scan, const std::vector<oracle::Row>& rows,
                 RowSpan span, const std::string& query) {
  size_t seen = 0;
  const Status s = scan.Run(span, nullptr, [&](const TupleBlock& block) {
    const TupleBlock::Summary e = block.Extremes();
    double occ[kBlock];
    block.Occ(occ);
    for (size_t i = 0; i < block.size(); ++i, ++seen) {
      const oracle::Row& o = rows[seen];
      AQUA_CHECK(block.row(i) == o.row);
      for (size_t j = 0; j < block.m(); ++j) {
        const uint8_t sat = block.sat(j)[i];
        AQUA_CHECK(sat == o.sat[j] &&
                   oracle::SameBits(
                       TupleBlock::Select(sat, block.value(j)[i], 0.0),
                       o.value[j]))
            << "row " << o.row << " mapping " << j << " of " << query;
      }
      AQUA_CHECK(e.any[i] == (o.any() ? 1 : 0) &&
                 e.all[i] == (o.all() ? 1 : 0) &&
                 oracle::SameBits(occ[i], o.occ) &&
                 oracle::SameBits(e.vmin[i], o.vmin) &&
                 oracle::SameBits(e.vmax[i], o.vmax))
          << "summaries of row " << o.row << " of " << query;
    }
  });
  AQUA_CHECK(s.ok() && seen == rows.size()) << query;
}

// By-table answers against the per-mapping executor loop: every aggregate,
// with and without DISTINCT, under the three semantics. Same status, same
// bits and rows x mappings steps.
void CheckByTable(const std::string& where, const char* attribute) {
  const Table& table = FixedTable();
  const PMapping& pm = TwoMappings();
  const uint64_t steps = table.num_rows() * pm.size();
  for (const char* func : {"COUNT", "SUM", "AVG", "MIN", "MAX"}) {
    for (const char* distinct : {"", "DISTINCT "}) {
      const Result<AggregateQuery> parsed = SqlParser::ParseSimple(
          "SELECT " + std::string(func) + "(" + distinct + attribute +
          ") FROM T WHERE " + where);
      // The input may carry a GROUP BY; ByTable::Answer takes none.
      if (!parsed.ok() || !parsed->group_by.empty()) return;
      const AggregateQuery& q = *parsed;
      const std::string text = q.ToString();
      bool nan_result = false;
      for (const AggregateSemantics semantics :
           {AggregateSemantics::kDistribution, AggregateSemantics::kRange,
            AggregateSemantics::kExpectedValue}) {
        // A NaN per-mapping scalar makes an inverted range, which
        // `MakeRange` refuses with an abort.
        if (semantics == AggregateSemantics::kRange && nan_result) continue;
        ExecContext want_ctx;
        const Result<AggregateAnswer> want =
            oracle::ByTableAnswer(q, pm, table, semantics, &want_ctx);
        ExecContext ctx;
        const Result<AggregateAnswer> got =
            ByTable::Answer(q, pm, table, semantics, &ctx);
        AQUA_CHECK(got.status().ToString() == want.status().ToString())
            << "ByTable::Answer fails differently for " << text << ": "
            << got.status().ToString() << " vs " << want.status().ToString();
        if (!got.ok()) continue;
        for (const Distribution::Entry& e : want->distribution.entries()) {
          nan_result = nan_result || std::isnan(e.outcome);
        }
        AQUA_CHECK(oracle::SameBits(*got, *want))
            << "ByTable::Answer differs from the executor loop for " << text;
        AQUA_CHECK(ctx.steps() == steps) << "ByTable::Answer charged "
                                         << ctx.steps() << " for " << text;
      }
    }
  }
}

void CheckKernels(const std::string& where, const char* attribute,
                  RowSpan span) {
  const Table& table = FixedTable();
  const PMapping& pm = TwoMappings();
  auto query = [&](const char* func) {
    return *SqlParser::ParseSimple("SELECT " + std::string(func) + "(" +
                                   attribute + ") FROM T WHERE " + where);
  };
  const AggregateQuery max = query("MAX");
  const Result<std::vector<Reformulator::MappingBinding>> bindings =
      Reformulator::BindAll(max, pm, table);
  if (!bindings.ok()) return;
  const std::vector<oracle::Row> rows = oracle::Scan(*bindings, table, span);
  const Result<TupleScan> scan = TupleScan::Bind(max, max.func, pm, table);
  AQUA_CHECK(scan.ok()) << scan.status().ToString();
  const std::string text = max.ToString();
  CheckBlocks(*scan, rows, span, text);

  const std::vector<double>& prob = scan->probabilities();
  const uint64_t steps = rows.size() * prob.size();
  auto check = [&](const char* kernel, auto&& run, const auto& want) {
    ExecContext ctx;
    CheckSame(kernel, text, run(&ctx), want);
    AQUA_CHECK(ctx.steps() == steps) << kernel << " charged " << ctx.steps();
  };
  const AggregateQuery count = query("COUNT");
  check("ByTupleCount::Range",
        [&](ExecContext* c) {
          return ByTupleCount::Range(count, pm, table, span, c);
        },
        Result<Interval>(oracle::RangeCount(rows)));
  check("ByTupleCount::Expected",
        [&](ExecContext* c) {
          return ByTupleCount::Expected(count, pm, table, span, c);
        },
        Result<double>(oracle::ExpectedCount(rows, prob)));
  check("ByTupleMinMax::RangeMax",
        [&](ExecContext* c) {
          return ByTupleMinMax::RangeMax(max, pm, table, span, c);
        },
        oracle::RangeExtremum(rows, /*max=*/true));
  const AggregateQuery min = query("MIN");
  check("ByTupleMinMax::RangeMin",
        [&](ExecContext* c) {
          return ByTupleMinMax::RangeMin(min, pm, table, span, c);
        },
        oracle::RangeExtremum(rows, /*max=*/false));
  if (std::string(attribute) == "date") return;  // SUM/AVG take numbers
  const AggregateQuery sum = query("SUM");
  const AggregateQuery avg = query("AVG");
  check("ByTupleSum::RangeSum",
        [&](ExecContext* c) {
          return ByTupleSum::RangeSum(sum, pm, table, span, c);
        },
        Result<Interval>(oracle::RangeSum(rows)));
  check("ByTupleSum::ExpectedSumLinear",
        [&](ExecContext* c) {
          return ByTupleSum::ExpectedSumLinear(sum, pm, table, span, c);
        },
        Result<double>(oracle::ExpectedSum(rows, prob)));
  check("ByTupleSum::RangeAvgPaper",
        [&](ExecContext* c) {
          return ByTupleSum::RangeAvgPaper(avg, pm, table, span, c);
        },
        oracle::RangeAvgPaper(rows));
  check("ByTupleSum::RangeAvgExact",
        [&](ExecContext* c) {
          return ByTupleSum::RangeAvgExact(avg, pm, table, span, c);
        },
        oracle::RangeAvgExact(rows));
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string where(reinterpret_cast<const char*>(data), size);
  const Result<AggregateQuery> parsed =
      SqlParser::ParseSimple("SELECT COUNT(*) FROM T WHERE " + where);
  if (!parsed.ok() || parsed->where == nullptr) return 0;
  const size_t rows = FixedTable().num_rows();
  static const std::vector<std::vector<uint32_t>> id_lists = {
      Scrambled(kBlock - 1, rows), Scrambled(kBlock, rows),
      Scrambled(kBlock + 1, rows)};
  std::vector<RowSpan> spans = {RowSpan(), RowSpan::Range(0, kBlock - 1),
                                RowSpan::Range(3, 3 + kBlock),
                                RowSpan::Range(rows - kBlock - 1, rows)};
  for (const std::vector<uint32_t>& ids : id_lists) spans.emplace_back(&ids);
  for (const char* attribute : {"price", "auctionId", "date"}) {
    for (const RowSpan& span : spans) CheckKernels(where, attribute, span);
    CheckByTable(where, attribute);
  }
  return 0;
}
