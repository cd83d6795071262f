// Differential libFuzzer harness for the block predicate evaluator: the
// input is a WHERE clause. Whenever it parses and binds against a fixed
// table that has NULLs in every column type, `BoundPredicate::MatchBlock`
// must agree with the per-row `Matches` on every row, over contiguous
// blocks of several lengths and over an unsorted id list with repeats.
// A disagreement aborts through AQUA_CHECK. The seeds in
// fuzz/corpus/predicate are the clause shapes of the loadbench `scan`
// (eBay) and `small` (real-estate) workloads.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "aqua/common/check.h"
#include "aqua/query/parser.h"
#include "aqua/storage/table_builder.h"

namespace {

using aqua::Value;

// 37 rows cycling through edge values, each column NULL on its own
// stride: the attribute names of both workloads' target relations.
const aqua::Table& FixedTable() {
  static const aqua::Table* table = [] {
    const double nan = std::nan("");
    const double inf = std::numeric_limits<double>::infinity();
    const double doubles[] = {0.0, -0.0, 150.25, -3.5, nan, inf, 1e-310};
    const int64_t big = (int64_t{1} << 53) + 1;
    const int64_t max = std::numeric_limits<int64_t>::max();
    const int64_t ints[] = {0, 1, -1, 500, big, -7, max};
    const char* const phones[] = {"", "555", "555-1", "555-12", "9"};
    aqua::TableBuilder builder(*aqua::Schema::Make(
        {{"auctionId", aqua::ValueType::kInt64},
         {"price", aqua::ValueType::kDouble},
         {"timeUpdate", aqua::ValueType::kDouble},
         {"phone", aqua::ValueType::kString},
         {"date", aqua::ValueType::kDate},
         {"listPrice", aqua::ValueType::kDouble}}));
    for (size_t r = 0; r < 37; ++r) {
      auto cell = [&](size_t stride, Value v) {
        return r % stride == 1 ? Value::Null() : std::move(v);
      };
      const aqua::Status s = builder.AppendRow(
          {cell(5, Value::Int64(ints[r % std::size(ints)])),
           cell(4, Value::Double(doubles[r % std::size(doubles)])),
           cell(6, Value::Double(0.25 * static_cast<double>(r % 13))),
           cell(3, Value::String(phones[r % std::size(phones)])),
           cell(7, Value::FromDate(*aqua::Date::FromYmd(
                       2008, 1, static_cast<int>(1 + r % 28)))),
           cell(8, Value::Double(doubles[(r * 3) % std::size(doubles)]))});
      AQUA_CHECK(s.ok()) << s.ToString();
    }
    return new aqua::Table(*std::move(builder).Finish());
  }();
  return *table;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string sql =
      "SELECT COUNT(*) FROM T WHERE " +
      std::string(reinterpret_cast<const char*>(data), size);
  const aqua::Result<aqua::AggregateQuery> query =
      aqua::SqlParser::ParseSimple(sql);
  if (!query.ok() || query->where == nullptr) return 0;
  const aqua::Table& table = FixedTable();
  const aqua::Result<aqua::BoundPredicate> bound =
      aqua::BoundPredicate::Bind(query->where, table.schema());
  if (!bound.ok()) return 0;

  aqua::BoundPredicate::Scratch scratch;
  auto check = [&](const uint32_t* ids, size_t first, size_t n) {
    std::vector<uint8_t> out(n);
    bound->MatchBlock(table, ids, first, n, out.data(), &scratch);
    for (size_t i = 0; i < n; ++i) {
      const size_t row = ids != nullptr ? ids[first + i] : first + i;
      AQUA_CHECK(out[i] == (bound->Matches(table, row) ? 1 : 0))
          << "MatchBlock disagrees with Matches on row " << row << " of "
          << query->where->ToString();
    }
  };
  const size_t rows = table.num_rows();
  for (const size_t len : {size_t{1}, size_t{16}, size_t{17}, rows}) {
    for (size_t first = 0; first < rows; first += len) {
      check(nullptr, first, std::min(len, rows - first));
    }
  }
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < 2 * rows; ++i) {
    ids.push_back(static_cast<uint32_t>((i * 7 + i / 3) % rows));
  }
  check(ids.data(), 0, ids.size());
  check(ids.data(), 5, 20);
  return 0;
}
