// Differential libFuzzer harness for the block predicate evaluator: the
// input is a WHERE clause. Whenever it parses and binds against a fixed
// table that has NULLs in every column type, `BoundPredicate::MatchBlock`
// must agree with the per-row `Matches` on every row, over contiguous
// blocks of several lengths and over an unsorted id list with repeats.
// A disagreement aborts through AQUA_CHECK. The seeds in
// fuzz/corpus/predicate are the clause shapes of the loadbench `scan`
// (eBay) and `small` (real-estate) workloads.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "aqua/common/check.h"
#include "aqua/query/parser.h"
#include "edge_table.h"

namespace {

const aqua::Table& FixedTable() {
  static const aqua::Table* table =
      new aqua::Table(aqua::fuzz::MakeEdgeTable(37));
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
