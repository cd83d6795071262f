// The fuzz harnesses' fixed source table: rows cycling through edge values
// (NaN, +-0.0, +-inf, a subnormal, 2^53 + 1, INT64_MAX), each column NULL
// on its own stride. `price` and `listPrice` cycle out of phase, so a row
// pairs a NaN in one with a number in the other. The attribute names are
// those of both loadbench workloads' target relations, so the seed
// clauses bind unchanged.

#ifndef AQUA_FUZZ_EDGE_TABLE_H_
#define AQUA_FUZZ_EDGE_TABLE_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>

#include "aqua/common/check.h"
#include "aqua/storage/table_builder.h"

namespace aqua::fuzz {

inline Table MakeEdgeTable(size_t rows) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  const double doubles[] = {0.0, -0.0, 150.25, -3.5, nan, inf, 1e-310, -inf};
  const int64_t big = (int64_t{1} << 53) + 1;
  const int64_t max = std::numeric_limits<int64_t>::max();
  const int64_t ints[] = {0, 1, -1, 500, big, -7, max};
  const char* const phones[] = {"", "555", "555-1", "555-12", "9"};
  TableBuilder builder(*Schema::Make({{"auctionId", ValueType::kInt64},
                                      {"price", ValueType::kDouble},
                                      {"timeUpdate", ValueType::kDouble},
                                      {"phone", ValueType::kString},
                                      {"date", ValueType::kDate},
                                      {"listPrice", ValueType::kDouble}}));
  for (size_t r = 0; r < rows; ++r) {
    auto cell = [&](size_t stride, Value v) {
      return r % stride == 1 ? Value::Null() : std::move(v);
    };
    const Status s = builder.AppendRow(
        {cell(5, Value::Int64(ints[r % std::size(ints)])),
         cell(4, Value::Double(doubles[r % std::size(doubles)])),
         cell(6, Value::Double(0.25 * static_cast<double>(r % 13))),
         cell(3, Value::String(phones[r % std::size(phones)])),
         cell(7, Value::FromDate(*Date::FromYmd(
                     2008, 1, static_cast<int>(1 + r % 28)))),
         cell(8, Value::Double(doubles[(r * 5 + 2) % std::size(doubles)]))});
    AQUA_CHECK(s.ok()) << s.ToString();
  }
  return *std::move(builder).Finish();
}

}  // namespace aqua::fuzz

#endif  // AQUA_FUZZ_EDGE_TABLE_H_
