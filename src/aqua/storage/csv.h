#ifndef AQUA_STORAGE_CSV_H_
#define AQUA_STORAGE_CSV_H_

#include <iosfwd>
#include <string>

#include "aqua/common/result.h"
#include "aqua/storage/table.h"

namespace aqua {

/// Minimal CSV bridge for moving fixtures and generated workloads in and
/// out of the engine.
///
/// Dialect: comma separator, optional double-quote quoting with `""`
/// escapes, first line is a header of attribute names. Typed parsing is
/// driven by an explicit schema; the empty unquoted field is NULL.
class Csv {
 public:
  /// Parses CSV text against `schema`. The header must name exactly the
  /// schema's attributes (case-insensitive, any order); columns are
  /// reordered to schema order. A UTF-8 byte-order mark before the header
  /// and CRLF line endings (including on the header row) are tolerated.
  static Result<Table> Parse(std::string_view text, const Schema& schema);

  /// Reads and parses the file at `path` (failpoint
  /// `storage/csv/read-file`).
  static Result<Table> ReadFile(const std::string& path,
                                const Schema& schema);

  /// Serialises `table` (header + rows). Strings are quoted only when they
  /// contain the separator, quotes, or newlines; NULL serialises as the
  /// empty field; dates as ISO "YYYY-MM-DD".
  static std::string Format(const Table& table);

  /// Writes `Format(table)` to `path` (failpoint `storage/csv/write-file`).
  static Status WriteFile(const Table& table, const std::string& path);
};

}  // namespace aqua

#endif  // AQUA_STORAGE_CSV_H_
