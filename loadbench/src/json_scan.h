#ifndef LOADBENCH_JSON_SCAN_H_
#define LOADBENCH_JSON_SCAN_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace loadbench {

/// One parsed JSON value. Every value keeps the exact bytes it was parsed
/// from (`raw`), so a caller can compare a sub-object byte for byte with a
/// reference rendering. `raw` views the parsed text, which must outlive it.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  std::string_view raw;
  bool boolean = false;
  double number = 0;
  std::string str;                                         // kString
  std::vector<JsonValue> items;                            // kArray
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject

  /// The member named `key` of an object, or null.
  const JsonValue* Find(std::string_view key) const;
};

/// Parses `text` as exactly one JSON value (surrounding whitespace
/// allowed). Returns nullopt on malformed syntax, trailing bytes, or
/// nesting deeper than 64 levels.
std::optional<JsonValue> ParseJson(std::string_view text);

}  // namespace loadbench

#endif  // LOADBENCH_JSON_SCAN_H_
