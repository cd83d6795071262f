#ifndef AQUA_COMMON_STRING_UTIL_H_
#define AQUA_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace aqua {

/// Splits `text` on `sep`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string_view> Split(std::string_view text, char sep);

/// Returns `text` without leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// ASCII lowercase copy.
std::string ToLower(std::string_view text);

/// Case-insensitive ASCII equality (for SQL keywords and attribute names).
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// True iff `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// printf-style float formatting with %.6g, as used in traces and benches.
std::string FormatDouble(double v);

/// Shortest decimal form that parses back to exactly `v` (std::to_chars),
/// e.g. 0.3 -> "0.3"; for numbers that must survive a text round trip.
std::string FormatDoubleRoundTrip(double v);

}  // namespace aqua

#endif  // AQUA_COMMON_STRING_UTIL_H_
