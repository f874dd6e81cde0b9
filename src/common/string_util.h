// Small string helpers shared across subsystems (parsing, CSV, explanation
// text rendering).

#ifndef ZIGGY_COMMON_STRING_UTIL_H_
#define ZIGGY_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace ziggy {

/// Removes leading and trailing ASCII whitespace.
std::string_view TrimWhitespace(std::string_view s);

/// Splits on a single character delimiter; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// ASCII lower-casing.
std::string ToLower(std::string_view s);

/// Case-insensitive ASCII comparison.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Joins elements with a separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Strict double parse of the full token, after trimming surrounding
/// whitespace: the strtod grammar (so '+', hex, inf and nan spellings are
/// accepted), rejecting tokens that overflow or underflow (ERANGE).
Result<double> ParseDouble(std::string_view s);

/// ParseDouble's fast path, on the front of [first, last): the end of the
/// longest number there when ParseDouble of exactly [first, end) returns
/// it without the strtod fallback (stored in *value); nullptr when there is
/// no such number. A number never holds whitespace, '"', '\r', ',', ';',
/// '\t' or '|', so a caller splitting on one of those can parse a cell
/// without first finding its end.
const char* ParseDoublePrefix(const char* first, const char* last,
                              double* value);

/// Strict int64 parse of the full token.
Result<int64_t> ParseInt(std::string_view s);

/// Formats a double with `digits` significant digits, trimming zeros.
std::string FormatDouble(double v, int digits = 4);

}  // namespace ziggy

#endif  // ZIGGY_COMMON_STRING_UTIL_H_
