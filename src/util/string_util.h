#ifndef SCHEMEX_UTIL_STRING_UTIL_H_
#define SCHEMEX_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace schemex::util {

/// Splits `s` on `sep`, keeping empty pieces. Split("a,,b", ',') yields
/// {"a", "", "b"}; Split("", ',') yields {""}.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits `s` on any whitespace, dropping empty pieces.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// True iff `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Parses a non-negative decimal integer; returns false (leaving *out
/// unchanged) on empty input, any non-digit, or a value above 2^64 - 1.
bool ParseUint64(std::string_view s, uint64_t* out);

/// Parses a double via strtod semantics; returns false if the whole string
/// is not consumed.
bool ParseDouble(std::string_view s, double* out);

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace schemex::util

#endif  // SCHEMEX_UTIL_STRING_UTIL_H_
