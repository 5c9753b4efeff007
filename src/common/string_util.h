#ifndef UNIFY_COMMON_STRING_UTIL_H_
#define UNIFY_COMMON_STRING_UTIL_H_

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace unify {

/// Splits `s` on `delim`, keeping empty pieces.
std::vector<std::string> StrSplit(std::string_view s, char delim);

/// Splits `s` on any whitespace run, dropping empty pieces.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins `parts` with `sep`.
std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep);

/// Trims ASCII whitespace from both ends.
std::string_view StripAsciiWhitespace(std::string_view s);

/// ASCII lowercase copy.
std::string AsciiToLower(std::string_view s);

/// True iff `haystack` contains `needle` (case-sensitive).
bool StrContains(std::string_view haystack, std::string_view needle);

/// True iff `haystack` contains `needle` ignoring ASCII case.
bool StrContainsIgnoreCase(std::string_view haystack, std::string_view needle);

/// True iff `s` starts with / ends with `prefix` / `suffix`.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Replaces all occurrences of `from` with `to` in `s`.
std::string StrReplaceAll(std::string_view s, std::string_view from,
                          std::string_view to);

/// Parses the first integer appearing in `s` (optional sign), if any.
std::optional<int64_t> ParseLeadingInt64(std::string_view s);

/// Parses `s` entirely as an integer / double, if well-formed.
std::optional<int64_t> ParseInt64(std::string_view s);
std::optional<double> ParseDouble(std::string_view s);

/// Stable serialization of the condition arguments of an operator or an
/// LLM call (kind, phrase, attribute, cmp, value, value2; each present
/// value followed by '\x1f'): the optimizer's per-call estimate memo, the
/// SCE's sample seeds and the simulator's error coins key on it. Names
/// are not encoded, so two conditions can alias; changing the bytes would
/// move every SCE sample and simulator error.
std::string ConditionKey(const std::map<std::string, std::string>& args);

/// Formats a double with `precision` significant decimal digits, trimming
/// trailing zeros ("3.1400" -> "3.14", "5.000" -> "5").
std::string FormatDouble(double v, int precision = 6);

}  // namespace unify

#endif  // UNIFY_COMMON_STRING_UTIL_H_
