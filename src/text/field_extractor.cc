#include "text/field_extractor.h"

#include <cctype>
#include <limits>

#include "common/string_util.h"
#include "text/tokenizer.h"

namespace unify::text {

namespace {

// Finds `needle` in `haystack` at or after `from`, ignoring case.
std::optional<size_t> FindIgnoreCase(std::string_view haystack,
                                     std::string_view needle,
                                     size_t from = 0) {
  if (needle.empty()) return from;
  auto lower = [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  };
  for (size_t i = from; i + needle.size() <= haystack.size(); ++i) {
    bool match = true;
    for (size_t j = 0; j < needle.size(); ++j) {
      if (lower(haystack[i + j]) != lower(needle[j])) {
        match = false;
        break;
      }
    }
    if (match) return i;
  }
  return std::nullopt;
}

bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

// Length of the run of digits starting at `pos`.
size_t DigitRunLength(std::string_view s, size_t pos) {
  size_t end = pos;
  while (end < s.size() && IsDigit(s[end])) ++end;
  return end - pos;
}

// The value of a run of decimal digits; nullopt when it does not fit in
// int64_t (a run that long is not a number any pattern refers to).
std::optional<int64_t> ParseDigitRun(std::string_view digits) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  int64_t v = 0;
  for (char c : digits) {
    int64_t d = c - '0';
    if (v > (kMax - d) / 10) return std::nullopt;
    v = v * 10 + d;
  }
  return v;
}

// Parses the first integer at or after position `pos`, within `max_gap`
// characters.
std::optional<int64_t> IntNear(std::string_view s, size_t pos,
                               size_t max_gap) {
  size_t limit = std::min(s.size(), pos + max_gap);
  for (size_t i = pos; i < limit; ++i) {
    if (IsDigit(s[i])) return ParseDigitRun(s.substr(i, DigitRunLength(s, i)));
  }
  return std::nullopt;
}

// Parses the integer that ends immediately before `pos` (allowing a small
// gap of spaces/punctuation).
std::optional<int64_t> IntBefore(std::string_view s, size_t pos) {
  size_t i = pos;
  size_t gap = 0;
  while (i > 0 && !IsDigit(s[i - 1])) {
    --i;
    if (++gap > 3) return std::nullopt;
  }
  if (i == 0) return std::nullopt;
  size_t end = i;
  while (i > 0 && IsDigit(s[i - 1])) --i;
  return ParseDigitRun(s.substr(i, end - i));
}

}  // namespace

std::optional<int64_t> FieldExtractor::ExtractInt(std::string_view doc_text,
                                                  std::string_view field) {
  std::string stem = Stem(AsciiToLower(field));
  // Pattern "viewed 523 times" / "answered 3 times": verb form of the field.
  // Try the raw field first: "<field>: N", "<field> of N", "<field> N".
  std::vector<std::string> labels = {std::string(field), stem};
  if (stem == "view") labels.push_back("viewed");
  if (stem == "answer") labels.push_back("answered");
  if (stem == "vote" || stem == "upvote") labels.push_back("upvoted");
  for (const auto& label : labels) {
    // Prose may mention the label word without a value ("they scored on
    // the power play"); scan every occurrence until one carries a number.
    size_t from = 0;
    while (true) {
      auto pos = FindIgnoreCase(doc_text, label, from);
      if (!pos.has_value()) break;
      // Number immediately before the label ("3 answers", "220 words") —
      // checked first so "It has 3 answers and 7 comments" resolves
      // "answers" to 3, not 7.
      auto before = IntBefore(doc_text, *pos);
      if (before.has_value()) return before;
      // Number after the label ("Score: 12", "viewed 523 times").
      auto after = IntNear(doc_text, *pos + label.size(), 12);
      if (after.has_value()) return after;
      from = *pos + 1;
    }
  }
  return std::nullopt;
}

std::optional<std::string> FieldExtractor::ExtractPhrase(
    std::string_view doc_text, std::string_view field) {
  std::string label = std::string(field) + ":";
  auto pos = FindIgnoreCase(doc_text, label);
  if (!pos.has_value()) return std::nullopt;
  size_t start = *pos + label.size();
  while (start < doc_text.size() &&
         std::isspace(static_cast<unsigned char>(doc_text[start])))
    ++start;
  size_t end = start;
  while (end < doc_text.size() && doc_text[end] != '.' &&
         doc_text[end] != '\n' && doc_text[end] != ';')
    ++end;
  if (end <= start) return std::nullopt;
  return std::string(StripAsciiWhitespace(doc_text.substr(start, end - start)));
}

std::vector<int64_t> FieldExtractor::AllIntegers(std::string_view doc_text) {
  std::vector<int64_t> out;
  size_t i = 0;
  while (i < doc_text.size()) {
    if (IsDigit(doc_text[i])) {
      size_t len = DigitRunLength(doc_text, i);
      if (auto v = ParseDigitRun(doc_text.substr(i, len))) out.push_back(*v);
      i += len;
    } else {
      ++i;
    }
  }
  return out;
}

std::vector<std::string> SplitSentences(std::string_view text) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '.' || text[i] == '!' || text[i] == '?') {
      auto sent = StripAsciiWhitespace(text.substr(start, i - start + 1));
      if (!sent.empty()) out.emplace_back(sent);
      start = i + 1;
    }
  }
  auto tail = StripAsciiWhitespace(text.substr(start));
  if (!tail.empty()) out.emplace_back(tail);
  return out;
}

}  // namespace unify::text
