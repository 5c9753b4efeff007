#include "common/string_util.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace unify {

std::vector<std::string> StrSplit(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> SplitWhitespace(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i])))
      ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view StripAsciiWhitespace(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string AsciiToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool StrContains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

bool StrContainsIgnoreCase(std::string_view haystack,
                           std::string_view needle) {
  if (needle.empty()) return true;
  if (needle.size() > haystack.size()) return false;
  auto lower = [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  };
  for (size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
    bool match = true;
    for (size_t j = 0; j < needle.size(); ++j) {
      if (lower(haystack[i + j]) != lower(needle[j])) {
        match = false;
        break;
      }
    }
    if (match) return true;
  }
  return false;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string StrReplaceAll(std::string_view s, std::string_view from,
                          std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(from, start);
    if (pos == std::string_view::npos) {
      out.append(s.substr(start));
      break;
    }
    out.append(s.substr(start, pos - start));
    out.append(to);
    start = pos + from.size();
  }
  return out;
}

std::optional<int64_t> ParseLeadingInt64(std::string_view s) {
  size_t i = 0;
  while (i < s.size() && !std::isdigit(static_cast<unsigned char>(s[i])) &&
         s[i] != '-')
    ++i;
  if (i == s.size()) return std::nullopt;
  bool neg = false;
  if (s[i] == '-') {
    neg = true;
    ++i;
    if (i == s.size() || !std::isdigit(static_cast<unsigned char>(s[i])))
      return std::nullopt;
  }
  int64_t v = 0;
  bool any = false;
  while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) {
    v = v * 10 + (s[i] - '0');
    any = true;
    ++i;
  }
  if (!any) return std::nullopt;
  return neg ? -v : v;
}

std::optional<int64_t> ParseInt64(std::string_view s) {
  s = StripAsciiWhitespace(s);
  if (s.empty()) return std::nullopt;
  size_t i = 0;
  bool neg = false;
  if (s[0] == '-' || s[0] == '+') {
    neg = (s[0] == '-');
    i = 1;
  }
  if (i == s.size()) return std::nullopt;
  int64_t v = 0;
  for (; i < s.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) return std::nullopt;
    v = v * 10 + (s[i] - '0');
  }
  return neg ? -v : v;
}

std::optional<double> ParseDouble(std::string_view s) {
  s = StripAsciiWhitespace(s);
  if (s.empty()) return std::nullopt;
  std::string buf(s);
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return std::nullopt;
  return v;
}

std::string ConditionKey(const std::map<std::string, std::string>& args) {
  std::string key;
  for (const char* k :
       {"kind", "phrase", "attribute", "cmp", "value", "value2"}) {
    auto it = args.find(k);
    if (it != args.end()) {
      key += it->second;
      key += '\x1f';
    }
  }
  return key;
}

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  std::string out(buf);
  if (out.find('.') != std::string::npos) {
    size_t last = out.find_last_not_of('0');
    if (out[last] == '.') last -= 1;
    out.erase(last + 1);
  }
  return out;
}

}  // namespace unify
