#include "common/telemetry_names.h"

#include <algorithm>
#include <array>

namespace unify::telemetry {

namespace {

constexpr bool NameLess(const Entry& a, const Entry& b) {
  return a.name < b.name;
}

/// Every catalog row, sorted by name.
constexpr auto kIndex = [] {
  std::array rows{
#define UNIFY_TELEMETRY_ENTRY(kind, constant, name, family, guide, help) \
  Entry{Kind::k##kind, name, family[0] != '\0', help},
      UNIFY_TELEMETRY_CATALOG(UNIFY_TELEMETRY_ENTRY)
#undef UNIFY_TELEMETRY_ENTRY
  };
  std::sort(rows.begin(), rows.end(), NameLess);
  return rows;
}();

static_assert(std::adjacent_find(kIndex.begin(), kIndex.end(),
                                 [](const Entry& a, const Entry& b) {
                                   return a.name == b.name;
                                 }) == kIndex.end(),
              "a telemetry name has more than one catalog row");

const Entry* Exact(std::string_view name) {
  const auto it = std::lower_bound(
      kIndex.begin(), kIndex.end(), name,
      [](const Entry& row, std::string_view key) { return row.name < key; });
  return it != kIndex.end() && it->name == name ? &*it : nullptr;
}

}  // namespace

const Entry* Find(std::string_view series) {
  series = series.substr(0, series.find('{'));
  if (const Entry* row = Exact(series)) return row;
  const size_t dot = series.rfind('.');
  if (dot == std::string_view::npos) return nullptr;
  const Entry* row = Exact(series.substr(0, dot));
  return row != nullptr && row->family ? row : nullptr;
}

}  // namespace unify::telemetry
