#include "common/accuracy.h"

#include <cstdio>
#include <sstream>
#include <string_view>

#include "common/telemetry_names.h"

namespace unify {

namespace {

void AppendHistLine(std::ostringstream& os, std::string_view label,
                    const Histogram& h) {
  char buf[192];
  const std::string name(label);
  if (h.count() == 0) {
    std::snprintf(buf, sizeof(buf), "  %-28s (no samples)\n", name.c_str());
  } else {
    std::snprintf(buf, sizeof(buf),
                  "  %-28s n=%-6zu p50=%-9.4g p90=%-9.4g max=%.4g\n",
                  name.c_str(), h.count(), h.Quantile(0.5), h.Quantile(0.9),
                  h.Max());
  }
  os << buf;
}

/// Calls `fn(suffix, value)` for each `base.<suffix>` series in `map`, in
/// name order.
template <typename V, typename Fn>
void ForEachInFamily(const MetricMap<V>& map, std::string_view base,
                     Fn fn) {
  const std::string prefix = std::string(base) + ".";
  for (auto it = map.lower_bound(prefix);
       it != map.end() && it->first.starts_with(prefix); ++it) {
    fn(std::string_view(it->first).substr(prefix.size()), it->second);
  }
}

}  // namespace

AccuracyReport::AccuracyReport(const MetricsSnapshot& snapshot) {
  auto counter = [&snapshot](std::string_view name) {
    auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? int64_t{0}
                                         : static_cast<int64_t>(it->second);
  };
  auto histogram = [&snapshot](std::string_view name) {
    auto it = snapshot.histograms.find(name);
    return it == snapshot.histograms.end() ? Histogram() : it->second;
  };
  replans_considered = counter(telemetry::kMetricReplanConsidered);
  replans_adopted = counter(telemetry::kMetricReplanTriggered);
  replans_improved = counter(telemetry::kMetricReplanImproved);
  replans_not_improved = replans_adopted - replans_improved;

  std::ostringstream os;
  os << "prediction accuracy\n";
  os << "SCE q-error by method:\n";
  bool any_estimate = false;
  ForEachInFamily(snapshot.histograms, telemetry::kMetricSceQError,
                  [&](std::string_view method, const Histogram& hist) {
                    AppendHistLine(os, method, hist);
                    any_estimate = true;
                  });
  if (!any_estimate) os << "  (no estimates recorded)\n";
  os << "plan vs execution:\n";
  AppendHistLine(os, "node card q-error",
                 histogram(telemetry::kMetricCardQError));
  AppendHistLine(os, "makespan rel error",
                 histogram(telemetry::kMetricMakespanRelError));
  AppendHistLine(os, "dollars rel error",
                 histogram(telemetry::kMetricDollarsRelError));
  const int64_t optimal = counter(telemetry::kMetricImplChoiceOptimal);
  const int64_t audited =
      optimal + counter(telemetry::kMetricImplChoiceSuboptimal);
  os << "impl choice (hindsight audit):\n";
  char buf[192];
  if (audited == 0) {
    os << "  (no executed nodes audited)\n";
  } else {
    std::snprintf(buf, sizeof(buf), "  optimal %lld / %lld (%.1f%%)\n",
                  static_cast<long long>(optimal),
                  static_cast<long long>(audited),
                  100.0 * static_cast<double>(optimal) /
                      static_cast<double>(audited));
    os << buf;
    ForEachInFamily(snapshot.counters, telemetry::kMetricImplChosen,
                    [&](std::string_view impl, double count) {
                      std::snprintf(buf, sizeof(buf), "  chosen %-22s %lld\n",
                                    std::string(impl).c_str(),
                                    static_cast<long long>(count));
                      os << buf;
                    });
  }
  os << "mid-query replanning:\n";
  if (replans_considered == 0) {
    os << "  (no replans considered)\n";
  } else {
    std::snprintf(buf, sizeof(buf),
                  "  considered %lld, adopted %lld, improved %lld/%lld\n",
                  static_cast<long long>(replans_considered),
                  static_cast<long long>(replans_adopted),
                  static_cast<long long>(replans_improved),
                  static_cast<long long>(replans_adopted));
    os << buf;
  }
  text = os.str();
}

}  // namespace unify
