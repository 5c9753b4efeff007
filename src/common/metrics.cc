#include "common/metrics.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/query_scope.h"
#include "common/telemetry_names.h"

namespace unify {

MetricsSnapshot MetricsSnapshot::DeltaSince(
    const MetricsSnapshot& earlier) const {
  MetricsSnapshot delta;
  for (const auto& [name, value] : counters) {
    auto it = earlier.counters.find(name);
    double d = value - (it == earlier.counters.end() ? 0.0 : it->second);
    if (d != 0.0) delta.counters[name] = d;
  }
  delta.gauges = gauges;
  delta.histograms = histograms;
  return delta;
}

double MetricsSnapshot::FamilySum(std::string_view base) const {
  double sum = 0;
  for (auto it = counters.lower_bound(base);
       it != counters.end() && it->first.starts_with(base); ++it) {
    const std::string& name = it->first;
    if (name.size() == base.size() || name[base.size()] == '.') {
      sum += it->second;
    }
  }
  return sum;
}

std::string MetricsSnapshot::ToText() const {
  std::ostringstream os;
  char buf[160];
  for (const auto& [name, value] : counters) {
    std::snprintf(buf, sizeof(buf), "%-34s %.6g\n", name.c_str(), value);
    os << buf;
  }
  for (const auto& [name, value] : gauges) {
    std::snprintf(buf, sizeof(buf), "%-34s %.6g (gauge)\n", name.c_str(),
                  value);
    os << buf;
  }
  for (const auto& [name, stats] : histograms) {
    if (stats.count() == 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "%-34s n=%zu mean=%.6g p50=%.6g p99=%.6g\n", name.c_str(),
                  stats.count(), stats.Mean(), stats.Quantile(0.5),
                  stats.Quantile(0.99));
    os << buf;
  }
  return os.str();
}

namespace {

/// Prometheus metric names allow [a-zA-Z_:][a-zA-Z0-9_:]*; the registry's
/// dotted names are mapped into that alphabet under a `unify_` prefix.
std::string PrometheusName(const std::string& name) {
  std::string out = "unify_";
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// The HELP text is the name's catalog row (its family's, for a family
/// member); a name outside the catalog is its own help.
void AppendHelpType(std::ostringstream& os, const std::string& prom,
                    const std::string& name, const char* type) {
  const telemetry::Entry* row = telemetry::Find(name);
  os << "# HELP " << prom << " "
     << (row != nullptr ? row->help : std::string_view(name)) << "\n";
  os << "# TYPE " << prom << " " << type << "\n";
}

/// Splits a registry name of the form `base{key="value"}` (composed by
/// LabeledMetricName; the label block is already escaped) into the base
/// name and the label block including braces. Names without `{` keep an
/// empty label block.
void SplitLabels(const std::string& name, std::string* base,
                 std::string* labels) {
  const size_t brace = name.find('{');
  if (brace == std::string::npos) {
    *base = name;
    labels->clear();
  } else {
    *base = name.substr(0, brace);
    *labels = name.substr(brace);
  }
}

}  // namespace

std::string LabeledMetricName(const std::string& base, const std::string& key,
                              const std::string& value) {
  std::string escaped;
  escaped.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        escaped += "\\\\";
        break;
      case '"':
        escaped += "\\\"";
        break;
      case '\n':
        escaped += "\\n";
        break;
      default:
        escaped.push_back(c);
    }
  }
  return base + "{" + key + "=\"" + escaped + "\"}";
}

std::string MetricsSnapshot::ToPrometheusText() const {
  std::ostringstream os;
  char buf[64];
  // The shortest text that parses back to the same double: a counter
  // keeps its low digits however large it grows.
  auto num = [&buf](double v) -> std::string_view {
    if (std::isnan(v)) return "NaN";
    if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string_view(buf, static_cast<size_t>(end - buf));
  };
  // All labeled samples of one base metric share a single HELP/TYPE
  // header. The map is name-ordered and `{` sorts after every character
  // the sanitized names use, so a base's labeled series are contiguous.
  std::string base, labels, last_header;
  for (const auto& [name, value] : counters) {
    SplitLabels(name, &base, &labels);
    std::string prom = PrometheusName(base);
    if (labels.empty() || prom != last_header) {
      AppendHelpType(os, prom, base, "counter");
    }
    last_header = prom;
    os << prom << labels << " " << num(value) << "\n";
  }
  last_header.clear();
  for (const auto& [name, value] : gauges) {
    SplitLabels(name, &base, &labels);
    std::string prom = PrometheusName(base);
    if (labels.empty() || prom != last_header) {
      AppendHelpType(os, prom, base, "gauge");
    }
    last_header = prom;
    os << prom << labels << " " << num(value) << "\n";
  }
  last_header.clear();
  for (const auto& [name, hist] : histograms) {
    if (hist.count() == 0) continue;
    SplitLabels(name, &base, &labels);
    std::string prom = PrometheusName(base);
    if (labels.empty() || prom != last_header) {
      AppendHelpType(os, prom, base, "summary");
    }
    last_header = prom;
    // Merge the series labels with the quantile label: `{a="b"}` becomes
    // `{a="b",quantile="0.5"}`.
    const std::string inner =
        labels.empty() ? std::string() : labels.substr(1, labels.size() - 2);
    for (double q : {0.5, 0.9, 0.99}) {
      os << prom << "{" << inner << (inner.empty() ? "" : ",")
         << "quantile=\"" << num(q) << "\"} " << num(hist.Quantile(q))
         << "\n";
    }
    os << prom << "_sum" << labels << " " << num(hist.sum()) << "\n";
    os << prom << "_count" << labels << " " << hist.count() << "\n";
  }
  return os.str();
}

namespace {

/// The series `name` in `map`, inserted value-initialized on first use;
/// one tree walk, and no allocation when it already exists.
template <typename V>
V& Series(MetricMap<V>& map, std::string_view name) {
  auto it = map.lower_bound(name);
  if (it == map.end() || it->first != name) {
    it = map.emplace_hint(it, std::string(name), V{});
  }
  return it->second;
}

}  // namespace

void MetricsRegistry::AddCounter(std::string_view name, double delta) {
  std::lock_guard<std::mutex> lock(mu_);
  Series(counters_, name) += delta;
}

void MetricsRegistry::SetGauge(std::string_view name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  Series(gauges_, name) = value;
}

void MetricsRegistry::Observe(std::string_view name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  Series(histograms_, name).Add(value);
}

void MetricsRegistry::Merge(const MetricsSnapshot& delta) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, value] : delta.counters) {
    Series(counters_, name) += value;
  }
  for (const auto& [name, hist] : delta.histograms) {
    Series(histograms_, name).Merge(hist);
  }
}

double MetricsRegistry::counter(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

double MetricsRegistry::gauge(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters = counters_;
  snap.gauges = gauges_;
  snap.histograms = histograms_;
  return snap;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

namespace {
/// Where counters and histograms recorded on this thread go.
MetricsRegistry& Target() {
  MetricsRegistry* const sink = QueryScope::Current().metrics;
  return sink != nullptr ? *sink : MetricsRegistry::Global();
}
}  // namespace

void MetricAddCounter(std::string_view name, double delta) {
  Target().AddCounter(name, delta);
}

void MetricSetGauge(std::string_view name, double value) {
  MetricsRegistry::Global().SetGauge(name, value);
  MetricsRegistry* const sink = QueryScope::Current().metrics;
  if (sink != nullptr) sink->SetGauge(name, value);
}

void MetricObserve(std::string_view name, double value) {
  Target().Observe(name, value);
}

}  // namespace unify
