#ifndef UNIFY_COMMON_METRICS_H_
#define UNIFY_COMMON_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "common/stats.h"

namespace unify {

/// A name-keyed metric map with transparent lookup: finding a series by a
/// `const char*` or `std::string_view` name allocates nothing.
template <typename V>
using MetricMap = std::map<std::string, V, std::less<>>;

/// A point-in-time copy of a MetricsRegistry's contents. Counter deltas
/// between two snapshots isolate what happened in between (tests bracket
/// a batch of queries this way); one query's own contribution is its
/// `QueryResult::metrics`, which is what the query merged into the
/// global registry when it finished.
struct MetricsSnapshot {
  MetricMap<double> counters;
  MetricMap<double> gauges;
  /// Histogram copies (mergeable log-linear buckets — see Histogram in
  /// common/stats.h — so a copy costs O(buckets), not O(observations)).
  MetricMap<Histogram> histograms;

  /// Counters minus `earlier`'s counters (absent = 0; zero deltas are
  /// dropped). Gauges and histograms keep their current values: they are
  /// level/distribution metrics, not monotone sums.
  MetricsSnapshot DeltaSince(const MetricsSnapshot& earlier) const;

  /// Sums the counter `base` and every `base.<suffix>` counter: a whole
  /// family such as the per-prompt-type `llm.calls.<type>`.
  double FamilySum(std::string_view base) const;

  /// One metric per line: `name value` for counters/gauges,
  /// `name count/mean/p50/p99` for histograms. Sorted by name.
  std::string ToText() const;

  /// Prometheus text exposition format (version 0.0.4). Metric names are
  /// sanitized to [a-zA-Z0-9_:] and prefixed with `unify_`; every metric
  /// gets `# HELP` and `# TYPE` lines, the HELP text from its row in the
  /// telemetry catalog (common/telemetry_names.h). Counters expose as
  /// `counter`, gauges as `gauge`, histograms as `summary` with quantile
  /// 0.5/0.9/0.99 series plus `_sum`/`_count`. Values use the shortest
  /// text that reads back as the same double, so counters stay exact at
  /// any size.
  ///
  /// Labeled series: a registry name of the form `base{key="value"}`
  /// (compose with LabeledMetricName so the value is escaped) renders as
  /// one `unify_base{key="value"}` sample; all samples of one base share
  /// a single HELP/TYPE header. Names without `{` render exactly as
  /// before — the unlabeled output is byte-identical.
  std::string ToPrometheusText() const;
};

/// Composes the registry name of a labeled series: `base{key="value"}`,
/// with `value` escaped per the Prometheus text format (`\` -> `\\`,
/// `"` -> `\"`, newline -> `\n`). The per-tenant `tenant.*` series are
/// keyed this way (docs/observability.md, "Per-tenant accounting").
std::string LabeledMetricName(const std::string& base, const std::string& key,
                              const std::string& value);

/// A registry of named counters, gauges, and histograms — the metrics
/// side of the observability layer (spans live in common/trace.h).
/// Thread-safe; names are flat dotted strings from the catalog in
/// src/common/telemetry_names.h (documented in docs/observability.md).
///
/// One registry is process-wide (Global()); each running query owns
/// another, its sink (the `metrics` field of its QueryScope in
/// common/query_scope.h). An update takes the registry's mutex and finds
/// its series by name without allocating; only a series' first update
/// inserts it.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Adds `delta` to the counter (created at 0 on first use).
  void AddCounter(std::string_view name, double delta = 1.0);

  /// Sets the gauge's current value.
  void SetGauge(std::string_view name, double value);

  /// Records one observation into the histogram.
  void Observe(std::string_view name, double value);

  /// Adds `delta`'s counters and histograms under one lock acquisition.
  /// Its gauges are ignored: gauges are written through to every
  /// registry as they change, so replaying a level later would only
  /// overwrite a newer one.
  void Merge(const MetricsSnapshot& delta);

  /// Current counter value; 0 if never touched.
  double counter(std::string_view name) const;

  /// Current gauge value; 0 if never set.
  double gauge(std::string_view name) const;

  MetricsSnapshot Snapshot() const;

  /// Drops every metric (tests; not used on serving paths).
  void Reset();

  /// The process-wide registry: what /metrics and the shell render.
  static MetricsRegistry& Global();

 private:
  mutable std::mutex mu_;
  MetricMap<double> counters_;
  MetricMap<double> gauges_;
  MetricMap<Histogram> histograms_;
};

/// Record into the calling thread's per-query sink
/// (`QueryScope::Current().metrics`) when one is installed, else into the
/// process-wide registry. The query's owner merges its sink into Global()
/// once, when the query ends (QueryPipeline), so each event is one write
/// and `QueryResult::metrics` stays exact under concurrent serving.
/// Gauges are levels, not sums, so MetricSetGauge writes both. All
/// instrumented components use these instead of calling
/// MetricsRegistry::Global() directly so per-query attribution works
/// (docs/observability.md, "Per-query attribution").
void MetricAddCounter(std::string_view name, double delta = 1.0);
void MetricSetGauge(std::string_view name, double value);
void MetricObserve(std::string_view name, double value);

}  // namespace unify

#endif  // UNIFY_COMMON_METRICS_H_
