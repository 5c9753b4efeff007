#include "common/metrics.h"

#include <cctype>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/accuracy.h"
#include "common/query_scope.h"
#include "common/telemetry_names.h"
#include "common/thread_pool.h"

namespace unify {
namespace {

TEST(MetricsTest, CountersAccumulate) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.counter("llm.calls"), 0);
  registry.AddCounter("llm.calls");
  registry.AddCounter("llm.calls", 2.5);
  EXPECT_DOUBLE_EQ(registry.counter("llm.calls"), 3.5);
}

TEST(MetricsTest, GaugesKeepLastValue) {
  MetricsRegistry registry;
  registry.SetGauge("exec.pool.occupancy", 0.25);
  registry.SetGauge("exec.pool.occupancy", 0.75);
  EXPECT_DOUBLE_EQ(registry.gauge("exec.pool.occupancy"), 0.75);
}

TEST(MetricsTest, HistogramQuantiles) {
  MetricsRegistry registry;
  for (int i = 1; i <= 100; ++i) {
    registry.Observe("exec.queue_wait_seconds", static_cast<double>(i));
  }
  MetricsSnapshot snap = registry.Snapshot();
  const Histogram& h = snap.histograms.at("exec.queue_wait_seconds");
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
  // Bucket quantiles sit within 1/32 relative of the nearest-rank order
  // statistic: rank 50 for p50, rank 99 for p99.
  EXPECT_NEAR(h.Quantile(0.5), 50.0, 50.0 * Histogram::kRelativeError);
  EXPECT_NEAR(h.Quantile(0.99), 99.0, 99.0 * Histogram::kRelativeError);
  EXPECT_LE(h.Quantile(0.5), h.Quantile(0.99));
}

TEST(MetricsTest, MergeAddsCountersAndHistogramsButNotGauges) {
  MetricsRegistry query;
  query.AddCounter("llm.calls.eval_predicate", 3);
  query.SetGauge("exec.pool.occupancy", 0.25);
  query.Observe("llm.call_seconds", 2.0);
  query.Observe("llm.call_seconds", 4.0);

  MetricsRegistry global;
  global.AddCounter("llm.calls.eval_predicate", 1);
  global.SetGauge("exec.pool.occupancy", 0.75);
  global.Observe("llm.call_seconds", 1.0);
  global.Merge(query.Snapshot());

  MetricsSnapshot snap = global.Snapshot();
  EXPECT_DOUBLE_EQ(snap.counters.at("llm.calls.eval_predicate"), 4);
  const Histogram& h = snap.histograms.at("llm.call_seconds");
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 7.0);
  EXPECT_DOUBLE_EQ(h.Min(), 1.0);
  EXPECT_DOUBLE_EQ(h.Max(), 4.0);
  // Gauges were written through when they changed; a merge leaves the
  // receiving registry's level alone.
  EXPECT_DOUBLE_EQ(snap.gauges.at("exec.pool.occupancy"), 0.75);
}

TEST(MetricsTest, SnapshotDelta) {
  MetricsRegistry registry;
  registry.AddCounter("plan.reductions", 4);
  registry.AddCounter("llm.calls", 10);
  MetricsSnapshot before = registry.Snapshot();

  registry.AddCounter("llm.calls", 5);
  registry.AddCounter("sce.estimates", 2);
  registry.SetGauge("exec.pool.occupancy", 0.5);
  MetricsSnapshot delta = registry.Snapshot().DeltaSince(before);

  // Untouched counters drop out; touched ones show only the difference.
  EXPECT_EQ(delta.counters.count("plan.reductions"), 0u);
  EXPECT_DOUBLE_EQ(delta.counters.at("llm.calls"), 5);
  EXPECT_DOUBLE_EQ(delta.counters.at("sce.estimates"), 2);
  // Gauges pass through at their current level.
  EXPECT_DOUBLE_EQ(delta.gauges.at("exec.pool.occupancy"), 0.5);
}

TEST(MetricsTest, ResetClearsEverything) {
  MetricsRegistry registry;
  registry.AddCounter("llm.calls");
  registry.SetGauge("g", 1);
  registry.Observe("h", 1);
  registry.Reset();
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

TEST(MetricsTest, GlobalIsASingleton) {
  MetricsRegistry& a = MetricsRegistry::Global();
  MetricsRegistry& b = MetricsRegistry::Global();
  EXPECT_EQ(&a, &b);
}

TEST(MetricsTest, ConcurrentUpdates) {
  MetricsRegistry registry;
  constexpr int kTasks = 8;
  constexpr int kUpdates = 1000;
  {
    ThreadPool pool(4);
    for (int t = 0; t < kTasks; ++t) {
      pool.Schedule([&registry]() {
        for (int i = 0; i < kUpdates; ++i) {
          registry.AddCounter("llm.calls");
          registry.Observe("llm.call_seconds", 1.0);
        }
      });
    }
    pool.Wait();
  }
  EXPECT_DOUBLE_EQ(registry.counter("llm.calls"), kTasks * kUpdates);
  EXPECT_EQ(registry.Snapshot().histograms.at("llm.call_seconds").count(),
            static_cast<size_t>(kTasks * kUpdates));
}

TEST(MetricsTest, ToPrometheusTextIsWellFormed) {
  MetricsRegistry registry;
  registry.AddCounter("llm.calls", 3);
  registry.AddCounter("llm.dollars.eval-predicate/x", 0.5);  // odd chars
  registry.SetGauge("exec.pool.occupancy", 0.5);
  for (int i = 1; i <= 10; ++i) {
    registry.Observe("serve.queue_wait_seconds", static_cast<double>(i));
  }
  const std::string text = registry.Snapshot().ToPrometheusText();

  // Names are prefixed and sanitized to the Prometheus charset.
  EXPECT_NE(text.find("# HELP unify_llm_calls "), std::string::npos);
  EXPECT_NE(text.find("# TYPE unify_llm_calls counter"), std::string::npos);
  EXPECT_NE(text.find("unify_llm_calls 3"), std::string::npos);
  EXPECT_NE(text.find("unify_llm_dollars_eval_predicate_x 0.5"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE unify_exec_pool_occupancy gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE unify_serve_queue_wait_seconds summary"),
            std::string::npos);
  EXPECT_NE(text.find("unify_serve_queue_wait_seconds{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("unify_serve_queue_wait_seconds_sum 55"),
            std::string::npos);
  EXPECT_NE(text.find("unify_serve_queue_wait_seconds_count 10"),
            std::string::npos);

  // Every line is a comment or `name[{labels}] value` with a parseable
  // value and a name restricted to [a-zA-Z0-9_:].
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                  line.rfind("# TYPE ", 0) == 0)
          << line;
      continue;
    }
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    std::string name = line.substr(0, space);
    if (const size_t brace = name.find('{'); brace != std::string::npos) {
      EXPECT_EQ(name.back(), '}') << line;
      name = name.substr(0, brace);
    }
    for (char c : name) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                  c == ':')
          << line;
    }
    size_t parsed = 0;
    EXPECT_NO_THROW({ (void)std::stod(line.substr(space + 1), &parsed); })
        << line;
  }
}

TEST(MetricsTest, LabeledMetricNameEscapesLabelValues) {
  EXPECT_EQ(LabeledMetricName("tenant.queries", "tenant", "acme"),
            "tenant.queries{tenant=\"acme\"}");
  // Backslash, quote, and newline are escaped per the Prometheus text
  // format; everything else passes through verbatim.
  EXPECT_EQ(LabeledMetricName("m", "k", "a\\b\"c\nd"),
            "m{k=\"a\\\\b\\\"c\\nd\"}");
}

TEST(MetricsTest, PrometheusTextGroupsLabeledSeriesUnderOneHeader) {
  MetricsRegistry registry;
  registry.AddCounter(LabeledMetricName("tenant.queries", "tenant", "a"), 2);
  registry.AddCounter(LabeledMetricName("tenant.queries", "tenant", "b"), 3);
  registry.Observe(LabeledMetricName("tenant.latency_seconds", "tenant", "a"),
                   1.0);
  const std::string text = registry.Snapshot().ToPrometheusText();

  // One HELP/TYPE header covers both labeled samples of the base metric.
  size_t first = text.find("# TYPE unify_tenant_queries counter");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE unify_tenant_queries counter", first + 1),
            std::string::npos);
  EXPECT_NE(text.find("unify_tenant_queries{tenant=\"a\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("unify_tenant_queries{tenant=\"b\"} 3"),
            std::string::npos);
  // Labeled summaries merge the quantile label into the label block and
  // label the _sum/_count series.
  EXPECT_NE(
      text.find(
          "unify_tenant_latency_seconds{tenant=\"a\",quantile=\"0.5\"}"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("unify_tenant_latency_seconds_sum{tenant=\"a\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("unify_tenant_latency_seconds_count{tenant=\"a\"} 1"),
            std::string::npos);
}

TEST(MetricsTest, PrometheusTextWithoutLabelsIsUnchangedByLabelSupport) {
  // The unlabeled rendering is pinned byte-for-byte: label support must
  // not perturb what existing scrapers see for label-free registries.
  MetricsRegistry registry;
  registry.AddCounter("llm.calls", 3);
  registry.SetGauge("exec.pool.occupancy", 0.5);
  registry.Observe("serve.queue_wait_seconds", 2.0);
  EXPECT_EQ(registry.Snapshot().ToPrometheusText(),
            "# HELP unify_llm_calls LLM calls per prompt type.\n"
            "# TYPE unify_llm_calls counter\n"
            "unify_llm_calls 3\n"
            "# HELP unify_exec_pool_occupancy LLM-server busy fraction of "
            "the last executed plan.\n"
            "# TYPE unify_exec_pool_occupancy gauge\n"
            "unify_exec_pool_occupancy 0.5\n"
            "# HELP unify_serve_queue_wait_seconds Wall seconds a served "
            "request waited for a worker.\n"
            "# TYPE unify_serve_queue_wait_seconds summary\n"
            "unify_serve_queue_wait_seconds{quantile=\"0.5\"} 2\n"
            "unify_serve_queue_wait_seconds{quantile=\"0.9\"} 2\n"
            "unify_serve_queue_wait_seconds{quantile=\"0.99\"} 2\n"
            "unify_serve_queue_wait_seconds_sum 2\n"
            "unify_serve_queue_wait_seconds_count 1\n");
}

TEST(MetricsTest, PrometheusHelpComesFromTheCatalog) {
  MetricsRegistry registry;
  registry.AddCounter("llm.dollars.eval_predicate", 1);  // family member
  registry.AddCounter(
      LabeledMetricName(telemetry::kMetricTenantQueries, "tenant", "a"), 1);
  registry.AddCounter("test.uncatalogued", 1);
  const std::string text = registry.Snapshot().ToPrometheusText();
  EXPECT_NE(text.find("# HELP unify_llm_dollars_eval_predicate LLM API "
                      "dollars per prompt type.\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# HELP unify_tenant_queries Queries completed for "
                      "the tenant.\n"),
            std::string::npos)
      << text;
  // A name outside the catalog is its own help.
  EXPECT_NE(text.find("# HELP unify_test_uncatalogued test.uncatalogued\n"),
            std::string::npos)
      << text;
}

TEST(MetricsTest, PrometheusTextPrintsExactValues) {
  // Shortest round-trip formatting: a counter past 1e9 keeps its low
  // digits, and a decimal fraction prints as written.
  MetricsRegistry registry;
  registry.AddCounter("llm.in_tokens.eval_predicate", 1234567891234.0);
  registry.AddCounter("llm.dollars.eval_predicate", 0.1);
  const std::string text = registry.Snapshot().ToPrometheusText();
  EXPECT_NE(text.find("\nunify_llm_in_tokens_eval_predicate 1234567891234\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\nunify_llm_dollars_eval_predicate 0.1\n"),
            std::string::npos)
      << text;
}

TEST(MetricsTest, QueryScopeRedirectsAndRestores) {
  // Baselines: without a scope the helpers write the global registry.
  MetricsRegistry& global = MetricsRegistry::Global();
  const double global_before = global.counter("test.sink.counter");
  auto global_hist_count = [&global] {
    const MetricsSnapshot snap = global.Snapshot();
    auto it = snap.histograms.find("test.sink.hist");
    return it == snap.histograms.end() ? size_t{0} : it->second.count();
  };
  const size_t global_hist_before = global_hist_count();

  MetricsRegistry outer;
  MetricsRegistry inner;
  RetryBudget outer_budget(10);
  RetryBudget inner_budget(5);
  {
    QueryScope::Installer outer_scope({&outer, &outer_budget, true});
    MetricAddCounter("test.sink.counter", 2);
    {
      QueryScope::Installer inner_scope({&inner, &inner_budget, false});
      EXPECT_EQ(QueryScope::Current().retry_budget, &inner_budget);
      EXPECT_EQ(QueryScope::Current().use_llm_cache, false);
      MetricAddCounter("test.sink.counter", 5);
      MetricSetGauge("test.sink.gauge", 1.5);
      MetricObserve("test.sink.hist", 3.0);
    }
    // All three fields of the outer scope are back after the inner ends.
    EXPECT_EQ(QueryScope::Current().metrics, &outer);
    EXPECT_EQ(QueryScope::Current().retry_budget, &outer_budget);
    EXPECT_EQ(QueryScope::Current().use_llm_cache, true);
    MetricAddCounter("test.sink.counter", 1);
  }
  // And the empty default after the outermost.
  EXPECT_EQ(QueryScope::Current().metrics, nullptr);
  EXPECT_EQ(QueryScope::Current().retry_budget, nullptr);
  EXPECT_FALSE(QueryScope::Current().use_llm_cache.has_value());
  MetricAddCounter("test.sink.counter", 10);  // no sink installed here

  // Counters and histograms went to the installed sink only: one write
  // per event.
  EXPECT_DOUBLE_EQ(inner.counter("test.sink.counter"), 5);
  EXPECT_EQ(inner.Snapshot().histograms.at("test.sink.hist").count(), 1u);
  EXPECT_DOUBLE_EQ(outer.counter("test.sink.counter"), 3);
  EXPECT_DOUBLE_EQ(global.counter("test.sink.counter"),
                   global_before + 10);
  EXPECT_EQ(global_hist_count(), global_hist_before);
  // Gauges are levels, written through to the sink and the global
  // registry alike.
  EXPECT_DOUBLE_EQ(inner.gauge("test.sink.gauge"), 1.5);
  EXPECT_DOUBLE_EQ(global.gauge("test.sink.gauge"), 1.5);
  EXPECT_DOUBLE_EQ(outer.gauge("test.sink.gauge"), 0);
}

TEST(MetricsTest, QueryScopeIsPerThread) {
  MetricsRegistry sink;
  RetryBudget budget(10);
  QueryScope::Installer scope({&sink, &budget, true});
  std::thread other([]() {
    // A scope installed on the main thread must not leak to this one:
    // none of its fields is set here.
    EXPECT_EQ(QueryScope::Current().metrics, nullptr);
    EXPECT_EQ(QueryScope::Current().retry_budget, nullptr);
    EXPECT_FALSE(QueryScope::Current().use_llm_cache.has_value());
    MetricAddCounter("test.sink.other_thread", 1);
  });
  other.join();
  EXPECT_DOUBLE_EQ(sink.counter("test.sink.other_thread"), 0);
  EXPECT_EQ(QueryScope::Current().metrics, &sink);
  EXPECT_EQ(QueryScope::Current().retry_budget, &budget);
  EXPECT_EQ(QueryScope::Current().use_llm_cache, true);
}

TEST(MetricsTest, ToTextListsEveryMetric) {
  MetricsRegistry registry;
  registry.AddCounter("llm.calls", 3);
  registry.SetGauge("exec.pool.occupancy", 0.5);
  registry.Observe("exec.queue_wait_seconds", 2.0);
  const std::string text = registry.Snapshot().ToText();
  EXPECT_NE(text.find("llm.calls"), std::string::npos);
  EXPECT_NE(text.find("exec.pool.occupancy"), std::string::npos);
  EXPECT_NE(text.find("exec.queue_wait_seconds"), std::string::npos);
}

TEST(TelemetryCatalogTest, FindResolvesRowsFamiliesAndLabels) {
  const telemetry::Entry* row = telemetry::Find(telemetry::kMetricLlmCacheBytes);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->name, telemetry::kMetricLlmCacheBytes);
  EXPECT_EQ(row->kind, telemetry::Kind::kGauge);
  EXPECT_FALSE(row->family);
  EXPECT_FALSE(row->help.empty());
  // A family member resolves to its family's row, a labeled series to its
  // base's row, and spans and events have rows too.
  row = telemetry::Find("llm.calls.eval_predicate");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->name, telemetry::kMetricLlmCalls);
  EXPECT_TRUE(row->family);
  row = telemetry::Find("tenant.latency_seconds{tenant=\"a.b\"}");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->kind, telemetry::Kind::kHistogram);
  ASSERT_NE(telemetry::Find(telemetry::kSpanExecReplan), nullptr);
  EXPECT_EQ(telemetry::Find(telemetry::kSpanExecReplan)->kind,
            telemetry::Kind::kSpan);
  ASSERT_NE(telemetry::Find(telemetry::kEventShed), nullptr);
  EXPECT_EQ(telemetry::Find(telemetry::kEventShed)->kind,
            telemetry::Kind::kEvent);
  // Only family rows take a suffix; unknown names have no row.
  EXPECT_EQ(telemetry::Find("exec.nodes.extra"), nullptr);
  EXPECT_EQ(telemetry::Find("no.such.metric"), nullptr);
  EXPECT_EQ(telemetry::Find(""), nullptr);
}

TEST(AccuracyReportTest, EmptySnapshotReportsNothingRecorded) {
  const AccuracyReport report{MetricsSnapshot()};
  EXPECT_EQ(report.text,
            "prediction accuracy\n"
            "SCE q-error by method:\n"
            "  (no estimates recorded)\n"
            "plan vs execution:\n"
            "  node card q-error            (no samples)\n"
            "  makespan rel error           (no samples)\n"
            "  dollars rel error            (no samples)\n"
            "impl choice (hindsight audit):\n"
            "  (no executed nodes audited)\n"
            "mid-query replanning:\n"
            "  (no replans considered)\n");
  EXPECT_EQ(report.replans_considered, 0);
  EXPECT_EQ(report.replans_adopted, 0);
  EXPECT_EQ(report.replans_improved, 0);
  EXPECT_EQ(report.replans_not_improved, 0);
}

TEST(AccuracyReportTest, RendersTheRegistrySeries) {
  // One value per distribution (or repeats of it), so every quantile is
  // exact.
  MetricsRegistry registry;
  registry.Observe("sce.qerror.Unify", 1.5);
  registry.Observe("sce.qerror.Unify", 1.5);
  registry.Observe("sce.qerror.Sampling", 2);
  registry.Observe(telemetry::kMetricCardQError, 1.25);
  registry.Observe(telemetry::kMetricDollarsRelError, 0.5);
  registry.AddCounter(telemetry::kMetricImplChoiceOptimal, 3);
  registry.AddCounter(telemetry::kMetricImplChoiceSuboptimal, 1);
  registry.AddCounter("plan.impl_chosen.PreCount", 2);
  registry.AddCounter("plan.impl_chosen.LinearScan", 2);
  registry.AddCounter(telemetry::kMetricReplanConsidered, 3);
  registry.AddCounter(telemetry::kMetricReplanTriggered, 2);
  registry.AddCounter(telemetry::kMetricReplanImproved, 1);
  const AccuracyReport report(registry.Snapshot());
  EXPECT_EQ(report.text,
            "prediction accuracy\n"
            "SCE q-error by method:\n"
            "  Sampling                     n=1      p50=2         p90=2"
            "         max=2\n"
            "  Unify                        n=2      p50=1.5       p90=1.5"
            "       max=1.5\n"
            "plan vs execution:\n"
            "  node card q-error            n=1      p50=1.25      p90=1.25"
            "      max=1.25\n"
            "  makespan rel error           (no samples)\n"
            "  dollars rel error            n=1      p50=0.5       p90=0.5"
            "       max=0.5\n"
            "impl choice (hindsight audit):\n"
            "  optimal 3 / 4 (75.0%)\n"
            "  chosen LinearScan             2\n"
            "  chosen PreCount               2\n"
            "mid-query replanning:\n"
            "  considered 3, adopted 2, improved 1/2\n");
  EXPECT_EQ(report.replans_considered, 3);
  EXPECT_EQ(report.replans_adopted, 2);
  EXPECT_EQ(report.replans_improved, 1);
  EXPECT_EQ(report.replans_not_improved, 1);
}

}  // namespace
}  // namespace unify
