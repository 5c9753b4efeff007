// Interactive shell: type natural-language analytics questions against one
// of the four datasets and watch Unify plan, optimize, and execute them.
//
//   $ ./build/examples/unify_shell [sports|ai|law|wiki]
//   unify> How many questions about tennis are there?
//   unify> \plan on          (toggle physical-plan printing)
//   unify> \trace on         (print the span tree of each query)
//   unify> \trace json FILE  (export the last trace for chrome://tracing)
//   unify> \explain analyze  (last query: estimated vs actual, per node)
//   unify> \events 20        (recent serving flight-recorder events)
//   unify> \slow             (slowest served queries, with traces)
//   unify> \prom             (Prometheus text exposition of all metrics)
//   unify> \accuracy         (estimator/cost-model calibration report)
//   unify> \replan           (last query's mid-query re-optimizations)
//   unify> \stats            (cumulative LLM usage)
//   unify> \faults on        (inject LLM faults; \faults reports resilience)
//   unify> \cache            (shared LLM answer cache report; \cache clear)
//   unify> \concurrency 8    (size of the serving worker pool)
//   unify> q1 ;; q2 ;; q3    (submit a batch concurrently)
//   unify> \quit
//
// Reads queries from stdin; also works non-interactively:
//   $ echo "Count the questions about golf." | ./build/examples/unify_shell

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/accuracy.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "unify/api.h"
#include "corpus/dataset_profile.h"
#include "llm/sim_llm.h"

int main(int argc, char** argv) {
  using namespace unify;

  std::string dataset = argc > 1 ? argv[1] : "sports";
  corpus::DatasetProfile profile;
  bool found = false;
  for (const auto& p : corpus::AllProfiles()) {
    if (p.name == dataset) {
      profile = p;
      found = true;
    }
  }
  if (!found) {
    std::printf("unknown dataset '%s' (try sports|ai|law|wiki)\n",
                dataset.c_str());
    return 1;
  }

  std::printf("loading %s (%zu documents) ...\n", profile.name.c_str(),
              profile.doc_count);
  corpus::Corpus docs = corpus::GenerateCorpus(profile, 2024);
  llm::SimulatedLlm llm(&docs, llm::SimLlmOptions{});
  core::UnifyOptions opts;
  // Fault-injection rates for the \faults command (scaled by \faults on
  // [scale]; injection starts OFF). Retries + the breaker + graceful
  // degradation then show the resilience layer working (docs/resilience.md).
  opts.faults.rates.timeout = 0.02;
  opts.faults.rates.rate_limit = 0.02;
  opts.faults.rates.malformed = 0.02;
  opts.resilience.breaker.enabled = true;
  opts.graceful_degradation = true;
  // Shared cross-query answer cache: repeated or concurrent questions that
  // touch the same documents stop re-paying per-document LLM calls
  // (\cache reports hits/coalesces/savings; docs/caching.md).
  opts.cache.enabled = true;
  // Mid-query re-optimization (docs/replanning.md): pause at badly
  // mis-estimated materialization points and re-lower the remaining plan
  // with the measured cardinalities (\replan shows what each query did).
  opts.exec.max_reoptimizations = 2;
  core::UnifySystem system(&docs, &llm, opts);
  if (auto st = system.Setup(); !st.ok()) {
    std::printf("setup failed: %s\n", st.ToString().c_str());
    return 1;
  }
  system.fault_injector()->set_rate_scale(0.0);
  std::printf(
      "ready. Ask questions about the %s (entity: %s); \\help for "
      "commands.\n",
      docs.name().c_str(), docs.entity().c_str());

  // All queries route through the serving layer, so batches submitted with
  // ";;" share one virtual LLM server pool (their exec times include
  // cross-query queueing, like a real multi-client deployment).
  core::UnifyService::Options sopts;
  sopts.num_workers = 4;
  // The shell serves with fair scheduling on, so ";;" batches tagged with
  // different client tags share the workers fairly (\sched reports the
  // queue state; docs/api.md, "Scheduling & tenant isolation").
  sopts.scheduler = core::UnifyService::Scheduler::kFair;
  auto service = std::make_unique<core::UnifyService>(&system, sopts);

  bool show_plan = false;
  bool show_trace = false;
  std::shared_ptr<Trace> last_trace;
  // Last completed QueryResult, for \explain analyze.
  std::unique_ptr<core::QueryResult> last_result;
  std::string line;
  while (true) {
    std::printf("unify> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    std::string input(StripAsciiWhitespace(line));
    if (input.empty()) continue;
    if (input == "\\quit" || input == "\\q") break;
    if (input == "\\help") {
      std::printf("  \\plan on|off      print the optimized physical plan\n");
      std::printf("  \\trace on|off     print each query's span tree and "
                  "execution timeline\n");
      std::printf("  \\trace json FILE  export the last query's trace as "
                  "Chrome trace-event JSON\n");
      std::printf("  \\explain analyze  last query's per-node estimated vs "
                  "actual (EXPLAIN ANALYZE)\n");
      std::printf("  \\events [N]       last N serving flight-recorder "
                  "events (default 16)\n");
      std::printf("  \\events json FILE export all retained events as JSON "
                  "Lines\n");
      std::printf("  \\slow             slowest served queries (traces "
                  "retained)\n");
      std::printf("  \\slow json FILE   export the slowest query's trace as "
                  "Chrome JSON\n");
      std::printf("  \\prom             Prometheus text exposition of the "
                  "metrics registry\n");
      std::printf("  \\accuracy         prediction-accuracy report "
                  "(q-errors, cost calibration, replans)\n");
      std::printf("  \\replan           last query's mid-query "
                  "re-optimizations (docs/replanning.md)\n");
      std::printf("  \\metrics          process-wide metrics registry "
                  "snapshot\n");
      std::printf("  \\stats            cumulative simulated LLM usage\n");
      std::printf("  \\tenants          per-tenant usage ledger (queries, "
                  "dollars, latency)\n");
      std::printf("  \\sched            fair-scheduler report (per-tenant "
                  "queues, weights, sheds)\n");
      std::printf("  \\vocab            categories/tags/groups you can ask "
                  "about\n");
      std::printf("  \\faults           fault-injection + resilience report "
                  "(retries, hedges, breaker)\n");
      std::printf("  \\faults on [S]    enable LLM fault injection (rate "
                  "scale S, default 1)\n");
      std::printf("  \\faults off       disable fault injection\n");
      std::printf("  \\cache            shared LLM answer cache report "
                  "(hits, coalesces, evictions)\n");
      std::printf("  \\cache clear      drop every cached answer and reset "
                  "the counters\n");
      std::printf("  \\concurrency N    resize the serving worker pool\n");
      std::printf("  q1 ;; q2 ;; q3    submit a batch of queries "
                  "concurrently\n");
      std::printf("  \\quit             exit\n");
      continue;
    }
    if (input.rfind("\\concurrency", 0) == 0) {
      std::string arg(StripAsciiWhitespace(
          input.substr(std::string("\\concurrency").size())));
      int n = arg.empty() ? 0 : std::atoi(arg.c_str());
      if (n < 1 || n > 256) {
        std::printf("  usage: \\concurrency N   (1..256; currently %d)\n",
                    service->options().num_workers);
        continue;
      }
      core::UnifyService::Options next = service->options();
      next.num_workers = n;
      service = std::make_unique<core::UnifyService>(&system, next);
      std::printf("  serving with %d workers\n", n);
      continue;
    }
    if (input == "\\plan on") {
      show_plan = true;
      continue;
    }
    if (input == "\\plan off") {
      show_plan = false;
      continue;
    }
    if (input == "\\trace on") {
      show_trace = true;
      continue;
    }
    if (input == "\\trace off") {
      show_trace = false;
      continue;
    }
    if (input.rfind("\\trace json", 0) == 0) {
      if (last_trace == nullptr) {
        std::printf("  no trace yet; run a query first\n");
        continue;
      }
      std::string path(StripAsciiWhitespace(
          input.substr(std::string("\\trace json").size())));
      if (path.empty()) path = "unify_trace.json";
      std::ofstream out(path);
      if (!out) {
        std::printf("  cannot open %s\n", path.c_str());
        continue;
      }
      out << last_trace->ToChromeJson();
      std::printf("  wrote %s (load in chrome://tracing or "
                  "https://ui.perfetto.dev)\n",
                  path.c_str());
      continue;
    }
    if (input == "\\metrics") {
      std::printf("%s",
                  MetricsRegistry::Global().Snapshot().ToText().c_str());
      continue;
    }
    if (input == "\\prom") {
      std::printf(
          "%s",
          MetricsRegistry::Global().Snapshot().ToPrometheusText().c_str());
      continue;
    }
    if (input == "\\accuracy") {
      std::printf(
          "%s",
          AccuracyReport(MetricsRegistry::Global().Snapshot()).text.c_str());
      continue;
    }
    if (input == "\\tenants") {
      std::printf("%s", service->tenant_ledger().ToText().c_str());
      continue;
    }
    if (input == "\\sched") {
      const core::UnifyService::Stats s = service->stats();
      std::printf("  fair scheduler: %lld enqueued, %lld dispatched, "
                  "%lld shed, %lld tenant-rejected, %lld wheel rotations\n",
                  static_cast<long long>(s.sched.enqueued),
                  static_cast<long long>(s.sched.dispatched),
                  static_cast<long long>(s.sched.sheds),
                  static_cast<long long>(s.sched.tenant_rejects),
                  static_cast<long long>(s.sched.wheel_rotations));
      std::printf("  queued now: %lld (batch %lld / normal %lld / "
                  "interactive %lld), running %lld\n",
                  static_cast<long long>(s.sched.queued),
                  static_cast<long long>(s.sched.queued_by_class[0]),
                  static_cast<long long>(s.sched.queued_by_class[1]),
                  static_cast<long long>(s.sched.queued_by_class[2]),
                  static_cast<long long>(s.sched.running));
      std::printf("  %-16s %7s %7s %8s %11s %6s %7s\n", "tenant", "weight",
                  "queued", "running", "dispatched", "shed", "reject");
      for (const auto& [tenant, t] : s.sched.tenants) {
        std::printf("  %-16s %7.3f %7lld %8lld %11lld %6lld %7lld\n",
                    tenant.c_str(), t.weight,
                    static_cast<long long>(t.queued),
                    static_cast<long long>(t.running),
                    static_cast<long long>(t.dispatched),
                    static_cast<long long>(t.sheds),
                    static_cast<long long>(t.rejected));
      }
      if (s.sched.tenants.empty()) {
        std::printf("  (no tenants scheduled yet)\n");
      }
      continue;
    }
    if (input == "\\replan") {
      if (last_result == nullptr) {
        std::printf("  no executed query yet; run a query first\n");
        continue;
      }
      if (last_result->replans.empty()) {
        std::printf("  no mid-query re-optimizations for the last query "
                    "(no materialization point missed its estimate by the "
                    "q-error threshold; docs/replanning.md)\n");
      }
      for (size_t i = 0; i < last_result->replans.size(); ++i) {
        const auto& rec = last_result->replans[i];
        std::printf("  #%zu %s\n", i + 1, rec.Sentence().c_str());
        std::printf("      decision %.2fs $%.4f | estimator bias x%.2f | "
                    "%zu suffix nodes, %zu re-lowered\n",
                    rec.decision_seconds, rec.decision_dollars, rec.est_bias,
                    rec.suffix_nodes.size(), rec.relowered_nodes.size());
      }
      const AccuracyReport report(MetricsRegistry::Global().Snapshot());
      std::printf("  session: %lld considered, %lld adopted, %lld improved, "
                  "%lld not improved\n",
                  static_cast<long long>(report.replans_considered),
                  static_cast<long long>(report.replans_adopted),
                  static_cast<long long>(report.replans_improved),
                  static_cast<long long>(report.replans_not_improved));
      continue;
    }
    if (input == "\\explain analyze") {
      if (last_result == nullptr || last_result->plan_analysis.empty()) {
        std::printf("  no executed query yet; run a query first\n");
        continue;
      }
      std::printf("%s", last_result->explain_analyze().c_str());
      continue;
    }
    if (input.rfind("\\events json", 0) == 0) {
      std::string path(StripAsciiWhitespace(
          input.substr(std::string("\\events json").size())));
      if (path.empty()) path = "unify_events.jsonl";
      std::ofstream out(path);
      if (!out) {
        std::printf("  cannot open %s\n", path.c_str());
        continue;
      }
      out << service->flight_recorder().ToJsonl();
      std::printf("  wrote %s\n", path.c_str());
      continue;
    }
    if (input.rfind("\\events", 0) == 0) {
      std::string arg(StripAsciiWhitespace(
          input.substr(std::string("\\events").size())));
      size_t limit = arg.empty() ? 16 : static_cast<size_t>(
                                            std::atoi(arg.c_str()));
      if (limit == 0) limit = 16;
      auto events = service->flight_recorder().events();
      const size_t first = events.size() > limit ? events.size() - limit : 0;
      std::printf("  %llu events recorded, %zu retained; showing %zu:\n",
                  static_cast<unsigned long long>(
                      service->flight_recorder().total_recorded()),
                  events.size(), events.size() - first);
      for (size_t i = first; i < events.size(); ++i) {
        const auto& e = events[i];
        std::printf("  #%-5llu %8.2fs %-13s q=%016llx %s%s%s%s\n",
                    static_cast<unsigned long long>(e.seq), e.wall_seconds,
                    core::ServeEventKindName(e.kind),
                    static_cast<unsigned long long>(e.query_id),
                    e.client_tag.empty() ? "" : (e.client_tag + " ").c_str(),
                    e.phase.empty() ? "" : ("[" + e.phase + "] ").c_str(),
                    e.total_seconds > 0
                        ? (FormatDouble(e.total_seconds, 1) + "s ").c_str()
                        : "",
                    e.detail.c_str());
      }
      continue;
    }
    if (input.rfind("\\slow json", 0) == 0) {
      auto slow = service->flight_recorder().slow_queries();
      if (slow.empty() || slow.front().trace == nullptr) {
        std::printf("  no slow-query trace retained yet\n");
        continue;
      }
      std::string path(StripAsciiWhitespace(
          input.substr(std::string("\\slow json").size())));
      if (path.empty()) path = "unify_slow_trace.json";
      std::ofstream out(path);
      if (!out) {
        std::printf("  cannot open %s\n", path.c_str());
        continue;
      }
      out << slow.front().trace->ToChromeJson();
      std::printf("  wrote %s (trace of the slowest query)\n", path.c_str());
      continue;
    }
    if (input == "\\slow") {
      auto slow = service->flight_recorder().slow_queries();
      if (slow.empty()) {
        std::printf("  no served queries yet\n");
        continue;
      }
      for (size_t i = 0; i < slow.size(); ++i) {
        const auto& s = slow[i];
        std::printf("  %zu. %7.1fs (%.1fs plan + %.1fs exec)%s %s%s\n",
                    i + 1, s.total_seconds, s.plan_seconds, s.exec_seconds,
                    s.trace != nullptr ? " [trace]" : "",
                    s.client_tag.empty() ? "" : (s.client_tag + ": ").c_str(),
                    s.text.c_str());
      }
      std::printf("  (\\slow json FILE exports the slowest query's trace)\n");
      continue;
    }
    if (input == "\\stats") {
      auto usage = llm.usage();
      std::printf("  %lld calls, %.1fk in-tokens, %.1fk out-tokens, "
                  "%.0f virtual seconds, $%.3f\n",
                  static_cast<long long>(usage.calls),
                  usage.in_tokens / 1000.0, usage.out_tokens / 1000.0,
                  usage.seconds, usage.dollars);
      auto stats = service->stats();
      std::printf("  serving: %lld served, %lld rejected, %lld past "
                  "deadline; pool clock %.0fs, %.0f busy seconds\n",
                  static_cast<long long>(stats.completed),
                  static_cast<long long>(stats.rejected),
                  static_cast<long long>(stats.deadline_exceeded),
                  stats.pool_now, stats.pool_busy_seconds);
      continue;
    }
    if (input.rfind("\\faults", 0) == 0) {
      std::string arg(StripAsciiWhitespace(
          input.substr(std::string("\\faults").size())));
      llm::FaultInjectingLlmClient* injector = system.fault_injector();
      if (arg == "off") {
        injector->set_rate_scale(0.0);
        std::printf("  fault injection off\n");
        continue;
      }
      if (arg.rfind("on", 0) == 0) {
        std::string scale_arg(StripAsciiWhitespace(arg.substr(2)));
        double scale = scale_arg.empty() ? 1.0 : std::atof(scale_arg.c_str());
        if (scale <= 0) {
          std::printf("  usage: \\faults on [S]   (S > 0)\n");
          continue;
        }
        injector->set_rate_scale(scale);
        const auto& r = injector->options().rates;
        std::printf("  fault injection on (scale %.2f: %.1f%% timeout, "
                    "%.1f%% rate-limit, %.1f%% malformed per attempt)\n",
                    scale, 100 * r.timeout * scale, 100 * r.rate_limit * scale,
                    100 * r.malformed * scale);
        continue;
      }
      if (!arg.empty()) {
        std::printf("  usage: \\faults [on [S] | off]\n");
        continue;
      }
      // Every fault, retry, hedge and breaker event is a registry counter;
      // each query's counters reach the global registry when it finishes.
      const MetricsSnapshot m = MetricsRegistry::Global().Snapshot();
      auto count = [&m](const char* family) {
        return std::llround(m.FamilySum(family));
      };
      std::printf("  injection %s (scale %.2f): %lld attempts seen, "
                  "%lld timeouts, %lld rate-limits, %lld malformed\n",
                  injector->rate_scale() > 0 ? "on" : "off",
                  injector->rate_scale(),
                  count(telemetry::kMetricLlmFaultAttempts),
                  count(telemetry::kMetricLlmFaultTimeouts),
                  count(telemetry::kMetricLlmFaultRateLimits),
                  count(telemetry::kMetricLlmFaultMalformed));
      std::printf("  retries: %lld issued, %lld calls recovered, %lld "
                  "exhausted (%lld by budget), %.1fs virtual backoff\n",
                  count(telemetry::kMetricLlmRetryAttempts),
                  count(telemetry::kMetricLlmRetryRecovered),
                  count(telemetry::kMetricLlmRetryExhausted),
                  count(telemetry::kMetricLlmRetryBudgetExhausted),
                  m.FamilySum(telemetry::kMetricLlmRetryBackoffSeconds));
      std::printf("  hedges: %lld launched, %lld won, $%.3f cancelled\n",
                  count(telemetry::kMetricLlmHedgeLaunched),
                  count(telemetry::kMetricLlmHedgeWins),
                  m.FamilySum(telemetry::kMetricLlmHedgeCancelledDollars));
      const auto* resilient = system.resilient_client();
      auto breaker_name = [](llm::ResilientLlmClient::BreakerState s) {
        switch (s) {
          case llm::ResilientLlmClient::BreakerState::kOpen:
            return "open";
          case llm::ResilientLlmClient::BreakerState::kHalfOpen:
            return "half-open";
          default:
            return "closed";
        }
      };
      std::printf("  breaker: planner %s, worker %s; %lld opens, %lld "
                  "rejections, %lld probes, %lld closes\n",
                  breaker_name(resilient->breaker_state(
                      llm::ModelTier::kPlanner)),
                  breaker_name(resilient->breaker_state(
                      llm::ModelTier::kWorker)),
                  count(telemetry::kMetricBreakerOpens),
                  count(telemetry::kMetricBreakerRejected),
                  count(telemetry::kMetricBreakerProbes),
                  count(telemetry::kMetricBreakerCloses));
      auto sstats = service->stats();
      std::printf("  served degraded: %lld\n",
                  static_cast<long long>(sstats.degraded));
      continue;
    }
    if (input.rfind("\\cache", 0) == 0) {
      std::string arg(StripAsciiWhitespace(
          input.substr(std::string("\\cache").size())));
      llm::SharedLlmCache* cache = system.llm_cache();
      if (arg == "clear") {
        cache->Clear();
        std::printf("  cache cleared\n");
        continue;
      }
      if (!arg.empty()) {
        std::printf("  usage: \\cache [clear]\n");
        continue;
      }
      const auto cstats = cache->stats();
      const int64_t lookups = cstats.item_hits + cstats.item_misses +
                              cstats.coalesced;
      std::printf("  shared cache: %lld entries (%.1f KiB), %lld hits, "
                  "%lld misses, %lld coalesced (%.1f%% served without a "
                  "base call)\n",
                  static_cast<long long>(cstats.entries),
                  cstats.bytes / 1024.0,
                  static_cast<long long>(cstats.item_hits),
                  static_cast<long long>(cstats.item_misses),
                  static_cast<long long>(cstats.coalesced),
                  lookups > 0 ? 100.0 * (cstats.item_hits + cstats.coalesced) /
                                    lookups
                              : 0.0);
      std::printf("  evictions: %lld; saved $%.3f of base-client spend\n",
                  static_cast<long long>(cstats.evictions),
                  cstats.saved_dollars);
      continue;
    }
    if (input == "\\vocab") {
      const auto& kb = docs.knowledge();
      std::printf("  %s:", docs.category_kind().c_str());
      for (const auto& c : kb.categories()) std::printf(" %s,", c.c_str());
      std::printf("\n  tags:");
      for (const auto& t : kb.tags()) std::printf(" %s,", t.c_str());
      std::printf("\n  groups:");
      for (const auto& g : kb.groups()) std::printf(" %s,", g.c_str());
      std::printf("\n  attributes: views, upvotes, answers, comments, "
                  "words\n");
      continue;
    }

    if (!input.empty() && input[0] == '\\') {
      std::printf("  unknown command '%s'; \\help lists commands\n",
                  input.c_str());
      continue;
    }

    // ";;" splits the line into a batch submitted concurrently; a plain
    // line is a batch of one.
    std::vector<std::string> batch;
    size_t pos = 0;
    while (true) {
      size_t sep = input.find(";;", pos);
      std::string piece(StripAsciiWhitespace(
          input.substr(pos, sep == std::string::npos ? sep : sep - pos)));
      if (!piece.empty()) batch.push_back(piece);
      if (sep == std::string::npos) break;
      pos = sep + 2;
    }
    if (batch.empty()) continue;

    std::vector<std::future<core::QueryResult>> futures;
    futures.reserve(batch.size());
    for (const auto& text : batch) {
      core::QueryRequest request;
      request.text = text;
      futures.push_back(service->Submit(std::move(request)));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      auto result = futures[i].get();
      if (result.trace != nullptr) last_trace = result.trace;
      if (!result.plan_analysis.empty()) {
        last_result = std::make_unique<core::QueryResult>(result);
      }
      if (batch.size() > 1) std::printf("[%zu] %s\n", i + 1, batch[i].c_str());
      if (!result.status.ok()) {
        std::printf("error (%s): %s\n", core::QueryPhaseName(result.phase),
                    result.status.ToString().c_str());
        continue;
      }
      if (result.phase == core::QueryPhase::kDegraded) {
        std::printf("degraded answer: %s\n", result.degraded_detail.c_str());
      }
      std::printf("%s\n", result.answer.ToString().c_str());
      std::printf("  [%.1fs planning + %.1fs execution%s%s%s]\n",
                  result.plan_seconds, result.exec_seconds,
                  result.used_fallback ? ", RAG fallback" : "",
                  result.adjusted ? ", plan adjusted" : "",
                  result.phase == core::QueryPhase::kDegraded ? ", degraded"
                                                              : "");
      if (show_plan) std::printf("%s", result.plan_explain.c_str());
      if (show_trace) {
        if (result.trace != nullptr) {
          std::printf("%s", result.trace->ToText().c_str());
        }
        std::printf("%s", result.timeline.c_str());
      }
    }
  }
  std::printf("\nbye.\n");
  return 0;
}
