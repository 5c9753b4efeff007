// Resilience benchmark: goodput, latency and dollars under injected LLM
// faults, with and without the resilience layer (retries + hedging +
// circuit breaker + graceful degradation).
//
// Sweep: fault rate r in {0.03, 0.06, 0.12} (total per-attempt probability,
// split evenly across timeout / rate-limit / malformed), each run twice on
// the Sports workload:
//
//   "fragile"   — resilience off: one attempt per call, failures surface;
//   "resilient" — capped-backoff retries, hedged stragglers, per-tier
//                 breaker, graceful degradation.
//
// A fault-free baseline run provides the reference answers; a query
// "recovers" when its answer is byte-identical to the baseline's. The
// headline claim (docs/resilience.md): at the calibrated rate 0.06 the
// resilient configuration recovers >= 95% of queries to fault-free
// byte-identical answers.
//
// Writes BENCH_resilience.json. `--smoke` shrinks the corpus/workload and
// sweeps only the calibrated rate so the binary doubles as a ctest smoke
// test (bench_resilience_smoke). Scale knobs: bench_util.h.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"

namespace unify::bench {
namespace {

struct RunStats {
  int total = 0;
  int ok = 0;         ///< status OK (incl. degraded)
  int identical = 0;  ///< answer byte-identical to the fault-free baseline
  int degraded = 0;
  int failed = 0;
  double total_seconds = 0;
  double dollars = 0;
  /// Every query's QueryResult::metrics, summed: the run's fault, retry,
  /// hedge and breaker counters.
  MetricsSnapshot metrics;
};

/// One full workload pass under `fault_total` per-attempt fault
/// probability. `baseline` (when non-empty) holds the fault-free answers;
/// `capture` (when non-null) receives this run's answers.
RunStats RunWorkload(BenchDataset& ds, double fault_total, bool resilient,
                     size_t max_queries,
                     const std::vector<std::string>& baseline,
                     std::vector<std::string>* capture) {
  core::UnifyOptions opts;
  // Plan choice must not depend on earlier queries' measured costs —
  // byte-identity comparisons need run-order independence.
  opts.cost_feedback = false;
  opts.faults.rates.timeout = fault_total / 3;
  opts.faults.rates.rate_limit = fault_total / 3;
  opts.faults.rates.malformed = fault_total / 3;
  if (resilient) {
    opts.resilience.hedge.enabled = true;
    opts.resilience.breaker.enabled = true;
    opts.graceful_degradation = true;
  } else {
    opts.resilience.retry.max_attempts = 1;
  }
  core::UnifySystem system(ds.corpus.get(), ds.llm.get(), opts);
  if (auto st = system.Setup(); !st.ok()) {
    std::printf("setup failed: %s\n", st.ToString().c_str());
    return RunStats{};
  }

  RunStats stats;
  MetricsRegistry run_metrics;
  for (const auto& qc : ds.workload) {
    if (static_cast<size_t>(stats.total) >= max_queries) break;
    core::QueryResult result = system.Answer(qc.text);
    const std::string answer = result.answer.ToString();
    if (capture != nullptr) capture->push_back(answer);
    const size_t i = static_cast<size_t>(stats.total);
    stats.total += 1;
    if (result.status.ok()) stats.ok += 1;
    if (result.phase == core::QueryPhase::kDegraded) stats.degraded += 1;
    if (!result.status.ok()) stats.failed += 1;
    if (result.status.ok() &&
        result.phase != core::QueryPhase::kDegraded &&
        i < baseline.size() && answer == baseline[i]) {
      stats.identical += 1;
    }
    stats.total_seconds += result.total_seconds;
    stats.dollars += result.exec_dollars;
    run_metrics.Merge(result.metrics);
  }
  stats.metrics = run_metrics.Snapshot();
  return stats;
}

void AppendRunJson(std::ofstream& out, const RunStats& s) {
  // Per-type and per-tier families sum over their series.
  auto count = [&s](const char* family) {
    return std::llround(s.metrics.FamilySum(family));
  };
  out << "{\"queries\": " << s.total << ", \"ok\": " << s.ok
      << ", \"identical\": " << s.identical
      << ", \"degraded\": " << s.degraded << ", \"failed\": " << s.failed
      << ", \"avg_seconds\": "
      << (s.total > 0 ? s.total_seconds / s.total : 0)
      << ", \"dollars\": " << s.dollars
      << ", \"retries\": " << count(telemetry::kMetricLlmRetryAttempts)
      << ", \"recovered_calls\": "
      << count(telemetry::kMetricLlmRetryRecovered)
      << ", \"exhausted_calls\": "
      << count(telemetry::kMetricLlmRetryExhausted)
      << ", \"hedges\": " << count(telemetry::kMetricLlmHedgeLaunched)
      << ", \"hedge_wins\": " << count(telemetry::kMetricLlmHedgeWins)
      << ", \"breaker_opens\": " << count(telemetry::kMetricBreakerOpens)
      << ", \"injected_timeouts\": "
      << count(telemetry::kMetricLlmFaultTimeouts)
      << ", \"injected_rate_limits\": "
      << count(telemetry::kMetricLlmFaultRateLimits)
      << ", \"injected_malformed\": "
      << count(telemetry::kMetricLlmFaultMalformed) << "}";
}

int Run(bool smoke) {
  BenchScale scale = BenchScale::FromEnv();
  if (smoke) {
    scale.per_template = 1;
    scale.max_docs = 200;
  } else if (scale.max_docs == 0) {
    scale.max_docs = 600;
  }
  corpus::DatasetProfile profile;
  for (const auto& p : corpus::AllProfiles()) {
    if (p.name == "sports") profile = p;
  }
  BenchDataset ds = MakeDataset(profile, scale);
  const size_t max_queries = smoke ? 8 : ds.workload.size();

  // Fault-free reference answers (also sanity-checks that the resilience
  // stack at rate 0 is a pure pass-through: every baseline query must
  // behave exactly as before the layer existed).
  std::vector<std::string> baseline;
  PrintHeaderLine("baseline (fault rate 0, " +
                  std::to_string(ds.corpus->size()) + " docs)");
  RunStats base =
      RunWorkload(ds, 0.0, /*resilient=*/true, max_queries, {}, &baseline);
  std::printf("  %d queries, %d ok, %.1fs avg, $%.3f total\n", base.total,
              base.ok, base.total > 0 ? base.total_seconds / base.total : 0,
              base.dollars);

  const std::vector<double> rates =
      smoke ? std::vector<double>{0.06}
            : std::vector<double>{0.03, 0.06, 0.12};
  PrintHeaderLine("fault sweep (" + std::to_string(base.total) +
                  " queries per cell)");
  std::printf("%-8s %-10s %6s %10s %9s %7s %9s %8s\n", "rate", "config",
              "ok", "identical", "degraded", "failed", "avg_s", "$");
  std::vector<std::pair<double, std::pair<RunStats, RunStats>>> cells;
  for (double rate : rates) {
    RunStats fragile = RunWorkload(ds, rate, /*resilient=*/false,
                                   max_queries, baseline, nullptr);
    RunStats resilient = RunWorkload(ds, rate, /*resilient=*/true,
                                     max_queries, baseline, nullptr);
    for (const auto& [name, s] :
         {std::pair<const char*, const RunStats&>{"fragile", fragile},
          {"resilient", resilient}}) {
      std::printf("%-8.2f %-10s %6d %10d %9d %7d %9.1f %8.3f\n", rate, name,
                  s.ok, s.identical, s.degraded, s.failed,
                  s.total > 0 ? s.total_seconds / s.total : 0, s.dollars);
    }
    cells.emplace_back(rate, std::make_pair(fragile, resilient));
  }

  std::ofstream out("BENCH_resilience.json");
  out << "{\n  \"benchmark\": \"resilience\",\n";
  out << "  \"dataset\": \"" << ds.name << "\",\n";
  out << "  \"docs\": " << ds.corpus->size() << ",\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  out << "  \"baseline\": ";
  AppendRunJson(out, base);
  out << ",\n  \"sweep\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    out << "    {\"fault_rate\": " << cells[i].first << ",\n";
    out << "     \"fragile\": ";
    AppendRunJson(out, cells[i].second.first);
    out << ",\n     \"resilient\": ";
    AppendRunJson(out, cells[i].second.second);
    out << "}" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote BENCH_resilience.json\n");

  // Acceptance checks (also the ctest smoke assertions):
  //   1. the fault-free baseline answers every query successfully;
  //   2. at the calibrated rate 0.06 the resilient config recovers >= 95%
  //      of queries to byte-identical fault-free answers.
  if (base.total == 0 || base.ok != base.total) {
    std::printf("check failed: fault-free baseline had failures (%d/%d)\n",
                base.ok, base.total);
    return 1;
  }
  for (const auto& [rate, pair] : cells) {
    if (rate != 0.06) continue;
    const RunStats& s = pair.second;
    if (s.identical * 100 < s.total * 95) {
      std::printf("check failed: resilient recovery %d/%d < 95%% at rate "
                  "%.2f\n",
                  s.identical, s.total, rate);
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace unify::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  unify::bench::PrintHeaderLine(
      "resilience: goodput/latency/dollars under injected LLM faults");
  return unify::bench::Run(smoke);
}
