// Shared-cache benchmark: 16 concurrent closed-loop clients replay the
// same Zipf-drawn template sequence through UnifyService — the dashboard
// fan-out shape where many clients ask the same hot questions at the
// same time — under fault injection at the calibrated total rate 0.06
// with the resilience layer armed. Three configurations:
//
//   "nocache"   — the shared cache disabled: every query pays its own
//                 per-document LLM calls;
//   "memoize"   — sharded CLOCK only (coalesce=false): completed answers
//                 are reused, but concurrent identical misses each pay
//                 the base client while their twin is still in flight;
//   "coalesce"  — the full SharedLlmCache: concurrent identical misses
//                 elect one leader, followers wait and are charged zero
//                 dollars (docs/caching.md).
//
// The headline metric is BASE-client dollars — the SimulatedLlm usage()
// delta across the serving run, i.e. what the provider would bill — so
// retries and hedges are counted and cache hits are not. Acceptance
// (docs/caching.md): coalescing cuts base dollars by >= 30% vs the
// no-coalescing cache on this workload, and with record_origin on, every
// cache entry re-derives against a fresh fault-free oracle (zero
// poisoned entries despite the injected malformed completions).
//
// Writes BENCH_caching.json. `--smoke` shrinks the corpus/workload so
// the binary doubles as a ctest smoke test (bench_caching_smoke). Scale
// knobs: bench_util.h.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"

namespace unify::bench {
namespace {

constexpr int kClients = 16;

/// Emulates provider WALL latency on top of the virtual-clock sim. The
/// virtual clock prices calls but burns no wall time, so without this
/// shim concurrent identical misses never actually overlap and
/// coalescing has nothing to do. With it, a cold call holds its
/// in-flight window open for a realistic beat while the 15 other clients
/// arrive — the production condition the coalescing path exists for.
/// Sits BELOW the cache (it wraps the system's base client), so hits and
/// followers skip the delay just as they skip the provider.
class WallLatencyLlm : public llm::LlmClient {
 public:
  explicit WallLatencyLlm(llm::LlmClient* base) : base_(base) {}

  llm::LlmResult Call(const llm::LlmCall& call) override {
    std::this_thread::sleep_for(std::chrono::microseconds(
        300 + 40 * static_cast<int64_t>(call.items.size())));
    return base_->Call(call);
  }
  llm::LlmUsage usage() const override { return base_->usage(); }
  void ResetUsage() override { base_->ResetUsage(); }

 private:
  llm::LlmClient* base_;
};

struct ConfigResult {
  std::string name;
  int requests = 0;
  int ok = 0;
  int degraded = 0;
  int failed = 0;
  double base_dollars = 0;   ///< SimulatedLlm usage() delta (provider bill)
  double query_dollars = 0;  ///< sum of QueryResult::exec_dollars
  int64_t attributed_hits = 0;       ///< sum of QueryResult::cache_item_hits
  int64_t attributed_coalesced = 0;  ///< sum of QueryResult::cache_coalesced
  llm::CacheStats cache;
  int64_t poisoned = -1;  ///< Validate() mismatches; -1 = not applicable
};

/// One serving run: kClients threads, each replaying `sequence` in order
/// through a 16-worker UnifyService, closed-loop.
ConfigResult RunConfig(BenchDataset& ds, const std::string& name,
                       bool cache_enabled, bool coalesce,
                       const std::vector<std::string>& sequence) {
  core::UnifyOptions opts;
  // Plan choice must not depend on earlier queries' measured costs, so
  // the three configurations plan identically.
  opts.cost_feedback = false;
  opts.faults.rates.timeout = 0.02;
  opts.faults.rates.rate_limit = 0.02;
  opts.faults.rates.malformed = 0.02;
  // Retries + graceful degradation only: hedging duplicates calls and an
  // open breaker truncates whole queries, and both do so by different
  // amounts across the three configurations (fewer base attempts = fewer
  // fault draws), which would make the base-dollar columns incomparable.
  opts.graceful_degradation = true;
  opts.cache.enabled = cache_enabled;
  opts.cache.coalesce = coalesce;
  opts.cache.record_origin = cache_enabled;  // poisoning audit
  WallLatencyLlm provider(ds.llm.get());
  core::UnifySystem system(ds.corpus.get(), &provider, opts);
  if (auto st = system.Setup(); !st.ok()) {
    std::printf("setup failed: %s\n", st.ToString().c_str());
    return ConfigResult{};
  }

  core::UnifyService::Options sopts;
  sopts.num_workers = kClients;
  sopts.max_queue_depth = 2 * kClients + 8;
  core::UnifyService service(&system, sopts);

  ConfigResult r;
  r.name = name;
  const double bill_before = ds.llm->usage().dollars;
  std::vector<std::vector<core::QueryResult>> results(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (const std::string& q : sequence) {
        core::QueryRequest request;
        request.text = q;
        request.client_tag = "client-" + std::to_string(c);
        results[static_cast<size_t>(c)].push_back(service.Answer(request));
      }
    });
  }
  for (auto& t : clients) t.join();
  r.base_dollars = ds.llm->usage().dollars - bill_before;

  for (const auto& per_client : results) {
    for (const core::QueryResult& qr : per_client) {
      r.requests += 1;
      if (qr.status.ok()) r.ok += 1;
      if (qr.phase == core::QueryPhase::kDegraded) r.degraded += 1;
      if (!qr.status.ok()) r.failed += 1;
      r.query_dollars += qr.exec_dollars;
      r.attributed_hits += qr.cache_item_hits;
      r.attributed_coalesced += qr.cache_coalesced;
    }
  }
  if (cache_enabled) {
    r.cache = system.llm_cache()->stats();
    // The audit the cache/fault composition rests on: every resident
    // entry must re-derive against a fresh fault-free oracle over the
    // same corpus.
    llm::SimulatedLlm oracle(ds.corpus.get(), llm::SimLlmOptions{});
    r.poisoned = system.llm_cache()->Validate(&oracle);
  }
  return r;
}

void AppendConfigJson(std::ofstream& out, const ConfigResult& r) {
  out << "{\"config\": \"" << r.name << "\", \"requests\": " << r.requests
      << ", \"ok\": " << r.ok << ", \"degraded\": " << r.degraded
      << ", \"failed\": " << r.failed
      << ", \"base_dollars\": " << r.base_dollars
      << ", \"query_dollars\": " << r.query_dollars
      << ", \"cache_item_hits\": " << r.cache.item_hits
      << ", \"cache_item_misses\": " << r.cache.item_misses
      << ", \"cache_coalesced\": " << r.cache.coalesced
      << ", \"cache_evictions\": " << r.cache.evictions
      << ", \"cache_entries\": " << r.cache.entries
      << ", \"cache_bytes\": " << r.cache.bytes
      << ", \"saved_dollars\": " << r.cache.saved_dollars
      << ", \"attributed_hits\": " << r.attributed_hits
      << ", \"attributed_coalesced\": " << r.attributed_coalesced
      << ", \"poisoned_entries\": " << r.poisoned << "}";
}

int Run(bool smoke) {
  BenchScale scale = BenchScale::FromEnv();
  if (smoke) {
    scale.per_template = 1;
    scale.max_docs = 720;
  } else if (scale.max_docs == 0) {
    scale.max_docs = 720;
  }
  BenchDataset ds = MakeDataset(corpus::SportsProfile(), scale);

  // Probe pass: answer every workload query once on a plain system (no
  // faults, no cache, no wall latency) and keep the most exec-expensive
  // templates. Those are the queries a shared cache exists for — the hot
  // expensive dashboards — and per-request planning cost, which no
  // answer cache can remove, is roughly flat across templates.
  std::vector<std::pair<double, size_t>> probe_cost;
  {
    core::UnifyOptions popts;
    popts.cost_feedback = false;
    core::UnifySystem probe(ds.corpus.get(), ds.llm.get(), popts);
    if (auto st = probe.Setup(); !st.ok()) {
      std::printf("probe setup failed: %s\n", st.ToString().c_str());
      return 1;
    }
    for (size_t i = 0; i < ds.workload.size(); ++i) {
      const double bill_before = ds.llm->usage().dollars;
      core::QueryResult qr = probe.Answer(ds.workload[i].text);
      const double total = ds.llm->usage().dollars - bill_before;
      if (!qr.status.ok()) continue;
      // Favor templates whose bill is execution (cacheable per-document
      // calls), not planning (uncacheable planner-tier calls): the score
      // is the cacheable spend minus the uncacheable spend.
      probe_cost.emplace_back(qr.exec_dollars - (total - qr.exec_dollars),
                              i);
    }
    std::sort(probe_cost.rbegin(), probe_cost.rend());
  }
  if (probe_cost.empty()) {
    std::printf("probe answered no queries\n");
    return 1;
  }

  // The shared sequence every client replays: template popularity over
  // the expensive pool is Zipf-shaped (a weighted draw without
  // replacement, hottest first), and the REPETITION comes from the 16
  // clients asking the same template at the same time — the dashboard
  // fan-out this bench models.
  const size_t unique = std::min<size_t>(smoke ? 4 : 8, probe_cost.size());
  const int rounds = static_cast<int>(std::min<size_t>(smoke ? 3 : 6,
                                                       unique));
  Rng zipf_rng(2024);
  std::vector<std::string> sequence;
  std::vector<bool> used(unique, false);
  while (sequence.size() < static_cast<size_t>(rounds)) {
    const uint64_t pick = zipf_rng.Zipf(unique, /*s=*/1.1);
    if (used[pick]) continue;
    used[pick] = true;
    sequence.push_back(ds.workload[probe_cost[pick].second].text);
  }
  std::printf("dataset %s: %zu docs, %d clients x %d requests over %zu "
              "templates (Zipf 1.1), fault rate 0.06\n",
              ds.name.c_str(), ds.corpus->size(), kClients, rounds, unique);

  std::vector<ConfigResult> cells;
  cells.push_back(RunConfig(ds, "nocache", false, false, sequence));
  cells.push_back(RunConfig(ds, "memoize", true, false, sequence));
  cells.push_back(RunConfig(ds, "coalesce", true, true, sequence));

  std::printf("%-10s %5s %4s %9s %7s %11s %8s %9s %10s %9s\n", "config",
              "req", "ok", "degraded", "failed", "base_$", "query_$",
              "hits", "coalesced", "poisoned");
  for (const ConfigResult& r : cells) {
    std::printf("%-10s %5d %4d %9d %7d %11.3f %8.3f %9lld %10lld %9lld\n",
                r.name.c_str(), r.requests, r.ok, r.degraded, r.failed,
                r.base_dollars, r.query_dollars,
                static_cast<long long>(r.cache.item_hits),
                static_cast<long long>(r.cache.coalesced),
                static_cast<long long>(r.poisoned));
  }
  const ConfigResult& memoize = cells[1];
  const ConfigResult& coalesce = cells[2];
  const double reduction =
      memoize.base_dollars > 0
          ? 100.0 * (1.0 - coalesce.base_dollars / memoize.base_dollars)
          : 0.0;
  std::printf("coalescing cut base-client dollars by %.1f%% vs the "
              "no-coalescing cache\n", reduction);

  std::ofstream out("BENCH_caching.json");
  out << "{\n  \"benchmark\": \"caching\",\n";
  out << "  \"dataset\": \"" << ds.name << "\",\n";
  out << "  \"docs\": " << ds.corpus->size() << ",\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  out << "  \"clients\": " << kClients << ",\n";
  out << "  \"requests_per_client\": " << rounds << ",\n";
  out << "  \"unique_templates\": " << unique << ",\n";
  out << "  \"fault_rate\": 0.06,\n";
  out << "  \"base_dollar_reduction_pct\": " << reduction << ",\n";
  out << "  \"configs\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    out << "    ";
    AppendConfigJson(out, cells[i]);
    out << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote BENCH_caching.json\n");

  // Acceptance checks (also the ctest smoke assertions):
  //   1. every request completes (admission never rejects this load);
  //   2. zero poisoned entries in both cached configurations;
  //   3. coalescing cuts base-client dollars >= 30% vs memoization.
  const int expected = kClients * rounds;
  for (const ConfigResult& r : cells) {
    if (r.requests != expected || r.ok + r.failed != r.requests) {
      std::printf("check failed: %s completed %d/%d requests\n",
                  r.name.c_str(), r.requests, expected);
      return 1;
    }
  }
  for (const ConfigResult* r : {&memoize, &coalesce}) {
    if (r->poisoned != 0) {
      std::printf("check failed: %s audited %lld poisoned cache entries\n",
                  r->name.c_str(), static_cast<long long>(r->poisoned));
      return 1;
    }
  }
  if (reduction < 30.0) {
    std::printf("check failed: base-dollar reduction %.1f%% < 30%%\n",
                reduction);
    return 1;
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
      "caching: shared CLOCK + in-flight coalescing under a 16-client "
      "overlapping served workload");
  return unify::bench::Run(smoke);
}
