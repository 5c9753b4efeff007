// perfbench: the repository benchmark (see ../README.md for every metric,
// its unit, its layer and the end-to-end metric it should move).
//
//   perfbench --workload {paper_seq|serve_distinct|serve_hot} --seed N
//             --seconds S --trace {0|1} [--trace-out FILE]
//
// It drives the library only through public entry points
// (UnifySystem::Setup/Answer, UnifyService::Submit/stats, loopback HTTP
// GETs) plus its own LlmClient decorator around the simulator, checks
// the answers, and prints one JSON object as the last line of stdout:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <condition_variable>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_lib.h"
#include "corpus/workload.h"
#include "layers.h"
#include "llm/tracing_client.h"
#include "timed_llm.h"
#include "unify/api.h"

namespace unify::perfbench {
namespace {

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupRounds = 3;
/// Completed requests every workload reaches per run, so each p99 has at
/// least kMinTailSamples samples beyond it.
constexpr size_t kMinCompleted = 1000;
/// Generator threads a workload may use (the benchmark machine's nproc).
constexpr int kGeneratorThreads = 4;
/// Hard cap on one measured window, far below the per-run time limit.
constexpr double kMaxWindowSeconds = 100;
/// Floor on accuracy below which answers count as broken, not merely
/// imprecise (the simulated LLM's seeded error model gives ~0.85).
constexpr double kMinAccuracy = 0.6;
/// paper_seq: queries replayed on fresh systems to prove determinism.
constexpr size_t kReplayQueries = 200;
/// Traced requests whose program and simulator spans go to the trace
/// file (every request and scrape span does), keeping the file small.
constexpr size_t kTraceDetailRequests = 300;
/// serve_distinct: the scraper GETs /metrics every time the service's
/// virtual clock (the latest completion it has reported) passes another
/// interval. 60 s is Prometheus's default `scrape_interval`. It runs on
/// the virtual clock because that is the time a deployment with a remote
/// model would see: a query takes minutes there, milliseconds here.
constexpr double kScrapeIntervalVirtSeconds = 60;
/// serve_distinct: the query pool holds this many distinct texts per
/// second of window, about twice the fastest rate seen on a 4-core
/// x86-64 box, so no text is sent twice. Should a faster machine use
/// them all up, the window ends there.
constexpr size_t kDistinctPerSecond = 500;
/// serve_hot: candidates and pooled instances per template, Zipf skew,
/// tenants, service workers and requests outstanding per generator thread
/// (more than the workers, so the scheduler always chooses). Two workers
/// keep the process below the machine's 4 cores, so wall numbers measure
/// the engine rather than whatever else shares the machine. The skew is
/// the Zipf 1.1 over templates of the repository's own cache benchmark
/// (bench/bench_caching.cc), used for tenants too; no public trace backs
/// it, so it is an assumption, and llm.cache.hit_ratio reports the hit
/// ratio it produces.
constexpr size_t kHotCandidates = 12;
constexpr size_t kHotInstances = 6;
constexpr double kHotSkew = 1.1;
constexpr int kHotTenants = 5;
constexpr int kHotWorkers = 2;
constexpr int kHotOutstanding = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run prints.
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;

  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }
double Millis(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// The percentile the choosing-metrics rule allows: `q`, or the highest
/// one below it that still leaves kMinTailSamples samples beyond it.
double TailPercentile(const std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  const double n = static_cast<double>(values.size());
  const double allowed =
      std::min(q, (n - static_cast<double>(kMinTailSamples)) / n);
  return Percentile(values, std::max(0.0, allowed), 0).value_or(0);
}

void RunParallel(size_t n, const std::function<void(size_t)>& fn) {
  std::vector<std::thread> threads;
  for (size_t i = 0; i < n; ++i) threads.emplace_back(fn, i);
  for (auto& t : threads) t.join();
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// One corpus and its distinct generated queries (input generation is
/// outside every timed interval, set-up included).
struct Dataset {
  std::unique_ptr<corpus::Corpus> corpus;
  std::vector<corpus::QueryCase> queries;
};

/// Corpus and queries of `profile` for `seed`: workload draws of
/// `per_template` instances per template, deduplicated by text and
/// shuffled. One draw when `min_distinct` is 0; otherwise rounds of
/// kGeneratorThreads parallel draws until `min_distinct` distinct texts
/// exist, truncated to exactly that many.
Dataset MakeDataset(const corpus::DatasetProfile& profile, uint64_t seed,
                    int per_template, size_t min_distinct = 0) {
  const uint64_t base = HashCombine(seed, StableHash64(profile.name));
  Dataset ds;
  ds.corpus = std::make_unique<corpus::Corpus>(
      corpus::GenerateCorpus(profile, HashCombine(base, 1)));
  const size_t draws = min_distinct > 0 ? kGeneratorThreads : 1;
  std::set<std::string> seen;
  for (size_t round = 0; round == 0 || ds.queries.size() < min_distinct;
       ++round) {
    std::vector<std::vector<corpus::QueryCase>> parts(draws);
    RunParallel(draws, [&](size_t g) {
      corpus::WorkloadOptions wopts;
      wopts.per_template = per_template;
      wopts.seed = HashCombine(base, 100 + round * draws + g);
      parts[g] = corpus::GenerateWorkload(*ds.corpus, wopts);
    });
    const size_t before = ds.queries.size();
    for (auto& part : parts) {
      for (auto& qc : part) {
        if (seen.insert(qc.text).second) ds.queries.push_back(std::move(qc));
      }
    }
    if (ds.queries.size() == before) break;  // the literal space is spent
  }
  if (min_distinct > 0 && ds.queries.size() > min_distinct) {
    ds.queries.resize(min_distinct);
  }
  Rng(HashCombine(base, 2)).Shuffle(ds.queries);
  return ds;
}

/// `count` indices of `queries` taken round-robin over template ids, so
/// every seed runs the same template mix (templates with lower ids take
/// the remainder) and only the literals vary.
std::vector<size_t> BalancedByTemplate(
    const std::vector<corpus::QueryCase>& queries, size_t count) {
  std::map<int, std::vector<size_t>> by_template;
  for (size_t i = 0; i < queries.size(); ++i) {
    by_template[queries[i].template_id].push_back(i);
  }
  std::vector<size_t> chosen;
  for (size_t round = 0; chosen.size() < count; ++round) {
    const size_t before = chosen.size();
    for (const auto& [id, indices] : by_template) {
      if (round < indices.size() && chosen.size() < count) {
        chosen.push_back(indices[round]);
      }
    }
    if (chosen.size() == before) break;  // every template exhausted
  }
  return chosen;
}

// ---------------------------------------------------------------------------
// Systems under test
// ---------------------------------------------------------------------------

/// One set-up system: the simulator, the benchmark's decorator around it,
/// the UnifySystem, and optionally a service. Members are destroyed in
/// reverse order, so the service drains before the system goes away.
struct Instance {
  std::unique_ptr<llm::SimulatedLlm> sim;
  std::unique_ptr<TimedLlm> timed;
  std::unique_ptr<core::UnifySystem> system;
  std::unique_ptr<core::UnifyService> service;
  /// Setup() plus service construction.
  double setup_seconds = 0;
};

Status SetUp(const corpus::Corpus* corpus, const core::UnifyOptions& options,
             const core::UnifyService::Options* service_options,
             Instance* inst) {
  inst->sim = std::make_unique<llm::SimulatedLlm>(corpus, llm::SimLlmOptions{});
  inst->timed = std::make_unique<TimedLlm>(inst->sim.get());
  const int64_t t0 = NowNs();
  inst->system = std::make_unique<core::UnifySystem>(corpus, inst->timed.get(),
                                                     options);
  Status status = inst->system->Setup();
  if (status.ok() && service_options != nullptr) {
    inst->service = std::make_unique<core::UnifyService>(inst->system.get(),
                                                         *service_options);
  }
  inst->setup_seconds = Seconds(NowNs() - t0);
  return status;
}

double Median(std::vector<double> v) {
  return Percentile(std::move(v), 0.5, 0).value_or(0);
}

/// One system (and service, when `service_options` is set) per corpus.
using SystemSet = std::vector<std::unique_ptr<Instance>>;

/// Sets up a fresh SystemSet; `seconds` gets the sum of its set-up times.
bool SetUpSet(const std::vector<const corpus::Corpus*>& corpora,
              const core::UnifyOptions& options,
              const core::UnifyService::Options* service_options,
              SystemSet* set, double* seconds, Report* report) {
  set->clear();
  *seconds = 0;
  for (const corpus::Corpus* corpus : corpora) {
    set->push_back(std::make_unique<Instance>());
    if (Status st = SetUp(corpus, options, service_options, set->back().get());
        !st.ok()) {
      report->Fail("Setup failed: " + st.ToString());
      return false;
    }
    *seconds += set->back()->setup_seconds;
  }
  return true;
}

/// kSetupRounds set-up rounds, each destroying the previous round's set
/// first, so one set is alive at a time and peak_rss_mb reflects one.
/// Keeps the last set in `set`; `setup_s` gets the median round.
bool SetUpRounds(const std::vector<const corpus::Corpus*>& corpora,
                 const core::UnifyOptions& options,
                 const core::UnifyService::Options* service_options,
                 SystemSet* set, double* setup_s, Report* report) {
  std::vector<double> rounds;
  for (int r = 0; r < kSetupRounds; ++r) {
    double seconds = 0;
    if (!SetUpSet(corpora, options, service_options, set, &seconds, report)) {
      return false;
    }
    rounds.push_back(seconds);
  }
  *setup_s = Median(rounds);
  return true;
}

/// Simulator usage over a window, read from both sides of the decorator.
class SimMeter {
 public:
  SimMeter(std::vector<Instance*> instances, bool record_spans)
      : instances_(std::move(instances)) {
    for (Instance* inst : instances_) {
      inst->timed->Reset();
      inst->timed->set_record_spans(record_spans);
      const llm::LlmUsage u = inst->sim->usage();
      calls0_ += u.calls;
      dollars0_ += u.dollars;
    }
  }

  /// Call once, after the window's threads are joined.
  void Finish(TimedLlm::Totals* totals, int64_t* usage_calls,
              double* usage_dollars,
              std::vector<TimedLlm::SimSpan>* spans) {
    *totals = TimedLlm::Totals{};
    int64_t calls = 0;
    double dollars = 0;
    for (Instance* inst : instances_) {
      inst->timed->set_record_spans(false);
      *totals += inst->timed->totals();
      const llm::LlmUsage u = inst->sim->usage();
      calls += u.calls;
      dollars += u.dollars;
      auto s = inst->timed->TakeSpans();
      spans->insert(spans->end(), s.begin(), s.end());
    }
    *usage_calls = calls - calls0_;
    *usage_dollars = dollars - dollars0_;
  }

 private:
  std::vector<Instance*> instances_;
  int64_t calls0_ = 0;
  double dollars0_ = 0;
};

// ---------------------------------------------------------------------------
// Samples and windows
// ---------------------------------------------------------------------------

/// What the benchmark keeps of one attempted request.
struct Sample {
  size_t query = 0;
  /// The closed-loop slot that sent it (its virtual clock's owner).
  int slot = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int thread = 0;
  bool ok = false;
  /// The answer as returned and its ground truth; Score() fills `correct`
  /// and `answer_text` after the window, so scoring is not timed.
  corpus::Answer answer;
  const corpus::Answer* truth = nullptr;
  bool correct = false;
  std::string answer_text;
  double total_s = 0;
  double plan_s = 0;
  double exec_s = 0;
  double pred_exec_s = 0;
  double completion_s = 0;
  double queue_wall_s = 0;
  double llm_calls = 0;
  double llm_dollars = 0;
  int64_t cache_coalesced = 0;
  bool fallback = false;
  double reductions = 0;
  double backtracks = 0;
  double sce_samples = 0;
  double adjustments = 0;
  double queue_wait_virt_s = 0;
  double busy_virt_s = 0;
  std::vector<double> qerrors;
  std::shared_ptr<Trace> trace;
};

double Counter(const MetricsSnapshot& m, const char* name) {
  const auto it = m.counters.find(name);
  return it == m.counters.end() ? 0 : it->second;
}

Sample ToSample(core::QueryResult& r, const corpus::Answer& truth,
                size_t query, int64_t start_ns, int64_t end_ns) {
  Sample s;
  s.query = query;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.thread = ThreadOrdinal();
  s.ok = r.status.ok();
  s.answer = std::move(r.answer);
  s.truth = &truth;
  s.total_s = r.total_seconds;
  s.plan_s = r.plan_seconds;
  s.exec_s = r.exec_seconds;
  s.pred_exec_s = r.predicted_exec_seconds;
  s.completion_s = r.completion_seconds;
  s.queue_wall_s = r.queue_wall_seconds;
  s.llm_calls = Counter(r.metrics, telemetry::kMetricLlmCalls);
  s.llm_dollars = Counter(r.metrics, telemetry::kMetricLlmDollars);
  s.cache_coalesced = r.cache_coalesced;
  s.fallback = r.used_fallback;
  s.reductions = Counter(r.metrics, telemetry::kMetricPlanReductions);
  s.backtracks = Counter(r.metrics, telemetry::kMetricPlanBacktracks);
  s.sce_samples = Counter(r.metrics, telemetry::kMetricSceSamples);
  s.adjustments = Counter(r.metrics, telemetry::kMetricExecAdjustments);
  for (const auto& node : r.plan_analysis) {
    s.queue_wait_virt_s += node.queue_wait_seconds;
    if (!node.executed || node.synthetic_fallback) continue;
    s.busy_virt_s += node.actual_seconds;
    s.qerrors.push_back(node.card_qerror);
  }
  s.trace = r.trace;
  return s;
}

/// Scores every sample against its ground truth.
void Score(std::vector<Sample>* samples) {
  for (Sample& s : *samples) {
    s.correct = s.ok && corpus::Answer::Equivalent(s.answer, *s.truth);
    s.answer_text = s.answer.ToString();
  }
}

/// Completion time of one /metrics scrape.
struct Scrape {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  size_t bytes = 0;
  bool ok = false;
};

/// Everything measured over one timed window.
struct Window {
  std::vector<Sample> samples;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Process CPU over the window, and the part of it the benchmark's own
  /// threads spent outside library calls (generating, polling, waiting,
  /// the scraper's client side).
  int64_t cpu_ns = 0;
  int64_t harness_cpu_ns = 0;
  /// Peak resident set when the window ended, before any replay or
  /// reference work that follows it.
  double peak_rss_mb = 0;
  TimedLlm::Totals sim;
  int64_t usage_calls = 0;
  double usage_dollars = 0;
  std::vector<TimedLlm::SimSpan> sim_spans;
  /// Virtual makespan the window's queries occupied.
  double virt_makespan = 0;
  /// Closed-loop virtual throughput: over slots, completions divided by
  /// the slot's virtual clock at its last completion.
  double virt_qps = 0;
  double busy_share = 0;
  llm::CacheStats cache;
  int64_t rejected = 0;
  int64_t shed = 0;
  std::vector<Scrape> scrapes;

  size_t completed() const {
    return static_cast<size_t>(std::count_if(
        samples.begin(), samples.end(), [](const Sample& s) { return s.ok; }));
  }
  double wall_seconds() const { return Seconds(end_ns - start_ns); }
};

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Fails the run unless the decorator saw exactly the simulator's usage.
void CheckDecorator(const Window& w, Report* report) {
  const double tol = 1e-9 * std::max(1.0, std::fabs(w.usage_dollars));
  if (w.sim.calls != w.usage_calls ||
      std::fabs(w.sim.dollars - w.usage_dollars) > tol) {
    report->Fail("decorator saw " + std::to_string(w.sim.calls) +
                 " calls / $" + std::to_string(w.sim.dollars) +
                 " but the simulator reports " +
                 std::to_string(w.usage_calls) + " / $" +
                 std::to_string(w.usage_dollars));
  }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Sets attempted/failed and enforces the sample count every p99 needs.
void SetCounts(const Window& w, Report* report) {
  const size_t completed = w.completed();
  report->attempted = static_cast<int64_t>(w.samples.size());
  report->failed = static_cast<int64_t>(w.samples.size() - completed);
  if (completed < kMinCompleted) {
    report->Fail("only " + std::to_string(completed) +
                 " requests completed; p99 needs " +
                 std::to_string(kMinCompleted));
  }
}

void AddEndToEnd(const Window& w, double setup_s, Report* report) {
  SetCounts(w, report);
  const size_t attempted = w.samples.size();
  const size_t completed = w.completed();
  std::vector<double> virt;
  std::vector<double> wall_ms;
  size_t correct = 0;
  for (const auto& s : w.samples) {
    if (s.correct) ++correct;
    if (!s.ok) continue;
    virt.push_back(s.total_s);
    wall_ms.push_back(Millis(s.end_ns - s.start_ns));
  }
  const double done = std::max<double>(1, static_cast<double>(completed));
  const double accuracy =
      static_cast<double>(correct) / std::max<double>(1, attempted);
  if (accuracy < kMinAccuracy) {
    report->Fail("accuracy " + std::to_string(accuracy) + " below floor");
  }
  report->Add("accuracy", accuracy, "share");
  report->Add("virt_latency_s_p50", Percentile(virt, 0.5).value_or(0), "s");
  report->Add("virt_latency_s_p99", Percentile(virt, 0.99).value_or(0), "s");
  report->Add("dollars_per_query", w.usage_dollars / done, "USD");
  report->Add("llm_calls_per_query", static_cast<double>(w.usage_calls) / done,
              "count");
  report->Add("virt_qps", w.virt_qps, "1/s");
  report->Add("wall_qps", done / w.wall_seconds(), "1/s");
  report->Add("wall_ms_p50", Percentile(wall_ms, 0.5).value_or(0), "ms");
  report->Add("wall_ms_p99", Percentile(wall_ms, 0.99).value_or(0), "ms");
  report->Add("engine_cpu_ms_per_query",
              Millis(w.cpu_ns - w.sim.cpu_ns - w.harness_cpu_ns) / done, "ms");
  report->Add("completed_share", completed / std::max<double>(1, attempted),
              "share");
  report->Add("setup_s", setup_s, "s");
  report->Add("peak_rss_mb", w.peak_rss_mb, "MB");
}

/// Self times and simulator time summed over a window's traced requests.
struct LayerTotals {
  std::map<std::string, double> self_ms;
  double sim_ms = 0;
  double request_ms = 0;
  double unaccounted_ms = 0;
  double spans = 0;
  size_t requests = 0;
};

void AddPerLayer(const Window& w, const LayerTotals& layers,
                 double trace_overhead, Report* report) {
  SetCounts(w, report);
  const double done =
      std::max<double>(1, static_cast<double>(w.completed()));
  const TimedLlm::Totals& sim = w.sim;
  auto type_calls = [&](llm::PromptType t) {
    return static_cast<double>(sim.calls_by_type[static_cast<int>(t)]) / done;
  };
  report->Add("llm.sim.calls.planner", sim.planner_calls / done, "count");
  report->Add("llm.sim.calls.worker", sim.worker_calls / done, "count");
  report->Add("llm.sim.calls.semantic_parse",
              type_calls(llm::PromptType::kSemanticParse), "count");
  report->Add("llm.sim.calls.rerank_operators",
              type_calls(llm::PromptType::kRerankOperators), "count");
  report->Add("llm.sim.calls.reduce_query",
              type_calls(llm::PromptType::kReduceQuery), "count");
  report->Add("llm.sim.calls.eval_predicate",
              type_calls(llm::PromptType::kEvalPredicate), "count");
  report->Add("llm.sim.calls.extract_value",
              type_calls(llm::PromptType::kExtractValue), "count");
  report->Add("llm.sim.calls.classify_doc",
              type_calls(llm::PromptType::kClassifyDoc), "count");
  const double calls = std::max<double>(1, static_cast<double>(sim.calls));
  report->Add("llm.sim.items_per_call", static_cast<double>(sim.items) / calls,
              "count");
  report->Add("llm.sim.cpu_ms_per_query", Millis(sim.cpu_ns) / done, "ms");
  report->Add("llm.sim.wall_ms_per_call", Millis(sim.wall_ns) / calls, "ms");
  report->Add("llm.sim.virt_s_per_query", sim.virt_seconds / done, "s");

  const double lookups =
      static_cast<double>(w.cache.item_hits + w.cache.item_misses);
  double coalesced = 0;
  for (const auto& s : w.samples) coalesced += static_cast<double>(s.cache_coalesced);
  report->Add("llm.cache.hit_ratio",
              lookups > 0 ? static_cast<double>(w.cache.item_hits) / lookups : 0,
              "share");
  report->Add("llm.cache.coalesced_per_query", coalesced / done, "count");
  report->Add("llm.cache.entries", static_cast<double>(w.cache.entries),
              "count");
  report->Add("llm.cache.bytes", static_cast<double>(w.cache.bytes), "bytes");

  const double traced = std::max<double>(1, static_cast<double>(layers.requests));
  auto self_ms = [&](const std::string& layer) {
    const auto it = layers.self_ms.find(layer);
    return it == layers.self_ms.end() ? 0.0 : it->second / traced;
  };
  double reductions = 0, backtracks = 0, plan_s = 0, exec_s = 0,
         fallbacks = 0, sce_samples = 0, adjustments = 0, queue_wait = 0;
  std::vector<double> qerrors, pred_err, queue_ms, run_ms;
  for (const auto& s : w.samples) {
    if (!s.ok) continue;
    reductions += s.reductions;
    backtracks += s.backtracks;
    plan_s += s.plan_s;
    exec_s += s.exec_s;
    fallbacks += s.fallback ? 1 : 0;
    sce_samples += s.sce_samples;
    adjustments += s.adjustments;
    queue_wait += s.queue_wait_virt_s;
    qerrors.insert(qerrors.end(), s.qerrors.begin(), s.qerrors.end());
    // Symmetric, so cache hits that make execution far cheaper than
    // predicted read as an error near 1, not as a huge ratio.
    const double larger = std::max(s.pred_exec_s, s.exec_s);
    if (larger > 0) {
      pred_err.push_back(std::fabs(s.pred_exec_s - s.exec_s) / larger);
    }
    queue_ms.push_back(s.queue_wall_s * 1e3);
    run_ms.push_back(Millis(s.end_ns - s.start_ns) - s.queue_wall_s * 1e3);
  }
  report->Add("plan.logical.self_ms", self_ms(kLayerLogical), "ms");
  report->Add("plan.reductions", reductions / done, "count");
  report->Add("plan.backtracks", backtracks / done, "count");
  report->Add("plan.virt_s", plan_s / done, "s");
  report->Add("plan.fallback_share", fallbacks / done, "share");
  report->Add("plan.physical.self_ms", self_ms(kLayerPhysical), "ms");
  report->Add("sce.estimate.self_ms", self_ms(kLayerSce), "ms");
  report->Add("sce.samples_per_query", sce_samples / done, "count");
  report->Add("card.qerror_p50", TailPercentile(qerrors, 0.5), "ratio");
  report->Add("card.qerror_p90", TailPercentile(qerrors, 0.9), "ratio");
  report->Add("plan.exec_pred_rel_error", TailPercentile(pred_err, 0.5),
              "ratio");
  for (const char* family : kOperatorFamilies) {
    report->Add(std::string("exec.node.self_ms.") + family,
                self_ms(std::string("exec.node.") + family), "ms");
  }
  report->Add("engine.other.self_ms", self_ms(kLayerOther), "ms");
  report->Add("exec.virt_s", exec_s / done, "s");
  report->Add("exec.adjustments_per_query", adjustments / done, "count");
  report->Add("exec.pool.queue_wait_virt_s", queue_wait / done, "s");
  report->Add("exec.pool.busy_share", w.busy_share, "share");

  report->Add("serve.queue_wall_ms_p50", TailPercentile(queue_ms, 0.5), "ms");
  report->Add("serve.queue_wall_ms_p99", TailPercentile(queue_ms, 0.99), "ms");
  report->Add("serve.run_wall_ms_p50", TailPercentile(run_ms, 0.5), "ms");
  report->Add("serve.rejected", static_cast<double>(w.rejected), "count");
  report->Add("serve.shed", static_cast<double>(w.shed), "count");

  std::vector<double> scrape_ms;
  double scrape_bytes = 0;
  double scrape_errors = 0;
  for (const auto& sc : w.scrapes) {
    if (!sc.ok) {
      scrape_errors += 1;
      continue;
    }
    scrape_ms.push_back(Millis(sc.end_ns - sc.start_ns));
    scrape_bytes += static_cast<double>(sc.bytes);
  }
  report->Add("http.scrape_ms_p50", TailPercentile(scrape_ms, 0.5), "ms");
  report->Add("http.scrape_ms_p99", TailPercentile(scrape_ms, 0.99), "ms");
  report->Add("http.scrape_bytes",
              scrape_ms.empty() ? 0 : scrape_bytes / scrape_ms.size(), "bytes");
  report->Add("http.scrape_errors", scrape_errors, "count");

  report->Add("trace.overhead_share", trace_overhead, "share");
  report->Add("trace.spans_per_query", layers.spans / traced, "count");
  report->Add("trace.sim_ms", layers.sim_ms / traced, "ms");
  report->Add("trace.request_wall_ms", layers.request_ms / traced, "ms");
  report->Add("trace.unaccounted_share",
              layers.request_ms > 0 ? layers.unaccounted_ms / layers.request_ms
                                    : 0,
              "share");
}

/// Accumulates one request's analysis into `totals` and, when `events` is
/// non-null, appends its program and simulator spans as trace events.
void Accumulate(const Sample& s, int64_t epoch_ns,
                const std::vector<TimedLlm::SimSpan>& sims, int tid,
                LayerTotals* totals, std::vector<ChromeEvent>* events) {
  const std::vector<TraceSpan> spans = s.trace->spans();
  const RequestLayers layers = AnalyzeRequest(spans, epoch_ns, sims);
  double self_sum = 0;
  for (const auto& [layer, ns] : layers.self_ns) {
    totals->self_ms[layer] += Millis(ns);
    self_sum += Millis(ns);
  }
  const double request_ms =
      Millis(s.end_ns - s.start_ns) - s.queue_wall_s * 1e3;
  totals->sim_ms += Millis(layers.sim_ns);
  totals->request_ms += request_ms;
  totals->unaccounted_ms += request_ms - self_sum - Millis(layers.sim_ns);
  totals->spans += static_cast<double>(layers.program_spans);
  totals->requests += 1;
  if (events == nullptr || totals->requests > kTraceDetailRequests) return;
  for (const auto& span : spans) {
    ChromeEvent e;
    e.name = span.name;
    e.cat = "program";
    e.start_ns = epoch_ns + static_cast<int64_t>(span.wall_start_us * 1e3);
    e.dur_ns = static_cast<int64_t>((span.wall_end_us - span.wall_start_us) * 1e3);
    e.tid = tid;
    for (const auto& [k, v] : span.attrs) {
      if (k == "impl" || k == "op" || k == "client") e.args.emplace_back(k, v);
    }
    events->push_back(std::move(e));
  }
  for (const auto& sim : sims) {
    ChromeEvent e;
    e.name = std::string("sim.") + llm::PromptTypeName(sim.type);
    e.cat = "simulator";
    e.start_ns = sim.start_ns;
    e.dur_ns = sim.end_ns - sim.start_ns;
    e.tid = sim.thread;
    e.args.emplace_back("items", std::to_string(sim.items));
    events->push_back(std::move(e));
  }
}

void AddRequestEvents(const Window& w, std::vector<ChromeEvent>* events) {
  for (const auto& s : w.samples) {
    ChromeEvent e;
    e.name = "request";
    e.cat = "benchmark";
    e.start_ns = s.start_ns;
    e.dur_ns = s.end_ns - s.start_ns;
    e.tid = s.thread;
    e.args.emplace_back("query", std::to_string(s.query));
    events->push_back(std::move(e));
  }
  for (const auto& sc : w.scrapes) {
    ChromeEvent e;
    e.name = "scrape /metrics";
    e.cat = "benchmark";
    e.start_ns = sc.start_ns;
    e.dur_ns = sc.end_ns - sc.start_ns;
    e.args.emplace_back("bytes", std::to_string(sc.bytes));
    events->push_back(std::move(e));
  }
}

void WriteTrace(const Args& args, const Window& w,
                const std::vector<ChromeEvent>& events) {
  if (args.trace_out.empty()) return;
  std::ofstream out(args.trace_out);
  out << ToChromeTraceJson(events, w.start_ns);
}

// ---------------------------------------------------------------------------
// paper_seq
// ---------------------------------------------------------------------------

struct SeqItem {
  size_t dataset = 0;
  size_t query = 0;
};

Window RunSequential(const SystemSet& set,
                     const std::vector<Dataset>& datasets,
                     const std::vector<SeqItem>& items, bool trace) {
  std::vector<Instance*> members;
  for (const auto& inst : set) members.push_back(inst.get());
  SimMeter meter(members, trace);
  Window w;
  w.samples.reserve(items.size());
  int64_t library_cpu_ns = 0;
  const int64_t thread_cpu0 = ThreadCpuNs();
  const int64_t cpu0 = ProcessCpuNs();
  w.start_ns = NowNs();
  for (size_t i = 0; i < items.size(); ++i) {
    const SeqItem& item = items[i];
    const corpus::QueryCase& qc = datasets[item.dataset].queries[item.query];
    core::QueryRequest request;
    request.text = qc.text;
    request.overrides.collect_trace = trace;
    const int64_t call_cpu0 = ThreadCpuNs();
    const int64_t start = NowNs();
    core::QueryResult result = set[item.dataset]->system->Answer(request);
    const int64_t end = NowNs();
    library_cpu_ns += ThreadCpuNs() - call_cpu0;
    w.samples.push_back(ToSample(result, qc.ground_truth, i, start, end));
  }
  w.end_ns = NowNs();
  w.cpu_ns = ProcessCpuNs() - cpu0;
  w.harness_cpu_ns = ThreadCpuNs() - thread_cpu0 - library_cpu_ns;
  w.peak_rss_mb = PeakRssMb();
  meter.Finish(&w.sim, &w.usage_calls, &w.usage_dollars, &w.sim_spans);
  Score(&w.samples);
  double exec_s = 0;
  double busy = 0;
  for (const auto& s : w.samples) {
    w.virt_makespan += s.total_s;
    exec_s += s.exec_s;
    busy += s.busy_virt_s;
  }
  const int servers = set.front()->system->options().exec.num_servers;
  w.busy_share = exec_s > 0 ? busy / (servers * exec_s) : 0;
  // One closed-loop slot whose virtual clock is the sum of latencies.
  w.virt_qps = w.virt_makespan > 0 ? w.completed() / w.virt_makespan : 0;
  return w;
}

/// Exact equality of the answer and every virtual number.
bool SameOutcome(const Sample& a, const Sample& b) {
  return a.ok == b.ok && a.answer_text == b.answer_text &&
         a.total_s == b.total_s && a.plan_s == b.plan_s &&
         a.exec_s == b.exec_s && a.llm_calls == b.llm_calls &&
         a.llm_dollars == b.llm_dollars;
}

double SumWallMs(const Window& w) {
  double ms = 0;
  for (const auto& s : w.samples) ms += Millis(s.end_ns - s.start_ns);
  return ms;
}

/// paper_seq: planning, SCE and optimizer, operators and simulator on one
/// thread with nothing contending, so every virtual number repeats exactly
/// and a serving-path change must show no change here.
void RunPaperSeq(const Args& args, Report* report) {
  const size_t n = std::max<size_t>(kMinCompleted,
                                    static_cast<size_t>(100 * args.seconds));
  const std::vector<corpus::DatasetProfile> profiles = corpus::AllProfiles();
  const size_t per_dataset = (n + profiles.size() - 1) / profiles.size();
  // ~10% of instances repeat a text; the margin keeps per_dataset distinct.
  const int per_template = static_cast<int>(per_dataset * 5 / 4 / 20) + 2;
  std::vector<Dataset> datasets(profiles.size());
  RunParallel(profiles.size(), [&](size_t d) {
    datasets[d] = MakeDataset(profiles[d], args.seed, per_template);
  });
  std::vector<SeqItem> items;
  for (size_t d = 0; d < datasets.size(); ++d) {
    const std::vector<size_t> chosen =
        BalancedByTemplate(datasets[d].queries, per_dataset);
    if (chosen.size() < per_dataset) {
      report->Fail(profiles[d].name + ": too few distinct queries");
      return;
    }
    for (size_t q : chosen) items.push_back({d, q});
  }
  Rng(HashCombine(args.seed, 7)).Shuffle(items);
  items.resize(n);

  std::vector<const corpus::Corpus*> corpora;
  for (const auto& ds : datasets) corpora.push_back(ds.corpus.get());
  const core::UnifyOptions options;
  SystemSet set;
  double setup_s = 0;
  if (!SetUpRounds(corpora, options, nullptr, &set, &setup_s, report)) return;
  Window w = RunSequential(set, datasets, items, args.trace);
  CheckDecorator(w, report);

  // Replays on fresh systems, after the window: untraced, and traced too
  // in a traced run.
  const std::vector<SeqItem> prefix(
      items.begin(), items.begin() + std::min(kReplayQueries, items.size()));
  auto replay = [&](bool trace) -> std::optional<Window> {
    double seconds = 0;
    if (!SetUpSet(corpora, options, nullptr, &set, &seconds, report)) {
      return std::nullopt;
    }
    std::optional<Window> r = RunSequential(set, datasets, prefix, trace);
    for (size_t i = 0; i < r->samples.size(); ++i) {
      if (!SameOutcome(w.samples[i], r->samples[i])) {
        report->Fail("paper_seq query " + std::to_string(i) +
                     " differs when replayed on a fresh system");
        break;
      }
    }
    return r;
  };
  const std::optional<Window> untraced_replay = replay(false);
  if (!untraced_replay) return;
  if (!args.trace) {
    AddEndToEnd(w, setup_s, report);
    return;
  }
  const std::optional<Window> traced_replay = replay(true);
  if (!traced_replay) return;
  // Sequential: the request's simulator spans are those inside its
  // interval, on this thread, and the trace epoch is the call's start.
  std::vector<TimedLlm::SimSpan> sims = w.sim_spans;
  std::sort(sims.begin(), sims.end(),
            [](const auto& a, const auto& b) { return a.start_ns < b.start_ns; });
  LayerTotals totals;
  std::vector<ChromeEvent> events;
  size_t next = 0;
  for (const auto& s : w.samples) {
    std::vector<TimedLlm::SimSpan> mine;
    while (next < sims.size() && sims[next].start_ns < s.start_ns) ++next;
    while (next < sims.size() && sims[next].end_ns <= s.end_ns) {
      mine.push_back(sims[next++]);
    }
    if (s.trace != nullptr) {
      Accumulate(s, s.start_ns, mine, s.thread, &totals, &events);
    }
  }
  AddRequestEvents(w, &events);
  WriteTrace(args, w, events);
  const double overhead =
      SumWallMs(*traced_replay) / SumWallMs(*untraced_replay) - 1;
  AddPerLayer(w, totals, overhead, report);
}

// ---------------------------------------------------------------------------
// serve_distinct and serve_hot
// ---------------------------------------------------------------------------

/// GET `path` from the loopback endpoint; returns the HTTP status (0 on a
/// transport error) and the body size.
int HttpGet(int port, const std::string& path, size_t* body_bytes) {
  *body_bytes = 0;
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  timeval tv{5, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  int status = 0;
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    const std::string request = "GET " + path +
                                " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                                "Connection: close\r\n\r\n";
    if (send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(request.size())) {
      std::string response;
      char buf[16384];
      for (;;) {
        const ssize_t got = recv(fd, buf, sizeof(buf), 0);
        if (got <= 0) break;
        response.append(buf, static_cast<size_t>(got));
      }
      const size_t header_end = response.find("\r\n\r\n");
      if (response.rfind("HTTP/1.", 0) == 0 && response.size() > 12 &&
          header_end != std::string::npos) {
        status = std::atoi(response.c_str() + 9);
        *body_bytes = response.size() - header_end - 4;
      }
    }
  }
  close(fd);
  return status;
}

/// Shared state of one serving window's threads.
struct WindowControl {
  std::atomic<bool> stop{false};
  std::atomic<size_t> completed{0};
  /// Thread-CPU the generator threads spent outside Submit().
  std::atomic<int64_t> harness_cpu_ns{0};

  /// Called by a client after each finished request: counts it and
  /// advances the service's virtual clock (the latest completion seen),
  /// waking the scraper when the clock reaches its next due time.
  void Finished(const core::QueryResult& result) {
    completed.fetch_add(1);
    if (!result.status.ok()) return;
    std::lock_guard<std::mutex> lock(mu);
    virt_now = std::max(virt_now, result.completion_seconds);
    if (virt_now >= scrape_due) cv.notify_one();
  }

  std::mutex mu;
  std::condition_variable cv;
  double virt_now = 0;
  double scrape_due = kScrapeIntervalVirtSeconds;
  bool clients_done = false;
};

/// Ends a serving window once it has run `seconds` and completed
/// kMinCompleted requests, when a client has already stopped it, or at
/// the hard cap.
void AwaitWindow(double seconds, int64_t start_ns, WindowControl& ctl) {
  for (;;) {
    const double elapsed = Seconds(NowNs() - start_ns);
    if ((elapsed >= seconds && ctl.completed.load() >= kMinCompleted) ||
        elapsed >= kMaxWindowSeconds || ctl.stop.load()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ctl.stop.store(true);
}

/// Serving-side deltas and derived virtual numbers of a finished window.
void FinishServeWindow(Instance& inst, const core::UnifyService::Stats& before,
                       SimMeter& meter, Window* w) {
  const core::UnifyService::Stats after = inst.service->stats();
  meter.Finish(&w->sim, &w->usage_calls, &w->usage_dollars, &w->sim_spans);
  Score(&w->samples);
  std::map<int, std::pair<double, double>> slots;  // completions, clock
  for (const auto& s : w->samples) {
    if (!s.ok) continue;
    w->virt_makespan = std::max(w->virt_makespan, s.completion_s);
    auto& [done, clock] = slots[s.slot];
    done += 1;
    clock = std::max(clock, s.completion_s);
  }
  for (const auto& [slot, dc] : slots) {
    if (dc.second > 0) w->virt_qps += dc.first / dc.second;
  }
  const int servers = inst.service->pool().num_servers();
  w->busy_share =
      w->virt_makespan > 0
          ? (after.pool_busy_seconds - before.pool_busy_seconds) /
                (servers * w->virt_makespan)
          : 0;
  w->cache = after.cache;
  w->rejected = after.rejected - before.rejected;
  w->shed = after.shed - before.shed;
}

/// A traced serving run measures two windows (untraced, then traced) and
/// splits --seconds between them, so it takes as long as an untraced run.
double ServeWindowSeconds(const Args& args) {
  return args.trace ? args.seconds / 2 : args.seconds;
}

/// One generator thread's loop: `g` is its index, `submit` wraps
/// UnifyService::Submit so its thread-CPU counts as library time, and the
/// thread appends one Sample per finished request to `out`.
using Submitter =
    std::function<std::future<core::QueryResult>(core::QueryRequest)>;
using Client = std::function<void(int g, WindowControl& ctl,
                                  const Submitter& submit,
                                  std::vector<Sample>* out)>;

/// Runs `client` on each of `clients` generator threads, plus the
/// optional /metrics scraper, for one window.
Window RunServeWindow(Instance& inst, double seconds, bool trace, int clients,
                      bool scrape, const Client& client) {
  SimMeter meter({&inst}, trace);
  const core::UnifyService::Stats before = inst.service->stats();
  Window w;
  WindowControl ctl;
  std::vector<std::vector<Sample>> per_client(static_cast<size_t>(clients));
  const int64_t main_cpu0 = ThreadCpuNs();
  const int64_t cpu0 = ProcessCpuNs();
  w.start_ns = NowNs();
  std::vector<std::thread> threads;
  for (int g = 0; g < clients; ++g) {
    threads.emplace_back([&, g] {
      const int64_t thread_cpu0 = ThreadCpuNs();
      int64_t library_cpu_ns = 0;
      const Submitter submit = [&](core::QueryRequest request) {
        const int64_t call_cpu0 = ThreadCpuNs();
        auto future = inst.service->Submit(std::move(request));
        library_cpu_ns += ThreadCpuNs() - call_cpu0;
        return future;
      };
      client(g, ctl, submit, &per_client[static_cast<size_t>(g)]);
      ctl.harness_cpu_ns.fetch_add(ThreadCpuNs() - thread_cpu0 -
                                   library_cpu_ns);
    });
  }
  std::thread scraper;
  if (scrape) {
    scraper = std::thread([&] {
      const int64_t thread_cpu0 = ThreadCpuNs();
      const int port = inst.service->http_port();
      std::unique_lock<std::mutex> lock(ctl.mu);
      for (;;) {
        ctl.cv.wait(lock, [&] {
          return ctl.clients_done || ctl.virt_now >= ctl.scrape_due;
        });
        if (ctl.clients_done) break;
        // A scraper that falls behind skips the missed intervals, as
        // Prometheus does.
        while (ctl.scrape_due <= ctl.virt_now) {
          ctl.scrape_due += kScrapeIntervalVirtSeconds;
        }
        lock.unlock();
        Scrape sc;
        sc.start_ns = NowNs();
        sc.ok = HttpGet(port, "/metrics", &sc.bytes) == 200 && sc.bytes > 0;
        sc.end_ns = NowNs();
        w.scrapes.push_back(sc);
        lock.lock();
      }
      lock.unlock();
      ctl.harness_cpu_ns.fetch_add(ThreadCpuNs() - thread_cpu0);
    });
  }
  AwaitWindow(seconds, w.start_ns, ctl);
  for (auto& t : threads) t.join();
  {
    std::lock_guard<std::mutex> lock(ctl.mu);
    ctl.clients_done = true;
  }
  ctl.cv.notify_one();
  if (scraper.joinable()) scraper.join();
  w.end_ns = NowNs();
  w.cpu_ns = ProcessCpuNs() - cpu0;
  w.harness_cpu_ns = ctl.harness_cpu_ns.load() + ThreadCpuNs() - main_cpu0;
  w.peak_rss_mb = PeakRssMb();
  for (auto& samples : per_client) {
    w.samples.insert(w.samples.end(), std::make_move_iterator(samples.begin()),
                     std::make_move_iterator(samples.end()));
  }
  FinishServeWindow(inst, before, meter, &w);
  return w;
}

/// Traced serving window: attributes simulator spans to requests through
/// the worker thread that made each request's first semantic parse.
LayerTotals AnalyzeServed(const Window& w,
                          const std::vector<std::string>& texts,
                          std::vector<ChromeEvent>* events) {
  std::map<int, std::vector<TimedLlm::SimSpan>> by_thread;
  for (const auto& sim : w.sim_spans) by_thread[sim.thread].push_back(sim);
  for (auto& [thread, sims] : by_thread) {
    std::sort(sims.begin(), sims.end(),
              [](const auto& a, const auto& b) { return a.start_ns < b.start_ns; });
  }
  std::vector<const Sample*> order;
  for (const auto& s : w.samples) {
    if (s.ok && s.trace != nullptr) order.push_back(&s);
  }
  auto epoch_of = [](const Sample* s) {
    return s->start_ns + static_cast<int64_t>(s->queue_wall_s * 1e9);
  };
  std::sort(order.begin(), order.end(), [&](const Sample* a, const Sample* b) {
    return epoch_of(a) < epoch_of(b);
  });
  std::set<std::pair<int, int64_t>> claimed;
  constexpr int64_t kSlackNs = 20000;
  // Simulator spans on `sims` (sorted by start) starting at or after `t`.
  auto from = [](const std::vector<TimedLlm::SimSpan>& sims, int64_t t) {
    return std::lower_bound(
        sims.begin(), sims.end(), t,
        [](const TimedLlm::SimSpan& sim, int64_t v) { return sim.start_ns < v; });
  };
  LayerTotals totals;
  for (const Sample* s : order) {
    const int64_t epoch = epoch_of(s);
    double root_end_us = 0;
    for (const auto& span : s->trace->spans()) {
      if (span.parent == kNoSpan) root_end_us = std::max(root_end_us, span.wall_end_us);
    }
    const int64_t end = epoch + static_cast<int64_t>(root_end_us * 1e3) + kSlackNs;
    const uint64_t hash = std::hash<std::string>{}(texts[s->query]);
    int worker = -1;
    int64_t first = 0;
    for (const auto& [thread, sims] : by_thread) {
      for (auto it = from(sims, epoch); it != sims.end(); ++it) {
        const TimedLlm::SimSpan& sim = *it;
        if (sim.start_ns > end) break;
        if (sim.type == llm::PromptType::kSemanticParse &&
            sim.query_hash == hash && !claimed.count({thread, sim.start_ns}) &&
            (worker < 0 || sim.start_ns < first)) {
          worker = thread;
          first = sim.start_ns;
        }
      }
    }
    std::vector<TimedLlm::SimSpan> mine;
    if (worker >= 0) {
      claimed.insert({worker, first});
      const auto& sims = by_thread[worker];
      // A call whose midpoint is inside the window started at most a
      // millisecond before it (simulator calls take microseconds).
      for (auto it = from(sims, epoch - 1000000); it != sims.end(); ++it) {
        if (it->start_ns > end) break;
        const int64_t mid = it->start_ns + (it->end_ns - it->start_ns) / 2;
        if (mid >= epoch && mid <= end) mine.push_back(*it);
      }
    }
    Accumulate(*s, epoch, mine, worker, &totals, events);
  }
  return totals;
}

/// Runs a serving workload's windows on fresh systems over `corpus`:
/// kSetupRounds timed set-ups (setup_s is their median) whose last system
/// runs the untraced window, then, in a traced run, one more fresh system
/// for the traced window. Only one system is alive at a time.
void RunServing(const Args& args, const corpus::Corpus* corpus,
                const core::UnifyOptions& options,
                const core::UnifyService::Options& service_options,
                const std::vector<std::string>& texts,
                const std::function<Window(Instance&, bool)>& run,
                Report* report) {
  SystemSet set;
  double setup_s = 0;
  if (!SetUpRounds({corpus}, options, &service_options, &set, &setup_s,
                   report)) {
    return;
  }
  Window untraced = run(*set.front(), false);
  CheckDecorator(untraced, report);
  if (!args.trace) {
    AddEndToEnd(untraced, setup_s, report);
    return;
  }
  double seconds = 0;
  if (!SetUpSet({corpus}, options, &service_options, &set, &seconds, report)) {
    return;
  }
  Window traced = run(*set.front(), true);
  CheckDecorator(traced, report);
  std::vector<ChromeEvent> events;
  const LayerTotals totals = AnalyzeServed(traced, texts, &events);
  AddRequestEvents(traced, &events);
  WriteTrace(args, traced, events);
  const double overhead =
      (static_cast<double>(untraced.completed()) / untraced.wall_seconds()) /
          (static_cast<double>(traced.completed()) / traced.wall_seconds()) -
      1;
  AddPerLayer(traced, totals, overhead, report);
}

/// serve_distinct: loads the shared serving path (admission, ledger, SLO,
/// flight recorder, metrics registry, virtual pool and simulator locks,
/// scrape rendering) with distinct queries, so the cache is bypassed.
void RunServeDistinct(const Args& args, Report* report) {
  // Each text is sent at most once: the pool is sized from the window and
  // a client that runs out of texts ends the window. It is shuffled, so
  // every stretch of it has the pool's template mix.
  const size_t pool = kDistinctPerSecond *
                      static_cast<size_t>(std::ceil(ServeWindowSeconds(args)));
  const Dataset ds =
      MakeDataset(corpus::SportsProfile(), args.seed, 50, pool);
  if (ds.queries.size() < pool) {
    report->Fail("serve_distinct: too few distinct queries");
    return;
  }
  std::vector<std::string> texts;
  for (const auto& qc : ds.queries) texts.push_back(qc.text);

  // Default options and a default service (FIFO, 4 workers, cache off),
  // with the HTTP endpoint on a free port.
  core::UnifyService::Options sopts;
  sopts.http_port = -1;

  // Three closed-loop clients (one tenant each) plus the scraper.
  const int clients = kGeneratorThreads - 1;
  auto run = [&](Instance& inst, bool trace) {
    std::atomic<size_t> next{0};
    Window w = RunServeWindow(
        inst, ServeWindowSeconds(args), trace, clients, /*scrape=*/true,
        [&](int g, WindowControl& ctl, const Submitter& submit,
            std::vector<Sample>* out) {
          double clock = 0;
          while (!ctl.stop.load()) {
            const size_t q = next.fetch_add(1);
            if (q >= ds.queries.size()) {
              ctl.stop.store(true);
              break;
            }
            core::QueryRequest request;
            request.text = ds.queries[q].text;
            request.client_tag = "tenant-" + std::to_string(g);
            request.arrival_seconds = clock;
            request.overrides.collect_trace = trace;
            const int64_t start = NowNs();
            core::QueryResult result = submit(std::move(request)).get();
            const int64_t end = NowNs();
            ctl.Finished(result);
            if (result.status.ok()) clock = result.completion_seconds;
            out->push_back(
                ToSample(result, ds.queries[q].ground_truth, q, start, end));
            out->back().slot = g;
          }
        });
    if (next.load() >= ds.queries.size()) {
      std::fprintf(stderr,
                   "perfbench: serve_distinct sent all %zu distinct queries "
                   "in %.1f s; the window ended there\n",
                   ds.queries.size(), w.wall_seconds());
    }
    for (const auto& sc : w.scrapes) {
      if (!sc.ok) {
        report->Fail("a /metrics scrape failed");
        break;
      }
    }
    return w;
  };
  RunServing(args, ds.corpus.get(), core::UnifyOptions{}, sopts, texts, run,
             report);
}

/// serve_hot: the LLM layer is used mostly as cache reads (hits and
/// coalesced followers) under live fair dispatch, so a cache or
/// cross-query batching gain shows here and nowhere else.
void RunServeHot(const Args& args, Report* report) {
  Dataset ds = MakeDataset(corpus::SportsProfile(), args.seed, 16);
  // Up to kHotCandidates distinct instances of each template.
  std::map<int, std::vector<size_t>> by_template;
  std::vector<corpus::QueryCase> candidates;
  for (auto& qc : ds.queries) {
    auto& indices = by_template[qc.template_id];
    if (indices.size() == kHotCandidates) continue;
    indices.push_back(candidates.size());
    candidates.push_back(std::move(qc));
  }
  for (const auto& [id, indices] : by_template) {
    if (indices.size() < kHotInstances) {
      report->Fail("serve_hot: too few distinct instances of a template");
      return;
    }
  }

  // Plan choice independent of completion order, so served answers are
  // those of a sequential run, which the reference below gives.
  core::UnifyOptions options;
  options.cost_feedback = false;

  // Cache-off answers and costs on a reference system, before set-up and
  // outside every window; the system is gone before set-up starts.
  struct Reference {
    bool ok = false;
    std::string answer;
    double exec_dollars = 0;
  };
  std::vector<Reference> reference(candidates.size());
  {
    Instance ref;
    if (Status st = SetUp(ds.corpus.get(), options, nullptr, &ref); !st.ok()) {
      report->Fail("Setup failed: " + st.ToString());
      return;
    }
    std::atomic<size_t> next_ref{0};
    RunParallel(kGeneratorThreads, [&](size_t) {
      for (size_t q; (q = next_ref.fetch_add(1)) < candidates.size();) {
        core::QueryRequest request;
        request.text = candidates[q].text;
        request.overrides.collect_trace = false;
        const core::QueryResult r = ref.system->Answer(request);
        reference[q] = {r.status.ok(), r.answer.ToString(), r.exec_dollars};
      }
    });
  }
  // The pool is each template's kHotInstances most expensive candidates,
  // laid out as TenantMix expects: query i is instance i / T of the i % T-th
  // template, so a Zipf rank is always the same template on every seed and
  // only the literals vary.
  const size_t num_templates = by_template.size();
  std::vector<corpus::QueryCase> pool(num_templates * kHotInstances);
  std::vector<std::string> expected(pool.size());
  size_t t = 0;
  for (auto& [id, indices] : by_template) {
    std::stable_sort(indices.begin(), indices.end(), [&](size_t a, size_t b) {
      return reference[a].exec_dollars > reference[b].exec_dollars;
    });
    for (size_t k = 0; k < kHotInstances; ++k) {
      const size_t c = indices[k];
      if (!reference[c].ok) {
        report->Fail("serve_hot: reference query failed");
        return;
      }
      pool[k * num_templates + t] = candidates[c];
      expected[k * num_templates + t] = reference[c].answer;
    }
    ++t;
  }
  std::vector<std::string> texts;
  for (const auto& qc : pool) texts.push_back(qc.text);

  core::UnifyService::Options sopts;
  sopts.scheduler = core::UnifyService::Scheduler::kFair;
  sopts.num_workers = kHotWorkers;
  const TenantMix mix(num_templates, kHotInstances, kHotTenants, kHotSkew);
  static constexpr core::QueryPriority kClasses[] = {
      core::QueryPriority::kBatch, core::QueryPriority::kNormal,
      core::QueryPriority::kInteractive};
  auto run = [&](Instance& inst, bool trace) {
    Window w = RunServeWindow(
        inst, ServeWindowSeconds(args), trace, kGeneratorThreads,
        /*scrape=*/false,
        [&](int g, WindowControl& ctl, const Submitter& submit,
            std::vector<Sample>* out) {
          Rng rng(HashCombine(args.seed, 1000 + static_cast<uint64_t>(g)));
          struct Pending {
            std::future<core::QueryResult> future;
            size_t query = 0;
            int64_t start = 0;
            double clock = 0;  // this slot's closed-loop virtual clock
            int id = 0;
            bool active = false;
          };
          std::vector<Pending> slots(kHotOutstanding);
          int slot_id = 0;
          auto send = [&](Pending& p) {
            const TenantDraw d = mix.Draw(rng);
            core::QueryRequest request;
            request.text = pool[d.query].text;
            request.client_tag = "tenant-" + std::to_string(d.tenant);
            request.arrival_seconds = p.clock;
            request.overrides.priority = kClasses[d.priority];
            request.overrides.use_llm_cache = true;
            request.overrides.collect_trace = trace;
            p.query = d.query;
            p.start = NowNs();
            p.future = submit(std::move(request));
            p.active = true;
          };
          for (auto& p : slots) {
            p.id = g * kHotOutstanding + slot_id++;
            send(p);
          }
          // Polls the outstanding futures, waiting at most 1 ms on one at
          // a time: a blocking wait on one would misdate the completions
          // of the others. The polling is harness CPU, not engine CPU.
          for (;;) {
            bool any_active = false;
            bool any_ready = false;
            for (auto& p : slots) {
              if (!p.active) continue;
              any_active = true;
              if (p.future.wait_for(std::chrono::seconds(0)) !=
                  std::future_status::ready) {
                continue;
              }
              any_ready = true;
              core::QueryResult result = p.future.get();
              const int64_t end = NowNs();
              ctl.Finished(result);
              if (result.status.ok()) p.clock = result.completion_seconds;
              out->push_back(ToSample(result, pool[p.query].ground_truth,
                                      p.query, p.start, end));
              out->back().slot = p.id;
              p.active = false;
              if (!ctl.stop.load()) send(p);
            }
            if (!any_active) break;
            if (!any_ready) {
              for (auto& p : slots) {
                if (p.active) {
                  p.future.wait_for(std::chrono::milliseconds(1));
                  break;
                }
              }
            }
          }
        });
    for (const auto& s : w.samples) {
      if (s.ok && s.answer_text != expected[s.query]) {
        report->Fail("serve_hot: cached answer differs from cache-off answer");
        break;
      }
    }
    return w;
  };
  RunServing(args, ds.corpus.get(), options, sopts, texts, run, report);
}

// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  Report report;
  if (args.workload == "paper_seq") {
    RunPaperSeq(args, &report);
  } else if (args.workload == "serve_distinct") {
    RunServeDistinct(args, &report);
  } else if (args.workload == "serve_hot") {
    RunServeHot(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  for (const auto& p : report.problems) {
    std::fprintf(stderr, "perfbench: %s\n", p.c_str());
  }
  if (report.metrics.empty()) return 1;
  for (const auto& m : report.metrics) {
    std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = std::string("{\"correct\": ") +
                     (report.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    if (i > 0) json += ", ";
    json += JsonString(m.name) + ": {\"value\": " + FormatNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace unify::perfbench

int main(int argc, char** argv) { return unify::perfbench::Main(argc, argv); }
