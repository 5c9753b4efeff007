// Resilience-layer edge cases: backoff-jitter determinism, circuit-breaker
// transitions, retry-budget exhaustion, hedge accounting, fault-injection
// determinism, byte-identity at fault rate 0, and concurrent serving under
// injected faults (the latter is the TSAN target wired via
// scripts/check.sh).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/query_scope.h"
#include "common/telemetry_names.h"
#include "core/runtime/service.h"
#include "corpus/dataset_profile.h"
#include "corpus/workload.h"
#include "llm/fault_client.h"
#include "llm/resilient_client.h"
#include "llm/sim_llm.h"

#include "catalog_util.h"

namespace unify::llm {
namespace {

/// A base client whose outcomes are scripted by arrival order. Entry i
/// describes the i-th call that reaches the base; once the script runs
/// out, calls succeed with the defaults. Thread-safe (single atomic).
class ScriptedLlm : public LlmClient {
 public:
  struct Step {
    Status status = Status::OK();
    double seconds = 1.0;
    double dollars = 0.01;
  };

  explicit ScriptedLlm(std::vector<Step> script = {})
      : script_(std::move(script)) {}

  LlmResult Call(const LlmCall& call) override {
    const size_t i = static_cast<size_t>(arrivals_.fetch_add(1));
    Step step;
    if (i < script_.size()) step = script_[i];
    LlmResult r;
    r.status = step.status;
    r.seconds = step.seconds;
    r.dollars = step.dollars;
    r.in_tokens = 10;
    r.out_tokens = 5;
    r.fields["answer"] = "completion-for-attempt-" + std::to_string(call.attempt);
    return r;
  }

  LlmUsage usage() const override { return {}; }
  void ResetUsage() override {}

  int64_t arrivals() const { return arrivals_.load(); }

 private:
  std::vector<Step> script_;
  std::atomic<int64_t> arrivals_{0};
};

LlmCall MakeCall(const std::string& query = "who won the 2014 final") {
  LlmCall call;
  call.type = PromptType::kSemanticParse;
  call.tier = ModelTier::kPlanner;
  call.fields["query"] = query;
  return call;
}

ScriptedLlm::Step Fail(Status status, double seconds = 1.0,
                       double dollars = 0.01) {
  return {std::move(status), seconds, dollars};
}

/// A counter family's sum in `metrics`: `breaker.opens` over both tiers,
/// `llm.fault.timeouts` over every prompt type.
double Count(const MetricsRegistry& metrics, std::string_view family) {
  return metrics.Snapshot().FamilySum(family);
}

TEST(BackoffJitterTest, DeterministicAcrossInstancesWithTheSameSeed) {
  ScriptedLlm base_a, base_b;
  ResilienceOptions opts;
  opts.seed = 77;
  ResilientLlmClient a(&base_a, opts);
  ResilientLlmClient b(&base_b, opts);
  const LlmCall call = MakeCall();

  const RetryPolicy& p = opts.retry;
  double uncapped = p.initial_backoff_seconds;
  for (int round = 1; round <= 6; ++round) {
    const double backoff = a.BackoffFor(call, round);
    EXPECT_DOUBLE_EQ(backoff, b.BackoffFor(call, round)) << round;
    // Jitter stays inside [1 - f, 1 + f] of the capped exponential base.
    const double capped = std::min(uncapped, p.max_backoff_seconds);
    EXPECT_GE(backoff, capped * (1 - p.jitter_fraction)) << round;
    EXPECT_LE(backoff, capped * (1 + p.jitter_fraction)) << round;
    uncapped *= p.backoff_multiplier;
  }

  // A different seed draws different jitter for at least one round.
  ResilienceOptions other = opts;
  other.seed = 78;
  ResilientLlmClient c(&base_a, other);
  bool any_differs = false;
  for (int round = 1; round <= 6; ++round) {
    any_differs |= c.BackoffFor(call, round) != a.BackoffFor(call, round);
  }
  EXPECT_TRUE(any_differs);

  // Different call content draws different jitter too (content-keyed).
  EXPECT_NE(a.BackoffFor(MakeCall("a different query"), 1),
            a.BackoffFor(call, 1));
}

TEST(RetryTest, RecoversTransientFailuresAndChargesVirtualTime) {
  ScriptedLlm base({Fail(Status::DeadlineExceeded("slow"), 2.0, 0.02),
                    Fail(Status::Aborted("garbled"), 1.0, 0.01)});
  ResilienceOptions opts;
  ResilientLlmClient client(&base, opts);
  MetricsRegistry metrics;
  QueryScope::Installer scope({&metrics, nullptr, std::nullopt});
  const LlmCall call = MakeCall();

  LlmResult result = client.Call(call);
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_EQ(result.fields["answer"], "completion-for-attempt-4");
  EXPECT_EQ(base.arrivals(), 3);

  // Virtual clock: both failed attempts plus both backoff sleeps.
  const double b1 = client.BackoffFor(call, 1);
  const double b2 = client.BackoffFor(call, 2);
  EXPECT_NEAR(result.seconds, 2.0 + b1 + 1.0 + b2 + 1.0, 1e-12);
  // Dollars of every attempt are charged (the provider billed them all).
  EXPECT_NEAR(result.dollars, 0.02 + 0.01 + 0.01, 1e-12);
  EXPECT_EQ(result.in_tokens, 30);

  EXPECT_EQ(Count(metrics, telemetry::kMetricLlmRetryAttempts), 2);
  EXPECT_EQ(Count(metrics, telemetry::kMetricLlmRetryRecovered), 1);
  EXPECT_EQ(Count(metrics, telemetry::kMetricLlmRetryExhausted), 0);
  EXPECT_NEAR(Count(metrics, telemetry::kMetricLlmRetryBackoffSeconds),
              b1 + b2, 1e-12);
}

TEST(RetryTest, PermanentFailuresAreNotRetried) {
  ScriptedLlm base({Fail(Status::InvalidArgument("bad prompt"))});
  ResilientLlmClient client(&base, {});
  MetricsRegistry metrics;
  QueryScope::Installer scope({&metrics, nullptr, std::nullopt});
  LlmResult result = client.Call(MakeCall());
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(base.arrivals(), 1);
  EXPECT_EQ(Count(metrics, telemetry::kMetricLlmRetryAttempts), 0);
}

TEST(RetryTest, ExhaustionSurfacesTheLastTransientFailure) {
  ScriptedLlm base({Fail(Status::DeadlineExceeded("1")),
                    Fail(Status::DeadlineExceeded("2")),
                    Fail(Status::DeadlineExceeded("3")),
                    Fail(Status::ResourceExhausted("final"))});
  ResilienceOptions opts;  // max_attempts = 4
  ResilientLlmClient client(&base, opts);
  MetricsRegistry metrics;
  QueryScope::Installer scope({&metrics, nullptr, std::nullopt});
  LlmResult result = client.Call(MakeCall());
  EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(base.arrivals(), 4);
  EXPECT_EQ(Count(metrics, telemetry::kMetricLlmRetryAttempts), 3);
  EXPECT_EQ(Count(metrics, telemetry::kMetricLlmRetryExhausted), 1);
  EXPECT_EQ(Count(metrics, telemetry::kMetricLlmRetryRecovered), 0);
}

TEST(CircuitBreakerTest, OpensHalfOpensAndClosesOnVirtualTime) {
  // Base arrivals (rejections never reach the base):
  //   fail, fail            -> trips open
  //   success               -> the first half-open probe, closes
  //   fail, fail            -> trips open again
  //   fail                  -> the second probe, reopens
  ScriptedLlm base({Fail(Status::DeadlineExceeded("f1")),
                    Fail(Status::DeadlineExceeded("f2")),
                    ScriptedLlm::Step{},
                    Fail(Status::DeadlineExceeded("f3")),
                    Fail(Status::DeadlineExceeded("f4")),
                    Fail(Status::DeadlineExceeded("f5"))});
  ResilienceOptions opts;
  opts.retry.max_attempts = 1;  // each Call is exactly one attempt
  opts.breaker.enabled = true;
  opts.breaker.failure_threshold = 2;
  opts.breaker.open_seconds = 5.0;
  opts.breaker.fast_fail_seconds = 1.0;
  ResilientLlmClient client(&base, opts);
  MetricsRegistry metrics;
  QueryScope::Installer scope({&metrics, nullptr, std::nullopt});
  const LlmCall call = MakeCall();
  using BreakerState = ResilientLlmClient::BreakerState;

  EXPECT_EQ(client.breaker_state(ModelTier::kPlanner), BreakerState::kClosed);
  EXPECT_EQ(client.Call(call).status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(client.breaker_state(ModelTier::kPlanner), BreakerState::kClosed);
  EXPECT_EQ(client.Call(call).status.code(), StatusCode::kDeadlineExceeded);
  // Two consecutive failures at threshold 2: open. Tier clock is at 2.0s,
  // the window closes at 7.0s.
  EXPECT_EQ(client.breaker_state(ModelTier::kPlanner), BreakerState::kOpen);

  // While open, calls fast-fail without touching the base; each rejection
  // advances the tier clock by fast_fail_seconds.
  for (int i = 0; i < 5; ++i) {
    LlmResult rejected = client.Call(call);
    EXPECT_EQ(rejected.status.code(), StatusCode::kResourceExhausted);
    EXPECT_DOUBLE_EQ(rejected.seconds, 1.0);
  }
  EXPECT_EQ(base.arrivals(), 2);
  EXPECT_EQ(Count(metrics, telemetry::kMetricBreakerRejected), 5);

  // Clock reached 7.0s: the next call is the half-open probe; it succeeds
  // and the breaker closes.
  EXPECT_TRUE(client.Call(call).status.ok());
  EXPECT_EQ(client.breaker_state(ModelTier::kPlanner), BreakerState::kClosed);
  EXPECT_EQ(Count(metrics, telemetry::kMetricBreakerCloses), 1);

  // Trip it again, wait out the window, and let the probe FAIL: reopen.
  EXPECT_FALSE(client.Call(call).status.ok());
  EXPECT_FALSE(client.Call(call).status.ok());
  EXPECT_EQ(client.breaker_state(ModelTier::kPlanner), BreakerState::kOpen);
  for (int i = 0; i < 5; ++i) client.Call(call);
  EXPECT_FALSE(client.Call(call).status.ok());  // the failing probe
  EXPECT_EQ(client.breaker_state(ModelTier::kPlanner), BreakerState::kOpen);

  // trip, trip, reopen-from-probe
  EXPECT_EQ(Count(metrics, telemetry::kMetricBreakerOpens), 3);
  EXPECT_EQ(Count(metrics, telemetry::kMetricBreakerProbes), 2);
  EXPECT_EQ(Count(metrics, telemetry::kMetricBreakerCloses), 1);
  EXPECT_EQ(Count(metrics, telemetry::kMetricBreakerRejected), 10);
  EXPECT_EQ(Count(metrics, std::string(telemetry::kMetricBreakerOpens) +
                               ".planner"),
            3);
  // The worker tier is untouched: breakers are per-tier.
  EXPECT_EQ(client.breaker_state(ModelTier::kWorker), BreakerState::kClosed);
}

TEST(RetryBudgetTest, ExhaustionAtTheDeadlineStopsRetrying) {
  ScriptedLlm base({Fail(Status::DeadlineExceeded("slow")),
                    Fail(Status::DeadlineExceeded("slow")),
                    Fail(Status::DeadlineExceeded("slow"))});
  ResilientLlmClient client(&base, {});

  // The smallest possible first backoff is 0.4s (0.5s - 20% jitter); a
  // 0.1s budget cannot afford it, so the first failure is final.
  MetricsRegistry metrics;
  RetryBudget budget(0.1);
  QueryScope::Installer scope({&metrics, &budget, std::nullopt});
  ASSERT_EQ(QueryScope::Current().retry_budget, &budget);

  LlmResult result = client.Call(MakeCall());
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(result.status.ToString().find("retry budget exhausted"),
            std::string::npos)
      << result.status;
  EXPECT_EQ(base.arrivals(), 1);
  EXPECT_EQ(Count(metrics, telemetry::kMetricLlmRetryBudgetExhausted), 1);
  EXPECT_EQ(Count(metrics, telemetry::kMetricLlmRetryExhausted), 1);
  EXPECT_EQ(Count(metrics, telemetry::kMetricLlmRetryAttempts), 0);
  EXPECT_DOUBLE_EQ(budget.remaining(), 0.1);  // TryConsume is all-or-nothing
}

// Overriding one field of the query scope is a copy of Current() with
// that field changed: the copy keeps the other two, and the outer scope
// is back when it ends.
TEST(RetryBudgetTest, AScopeCopyOverridesOnlyTheBudget) {
  MetricsRegistry metrics;
  RetryBudget outer(10);
  QueryScope::Installer query({&metrics, &outer, true});
  RetryBudget inner(5);
  {
    QueryScope copy = QueryScope::Current();
    copy.retry_budget = &inner;
    QueryScope::Installer install(copy);
    EXPECT_EQ(QueryScope::Current().retry_budget, &inner);
    EXPECT_EQ(QueryScope::Current().metrics, &metrics);
    EXPECT_EQ(QueryScope::Current().use_llm_cache, true);
    EXPECT_TRUE(inner.TryConsume(3));
    EXPECT_FALSE(inner.TryConsume(3));  // only 2 left
    inner.Drain(100);                   // clamps at zero
    EXPECT_DOUBLE_EQ(inner.remaining(), 0);
  }
  EXPECT_EQ(QueryScope::Current().retry_budget, &outer);
  EXPECT_DOUBLE_EQ(outer.remaining(), 10);
}

TEST(HedgeTest, WinnerCancellationChargesTheLoserProRata) {
  // Primary is a 10s straggler; the hedge launches at t=2 and finishes in
  // 1s, winning at t=3. The primary is cancelled at t=3, 30% through its
  // run, so 30% of its dollars are charged.
  ScriptedLlm base({ScriptedLlm::Step{Status::OK(), 10.0, 1.0},
                    ScriptedLlm::Step{Status::OK(), 1.0, 0.5}});
  ResilienceOptions opts;
  opts.hedge.enabled = true;
  opts.hedge.latency_threshold_seconds = 2.0;
  ResilientLlmClient client(&base, opts);
  MetricsRegistry metrics;
  QueryScope::Installer scope({&metrics, nullptr, std::nullopt});

  LlmResult result = client.Call(MakeCall());
  ASSERT_TRUE(result.status.ok()) << result.status;
  // The hedge's completion won (odd attempt ordinal = the hedge issuance).
  EXPECT_EQ(result.fields["answer"], "completion-for-attempt-1");
  EXPECT_DOUBLE_EQ(result.seconds, 3.0);
  EXPECT_NEAR(result.dollars, 0.5 + 1.0 * (3.0 / 10.0), 1e-12);

  EXPECT_EQ(Count(metrics, telemetry::kMetricLlmHedgeLaunched), 1);
  EXPECT_EQ(Count(metrics, telemetry::kMetricLlmHedgeWins), 1);
  EXPECT_NEAR(Count(metrics, telemetry::kMetricLlmHedgeCancelledDollars), 0.3,
              1e-12);
}

TEST(HedgeTest, PrimaryWinCancelsTheHedgeProRata) {
  // Primary takes 3s; the hedge starts at t=2 and would finish at t=4, so
  // the primary wins and the hedge is cancelled halfway through (1s of its
  // 2s run): half its dollars are charged.
  ScriptedLlm base({ScriptedLlm::Step{Status::OK(), 3.0, 1.0},
                    ScriptedLlm::Step{Status::OK(), 2.0, 0.5}});
  ResilienceOptions opts;
  opts.hedge.enabled = true;
  opts.hedge.latency_threshold_seconds = 2.0;
  ResilientLlmClient client(&base, opts);
  MetricsRegistry metrics;
  QueryScope::Installer scope({&metrics, nullptr, std::nullopt});

  LlmResult result = client.Call(MakeCall());
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_EQ(result.fields["answer"], "completion-for-attempt-0");
  EXPECT_DOUBLE_EQ(result.seconds, 3.0);
  EXPECT_NEAR(result.dollars, 1.0 + 0.5 * 0.5, 1e-12);
  EXPECT_EQ(Count(metrics, telemetry::kMetricLlmHedgeLaunched), 1);
  EXPECT_EQ(Count(metrics, telemetry::kMetricLlmHedgeWins), 0);
  EXPECT_NEAR(Count(metrics, telemetry::kMetricLlmHedgeCancelledDollars), 0.25,
              1e-12);
}

TEST(HedgeTest, HedgeRescuesAFailedStraggler) {
  // The primary times out after 10s; the hedge succeeds, so the round
  // recovers WITHOUT consuming a retry.
  ScriptedLlm base({Fail(Status::DeadlineExceeded("straggler"), 10.0, 1.0),
                    ScriptedLlm::Step{Status::OK(), 1.0, 0.5}});
  ResilienceOptions opts;
  opts.hedge.enabled = true;
  opts.hedge.latency_threshold_seconds = 2.0;
  ResilientLlmClient client(&base, opts);
  MetricsRegistry metrics;
  QueryScope::Installer scope({&metrics, nullptr, std::nullopt});
  LlmResult result = client.Call(MakeCall());
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_DOUBLE_EQ(result.seconds, 3.0);
  EXPECT_EQ(Count(metrics, telemetry::kMetricLlmRetryAttempts), 0);
  EXPECT_EQ(Count(metrics, telemetry::kMetricLlmHedgeWins), 1);
}

TEST(FaultInjectorTest, RateZeroIsAPurePassThrough) {
  ScriptedLlm base;
  FaultInjectionOptions opts;  // all rates zero
  FaultInjectingLlmClient injector(&base, opts);
  MetricsRegistry metrics;
  QueryScope::Installer scope({&metrics, nullptr, std::nullopt});
  LlmResult direct = base.Call(MakeCall());
  LlmResult through = injector.Call(MakeCall());
  EXPECT_TRUE(through.status.ok());
  EXPECT_EQ(through.fields, direct.fields);
  EXPECT_DOUBLE_EQ(through.seconds, direct.seconds);
  EXPECT_DOUBLE_EQ(through.dollars, direct.dollars);
  // An injector with nothing to inject is not even counted as met.
  EXPECT_TRUE(metrics.Snapshot().counters.empty());
  EXPECT_EQ(Count(metrics, telemetry::kMetricLlmFaultAttempts), 0);
}

TEST(FaultInjectorTest, FatesAreSeededAndKeyedOnContentAndAttempt) {
  ScriptedLlm base_a, base_b;
  FaultInjectionOptions opts;
  opts.seed = 99;
  opts.rates.timeout = 0.25;
  opts.rates.rate_limit = 0.25;
  opts.rates.malformed = 0.25;
  FaultInjectingLlmClient a(&base_a, opts);
  FaultInjectingLlmClient b(&base_b, opts);

  // Same seed, same content, same attempt -> identical fates, on every
  // instance, in any order.
  std::vector<StatusCode> fates_a, fates_b;
  MetricsRegistry metrics_a;
  {
    QueryScope::Installer scope({&metrics_a, nullptr, std::nullopt});
    for (int i = 0; i < 32; ++i) {
      LlmCall call = MakeCall("query number " + std::to_string(i));
      fates_a.push_back(a.Call(call).status.code());
    }
  }
  MetricsRegistry metrics_rest;
  QueryScope::Installer scope({&metrics_rest, nullptr, std::nullopt});
  for (int i = 31; i >= 0; --i) {
    LlmCall call = MakeCall("query number " + std::to_string(i));
    fates_b.push_back(b.Call(call).status.code());
  }
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(fates_a[static_cast<size_t>(i)],
              fates_b[static_cast<size_t>(31 - i)])
        << i;
  }
  // Every attempt met the injector, counted under its prompt type; with
  // 75% total fault rate, 32 distinct calls see every fault kind.
  EXPECT_EQ(metrics_a.counter(std::string(telemetry::kMetricLlmFaultAttempts) +
                              ".semantic_parse"),
            32);
  EXPECT_EQ(Count(metrics_a, telemetry::kMetricLlmFaultAttempts), 32);
  const double timeouts = Count(metrics_a, telemetry::kMetricLlmFaultTimeouts);
  const double rate_limits =
      Count(metrics_a, telemetry::kMetricLlmFaultRateLimits);
  const double malformed =
      Count(metrics_a, telemetry::kMetricLlmFaultMalformed);
  EXPECT_GT(timeouts, 0);
  EXPECT_GT(rate_limits, 0);
  EXPECT_GT(malformed, 0);
  EXPECT_LE(timeouts + rate_limits + malformed, 32);

  // A retry of the same call draws a fresh fate coin via `attempt`.
  FaultInjectingLlmClient c(&base_a, opts);
  bool any_attempt_differs = false;
  for (int i = 0; i < 32 && !any_attempt_differs; ++i) {
    LlmCall call = MakeCall("retry probe " + std::to_string(i));
    const StatusCode first = c.Call(call).status.code();
    call.attempt = 1;
    any_attempt_differs = c.Call(call).status.code() != first;
  }
  EXPECT_TRUE(any_attempt_differs);
}

// --- Full-system tests ---

class ResilienceSystemTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto profile = corpus::SportsProfile();
    profile.doc_count = 300;
    corpus_ = new corpus::Corpus(corpus::GenerateCorpus(profile, 33));
    llm_ = new llm::SimulatedLlm(corpus_, llm::SimLlmOptions{});
  }
  static void TearDownTestSuite() {
    delete llm_;
    delete corpus_;
    llm_ = nullptr;
    corpus_ = nullptr;
  }

  static std::vector<std::string> Queries(size_t n) {
    corpus::WorkloadOptions wopts;
    wopts.per_template = 1;
    wopts.seed = 99;
    std::vector<std::string> queries;
    for (const auto& qc : corpus::GenerateWorkload(*corpus_, wopts)) {
      queries.push_back(qc.text);
      if (queries.size() >= n) break;
    }
    return queries;
  }

  static corpus::Corpus* corpus_;
  static llm::SimulatedLlm* llm_;
};

corpus::Corpus* ResilienceSystemTest::corpus_ = nullptr;
llm::SimulatedLlm* ResilienceSystemTest::llm_ = nullptr;

TEST_F(ResilienceSystemTest, RateZeroIsByteIdenticalAtEveryParallelism) {
  const auto queries = Queries(6);
  ASSERT_GE(queries.size(), 4u);

  // Reference: the default system (resilience stack present, fault rate
  // 0), answering sequentially.
  core::UnifyOptions plain;
  plain.cost_feedback = false;
  core::UnifySystem reference(corpus_, llm_, plain);
  ASSERT_TRUE(reference.Setup().ok());
  std::map<std::string, std::string> expected;
  for (const auto& q : queries) {
    core::QueryResult r = reference.Answer(q);
    ASSERT_TRUE(r.status.ok()) << q << ": " << r.status;
    expected[q] = r.answer.ToString();
  }

  // Same corpus/LLM with every resilience feature armed — but fault rate
  // 0 — served at parallelism 1 and 4: answers must not move a byte.
  core::UnifyOptions armed;
  armed.cost_feedback = false;
  armed.resilience.hedge.enabled = true;
  armed.resilience.breaker.enabled = true;
  armed.graceful_degradation = true;
  core::UnifySystem system(corpus_, llm_, armed);
  // Taken before Setup: calibration and SCE importance learning run with
  // hedge and breaker armed and record into Global(), so the checks below
  // cover them as well as the served queries.
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  ASSERT_TRUE(system.Setup().ok());
  for (int workers : {1, 4}) {
    core::UnifyService::Options sopts;
    sopts.num_workers = workers;
    core::UnifyService service(&system, sopts);
    std::vector<std::future<core::QueryResult>> futures;
    for (const auto& q : queries) {
      core::QueryRequest request;
      request.text = q;
      futures.push_back(service.Submit(std::move(request)));
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      core::QueryResult r = futures[i].get();
      ASSERT_TRUE(r.status.ok()) << queries[i] << ": " << r.status;
      EXPECT_EQ(r.phase, core::QueryPhase::kComplete);
      EXPECT_FALSE(r.degraded);
      EXPECT_EQ(r.answer.ToString(), expected[queries[i]])
          << "answer diverged at parallelism " << workers << " for: "
          << queries[i];
    }
  }
  // Nothing fired, in Setup or in serving: no attempt met the injector, no
  // retries, no hedges, no breaker trips.
  const MetricsSnapshot fired =
      MetricsRegistry::Global().Snapshot().DeltaSince(before);
  for (const char* family :
       {telemetry::kMetricLlmFaultAttempts, telemetry::kMetricLlmRetryAttempts,
        telemetry::kMetricLlmHedgeLaunched, telemetry::kMetricBreakerOpens}) {
    EXPECT_EQ(fired.FamilySum(family), 0) << family;
  }
}

TEST_F(ResilienceSystemTest, ConcurrentServingUnderInjectedFaultsIsSafe) {
  // The TSAN target (scripts/check.sh): retries, hedges, breakers, retry
  // budgets and the degradation path all racing across 4 workers.
  core::UnifyOptions opts;
  opts.cost_feedback = false;
  opts.faults.rates.timeout = 0.05;
  opts.faults.rates.rate_limit = 0.05;
  opts.faults.rates.malformed = 0.05;
  opts.resilience.hedge.enabled = true;
  opts.resilience.breaker.enabled = true;
  opts.graceful_degradation = true;
  core::UnifySystem system(corpus_, llm_, opts);
  ASSERT_TRUE(system.Setup().ok());

  const auto queries = Queries(8);
  core::UnifyService::Options sopts;
  sopts.num_workers = 4;
  core::UnifyService service(&system, sopts);
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  std::vector<std::future<core::QueryResult>> futures;
  for (int repeat = 0; repeat < 2; ++repeat) {
    for (const auto& q : queries) {
      core::QueryRequest request;
      request.text = q;
      futures.push_back(service.Submit(std::move(request)));
    }
  }
  int64_t degraded = 0;
  for (auto& f : futures) {
    core::QueryResult r = f.get();
    // Every outcome is one of: success, graceful degradation, or a
    // surfaced transient failure. Never a crash, never a silent wrong
    // phase.
    if (r.phase == core::QueryPhase::kDegraded) {
      EXPECT_TRUE(r.status.ok());
      EXPECT_TRUE(r.degraded);
      EXPECT_FALSE(r.degraded_detail.empty());
      degraded += 1;
    } else if (r.status.ok()) {
      EXPECT_EQ(r.phase, core::QueryPhase::kComplete);
      EXPECT_FALSE(r.degraded);
    } else {
      EXPECT_TRUE(IsTransientLlmFailure(r.status)) << r.status;
    }
  }
  EXPECT_EQ(service.stats().degraded, degraded);
  // The injector definitely fired at a 15% total rate over 16 queries.
  const MetricsSnapshot delta =
      MetricsRegistry::Global().Snapshot().DeltaSince(before);
  EXPECT_GT(delta.FamilySum(telemetry::kMetricLlmFaultTimeouts) +
                delta.FamilySum(telemetry::kMetricLlmFaultRateLimits) +
                delta.FamilySum(telemetry::kMetricLlmFaultMalformed),
            0);

  // Fault, retry, hedge and breaker series included, everything the run
  // recorded has a catalog row of the kind its map holds.
  testing::ExpectCatalogKinds(delta);
  MetricsSnapshot tenant_series;
  service.tenant_ledger().AnnotateSnapshot(&tenant_series);
  EXPECT_FALSE(tenant_series.counters.empty());
  testing::ExpectCatalogKinds(tenant_series);
}

// When every candidate plan fails to optimize on a transient LLM failure
// (here every SCE sampling call times out), the query reports that
// transient failure, not a contract error. Under concurrent serving the
// same happens when an open circuit breaker rejects the SCE calls.
TEST_F(ResilienceSystemTest, FailedOptimizationKeepsTheTransientStatus) {
  core::UnifyOptions opts;
  opts.cost_feedback = false;
  opts.faults.per_type[PromptType::kEvalPredicate].timeout = 1.0;
  core::UnifySystem system(corpus_, llm_, opts);
  ASSERT_TRUE(system.Setup().ok());
  const core::QueryResult r =
      system.Answer("How many questions about tennis are there?");
  EXPECT_EQ(r.phase, core::QueryPhase::kOptimization) << r.status;
  EXPECT_TRUE(IsTransientLlmFailure(r.status)) << r.status;
}

/// `r.metrics` reached the global registry exactly once between `before`
/// and `after`: every counter moved by the query's own value, and every
/// histogram gained the query's own observation count.
void ExpectMergedOnce(const MetricsSnapshot& before,
                      const MetricsSnapshot& after,
                      const core::QueryResult& r) {
  const MetricsSnapshot delta = after.DeltaSince(before);
  auto value_of = [](const MetricsSnapshot& snap, const std::string& name) {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : it->second;
  };
  std::set<std::string> names;
  for (const auto& [name, value] : delta.counters) names.insert(name);
  for (const auto& [name, value] : r.metrics.counters) names.insert(name);
  for (const std::string& name : names) {
    const double own = value_of(r.metrics, name);
    EXPECT_NEAR(value_of(delta, name), own, 1e-9 * std::max(1.0, own))
        << name;
  }
  auto count_of = [](const MetricsSnapshot& snap, const std::string& name) {
    auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? size_t{0} : it->second.count();
  };
  for (const auto& [name, hist] : after.histograms) {
    EXPECT_EQ(hist.count() - count_of(before, name), count_of(r.metrics, name))
        << name;
  }
  for (const auto& [name, hist] : r.metrics.histograms) {
    EXPECT_TRUE(after.histograms.count(name) > 0) << name;
  }
}

// A failing query merges what it recorded into the global registry too,
// once, whichever stage stopped it — here with morsels running on four
// worker threads.
TEST_F(ResilienceSystemTest, FailingQueriesMergeTheirMetricsOnce) {
  core::UnifyOptions opts;
  opts.cost_feedback = false;
  opts.graceful_degradation = false;
  opts.exec.threads = 4;
  opts.exec.max_intra_op_parallelism = 4;
  // Half of all per-document predicate attempts time out, so a call fails
  // once in 16 after its four attempts: planning's few SCE samples often
  // survive, execution's many batches rarely do. The Section V-D
  // fallback cannot rescue the query: its calls always time out.
  opts.faults.per_type[PromptType::kEvalPredicate].timeout = 0.5;
  for (PromptType type :
       {PromptType::kChooseFallbackStrategy, PromptType::kGenerateCode,
        PromptType::kGenerateAnswer}) {
    opts.faults.per_type[type].timeout = 1.0;
  }
  core::UnifySystem system(corpus_, llm_, opts);
  ASSERT_TRUE(system.Setup().ok());
  const auto queries = Queries(20);

  // For each case, the first workload query that ends that way. Which
  // queries do is fixed by the fault seed.
  bool deadline_checked = false;
  bool execution_checked = false;
  for (const std::string& text : queries) {
    SCOPED_TRACE(text);
    if (!deadline_checked) {
      // Stopped by the deadline pre-check, before any execution-side call.
      core::QueryRequest request;
      request.text = text;
      request.deadline_seconds = 1e-6;
      const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
      core::QueryResult r = system.Answer(request);
      const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
      if (r.phase == core::QueryPhase::kOptimization &&
          r.status.code() == StatusCode::kDeadlineExceeded) {
        EXPECT_FALSE(r.metrics.counters.empty());
        ExpectMergedOnce(before, after, r);
        deadline_checked = true;
      }
    }
    if (!execution_checked) {
      // Failing in execution on an injected fault.
      const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
      core::QueryResult r = system.Answer(text);
      const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
      if (r.phase == core::QueryPhase::kExecution) {
        EXPECT_TRUE(IsTransientLlmFailure(r.status)) << r.status;
        // Its morsels ran on the executor's worker threads.
        EXPECT_GT(r.metrics.counters.count(telemetry::kMetricExecPartitions),
                  0u);
        EXPECT_GT(r.metrics.counters.count(
                      std::string(telemetry::kMetricLlmFaultTimeouts) +
                      ".eval_predicate"),
                  0u);
        ExpectMergedOnce(before, after, r);
        execution_checked = true;
      }
    }
  }
  EXPECT_TRUE(deadline_checked) << "no query stopped at the pre-check";
  EXPECT_TRUE(execution_checked) << "no query failed in execution";
}

}  // namespace
}  // namespace unify::llm
