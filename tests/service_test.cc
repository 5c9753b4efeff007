#include "core/runtime/service.h"

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/telemetry_names.h"
#include "corpus/dataset_profile.h"
#include "corpus/workload.h"
#include "llm/sim_llm.h"

namespace unify::core {
namespace {

class ServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto profile = corpus::SportsProfile();
    profile.doc_count = 400;  // small corpus: fast tests
    corpus_ = new corpus::Corpus(corpus::GenerateCorpus(profile, 33));
    llm_ = new llm::SimulatedLlm(corpus_, llm::SimLlmOptions{});
    UnifyOptions options;
    options.collect_trace = false;
    // Freeze cost-model feedback: plan choice must not depend on which
    // queries ran earlier, the setting under which concurrent serving is
    // byte-identical to a sequential replay.
    options.cost_feedback = false;
    system_ = new UnifySystem(corpus_, llm_, options);
    ASSERT_TRUE(system_->Setup().ok());
  }
  static void TearDownTestSuite() {
    delete system_;
    delete llm_;
    delete corpus_;
    system_ = nullptr;
    llm_ = nullptr;
    corpus_ = nullptr;
  }

  static std::vector<std::string> Queries() {
    corpus::WorkloadOptions wopts;
    wopts.per_template = 1;
    wopts.seed = 99;
    std::vector<std::string> queries;
    for (const auto& qc : corpus::GenerateWorkload(*corpus_, wopts)) {
      queries.push_back(qc.text);
      if (queries.size() >= 8) break;
    }
    return queries;
  }

  static corpus::Corpus* corpus_;
  static llm::SimulatedLlm* llm_;
  static UnifySystem* system_;
};

corpus::Corpus* ServiceTest::corpus_ = nullptr;
llm::SimulatedLlm* ServiceTest::llm_ = nullptr;
UnifySystem* ServiceTest::system_ = nullptr;

/// Counters that are sums of integers (exact, order-independent); the
/// seconds/dollars counters accumulate fractional doubles whose addition
/// order differs under concurrency. Read through FamilySum, so the
/// per-prompt-type `llm.calls.<type>` family counts as one counter.
const char* const kExactCounters[] = {
    telemetry::kMetricLlmCalls,     telemetry::kMetricExecNodes,
    telemetry::kMetricSceEstimates, telemetry::kMetricSceSamples,
    telemetry::kMetricPlanReductions,
};

TEST_F(ServiceTest, ConcurrentAnswersMatchSequentialByteForByte) {
  const std::vector<std::string> queries = Queries();
  ASSERT_GE(queries.size(), 4u);

  // Sequential reference, straight through the system.
  std::map<std::string, std::string> expected;
  MetricsSnapshot seq_before = MetricsRegistry::Global().Snapshot();
  for (const auto& q : queries) {
    QueryResult result = system_->Answer(q);
    ASSERT_TRUE(result.status.ok()) << q << ": " << result.status;
    expected[q] = result.answer.ToString();
  }
  MetricsSnapshot seq_delta =
      MetricsRegistry::Global().Snapshot().DeltaSince(seq_before);

  // Concurrent serving of the same batch (more workers than queries, so
  // everything is truly in flight at once).
  UnifyService::Options sopts;
  sopts.num_workers = 8;
  UnifyService service(system_, sopts);
  MetricsSnapshot conc_before = MetricsRegistry::Global().Snapshot();
  std::vector<std::future<QueryResult>> futures;
  for (const auto& q : queries) {
    QueryRequest request;
    request.text = q;
    futures.push_back(service.Submit(std::move(request)));
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryResult result = futures[i].get();
    ASSERT_TRUE(result.status.ok()) << queries[i] << ": " << result.status;
    EXPECT_EQ(result.phase, QueryPhase::kComplete);
    EXPECT_EQ(result.answer.ToString(), expected[queries[i]])
        << "concurrent answer diverged for: " << queries[i];
    EXPECT_GE(result.queue_wall_seconds, 0);
    EXPECT_GE(result.completion_seconds,
              result.arrival_seconds + result.total_seconds - 1e-9);
  }
  MetricsSnapshot conc_delta =
      MetricsRegistry::Global().Snapshot().DeltaSince(conc_before);

  // The batch did identical work: every exact counter's batch-level delta
  // matches the sequential run (DeltaSince omits zero deltas, so a missing
  // entry reads as 0).
  for (const char* name : kExactCounters) {
    EXPECT_DOUBLE_EQ(seq_delta.FamilySum(name), conc_delta.FamilySum(name))
        << name;
  }
  // Every query executes at least one plan node and calls the LLM, so
  // these cannot be 0.
  EXPECT_GT(conc_delta.FamilySum(telemetry::kMetricExecNodes), 0);
  EXPECT_GT(conc_delta.FamilySum(telemetry::kMetricLlmCalls), 0);

  auto stats = service.stats();
  EXPECT_EQ(stats.submitted, static_cast<int64_t>(queries.size()));
  EXPECT_EQ(stats.completed, static_cast<int64_t>(queries.size()));
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.inflight, 0);
  EXPECT_GT(stats.pool_busy_seconds, 0);
}

TEST_F(ServiceTest, SubmissionOrderDoesNotChangeAnswers) {
  const std::vector<std::string> queries = Queries();
  std::vector<std::string> reversed(queries.rbegin(), queries.rend());

  UnifyService::Options sopts;
  sopts.num_workers = 4;
  UnifyService forward(system_, sopts);
  UnifyService backward(system_, sopts);

  std::map<std::string, std::string> forward_answers;
  std::vector<std::future<QueryResult>> ff;
  std::vector<std::future<QueryResult>> bf;
  for (const auto& q : queries) {
    QueryRequest request;
    request.text = q;
    ff.push_back(forward.Submit(std::move(request)));
  }
  for (const auto& q : reversed) {
    QueryRequest request;
    request.text = q;
    bf.push_back(backward.Submit(std::move(request)));
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    forward_answers[queries[i]] = ff[i].get().answer.ToString();
  }
  for (size_t i = 0; i < reversed.size(); ++i) {
    EXPECT_EQ(bf[i].get().answer.ToString(), forward_answers[reversed[i]])
        << "answer depends on submission order: " << reversed[i];
  }
}

TEST_F(ServiceTest, AdmissionControlRejectsWhenQueueIsFull) {
  UnifyService::Options sopts;
  sopts.num_workers = 1;
  sopts.max_queue_depth = 2;
  UnifyService service(system_, sopts);

  const std::vector<std::string> queries = Queries();
  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 8; ++i) {
    QueryRequest request;
    request.text = queries[static_cast<size_t>(i) % queries.size()];
    futures.push_back(service.Submit(std::move(request)));
  }
  int rejected = 0;
  for (auto& f : futures) {
    QueryResult result = f.get();
    if (result.status.code() == StatusCode::kResourceExhausted) {
      EXPECT_EQ(result.phase, QueryPhase::kAdmission);
      rejected += 1;
    } else {
      EXPECT_TRUE(result.status.ok()) << result.status;
    }
  }
  // 8 submissions raced into a depth-2 queue served by one worker: at
  // least the overflow beyond queue+worker capacity was rejected.
  EXPECT_GE(rejected, 1);
  EXPECT_EQ(service.stats().rejected, rejected);
}

TEST_F(ServiceTest, DeadlineExceededBeforeExecutionSavesLlmSpend) {
  UnifyService::Options sopts;
  sopts.num_workers = 1;
  UnifyService service(system_, sopts);

  QueryRequest request;
  request.text = Queries().front();
  request.deadline_seconds = 1e-3;  // virtually nothing: planning alone busts
  QueryResult result = service.Answer(std::move(request));
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded)
      << result.status;
  // Rejected from the predicted makespan, before execution spent anything.
  EXPECT_EQ(result.phase, QueryPhase::kOptimization);
  EXPECT_EQ(result.exec_seconds, 0);
  EXPECT_EQ(service.stats().deadline_exceeded, 1);
}

TEST_F(ServiceTest, DefaultDeadlineAppliesToRequestsWithoutOne) {
  UnifyService::Options sopts;
  sopts.num_workers = 1;
  sopts.default_deadline_seconds = 1e-3;
  UnifyService service(system_, sopts);
  QueryResult result = service.Answer(Queries().front());
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
}

TEST_F(ServiceTest, EmptyQueryFailsAdmission) {
  UnifyService service(system_, {});
  QueryResult result = service.Answer(std::string());
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.phase, QueryPhase::kAdmission);
}

TEST_F(ServiceTest, PerQueryOverridesReachTheOptimizer) {
  UnifyService service(system_, {});
  QueryRequest request;
  request.text = Queries().front();
  request.overrides.collect_trace = true;
  request.client_tag = "tenant-7";
  QueryResult result = service.Answer(std::move(request));
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_EQ(result.client_tag, "tenant-7");
  ASSERT_NE(result.trace, nullptr);
  // The serving span parents the query's lifecycle span tree.
  const auto spans = result.trace->spans();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans.front().name, telemetry::kSpanServeQuery);
  bool found_query_span = false;
  for (const auto& span : spans) {
    if (span.name == telemetry::kSpanQuery) {
      found_query_span = true;
      EXPECT_EQ(span.parent, spans.front().id);
    }
  }
  EXPECT_TRUE(found_query_span);
}

TEST_F(ServiceTest, FlightRecorderCapturesLifecycleUnder64Clients) {
  UnifyService::Options sopts;
  sopts.num_workers = 4;
  sopts.max_queue_depth = 3;  // the 64-client storm must overflow this
  sopts.flight_recorder_capacity = 48;  // smaller than the event volume
  sopts.slow_query_capacity = 4;
  UnifyService service(system_, sopts);
  const std::vector<std::string> queries = Queries();

  constexpr int kClients = 64;
  std::atomic<int> ok{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      QueryRequest request;
      request.text = queries[static_cast<size_t>(c) % queries.size()];
      request.client_tag = "client-" + std::to_string(c);
      QueryResult result = service.Answer(std::move(request));
      if (result.status.code() == StatusCode::kResourceExhausted) {
        rejected.fetch_add(1);
      } else {
        EXPECT_TRUE(result.status.ok()) << result.status;
        ok.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  // One more query with a hopeless deadline, on a now-empty queue, so a
  // deadline-miss event is guaranteed to be in the newest window.
  QueryRequest hopeless;
  hopeless.text = queries.front();
  hopeless.deadline_seconds = 1e-3;
  EXPECT_EQ(service.Answer(std::move(hopeless)).status.code(),
            StatusCode::kDeadlineExceeded);

  const auto stats = service.stats();
  EXPECT_EQ(stats.rejected, rejected.load());
  EXPECT_GE(rejected.load(), 1);  // the storm overflowed the depth-3 queue
  EXPECT_EQ(stats.completed, ok.load() + 1);

  const FlightRecorder& recorder = service.flight_recorder();
  // Every lifecycle was recorded: one event per rejection, at least
  // admit + start + complete per served query.
  EXPECT_GE(recorder.total_recorded(),
            static_cast<uint64_t>(3 * stats.completed + stats.rejected));
  const auto events = recorder.events();
  ASSERT_LE(events.size(), 48u);  // ring stayed bounded
  ASSERT_FALSE(events.empty());
  // The retained window is the newest events, consecutive and in order.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
    EXPECT_GE(events[i].wall_seconds, events[i - 1].wall_seconds);
  }
  std::set<ServeEventKind> kinds;
  for (const auto& e : events) kinds.insert(e.kind);
  EXPECT_EQ(kinds.count(ServeEventKind::kComplete), 1u);
  EXPECT_EQ(kinds.count(ServeEventKind::kDeadlineMiss), 1u);

  const auto slow = recorder.slow_queries();
  ASSERT_FALSE(slow.empty());
  EXPECT_LE(slow.size(), 4u);
  for (size_t i = 1; i < slow.size(); ++i) {
    EXPECT_GE(slow[i - 1].total_seconds, slow[i].total_seconds);
  }
  EXPECT_FALSE(slow.front().text.empty());
}

TEST_F(ServiceTest, PerQueryMetricsAreExactUnderConcurrency) {
  const std::vector<std::string> queries = Queries();

  // Sequential reference: with nothing else running, a query's attributed
  // metrics equal the global registry's delta across the call.
  MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  QueryResult solo = system_->Answer(queries.front());
  ASSERT_TRUE(solo.status.ok()) << solo.status;
  MetricsSnapshot delta =
      MetricsRegistry::Global().Snapshot().DeltaSince(before);
  for (const char* name : kExactCounters) {
    EXPECT_DOUBLE_EQ(solo.metrics.FamilySum(name), delta.FamilySum(name))
        << name;
  }
  EXPECT_GT(solo.metrics.FamilySum(telemetry::kMetricExecNodes), 0);
  EXPECT_GT(solo.metrics.FamilySum(telemetry::kMetricLlmCalls), 0);

  // Concurrent batch: per-query attribution must add up to the global
  // delta exactly — nothing lost, nothing double-counted, no bleed
  // between in-flight queries.
  UnifyService::Options sopts;
  sopts.num_workers = 8;
  UnifyService service(system_, sopts);
  MetricsSnapshot conc_before = MetricsRegistry::Global().Snapshot();
  std::vector<std::future<QueryResult>> futures;
  for (const auto& q : queries) {
    QueryRequest request;
    request.text = q;
    futures.push_back(service.Submit(std::move(request)));
  }
  std::vector<QueryResult> results;
  for (auto& f : futures) results.push_back(f.get());
  MetricsSnapshot conc_delta =
      MetricsRegistry::Global().Snapshot().DeltaSince(conc_before);

  QueryResult* front_result = nullptr;
  for (auto& r : results) {
    ASSERT_TRUE(r.status.ok()) << r.status;
    EXPECT_GT(r.metrics.FamilySum(telemetry::kMetricExecNodes), 0);
    if (r.query_id == solo.query_id) front_result = &r;
  }
  for (const char* name : kExactCounters) {
    double sum = 0;
    for (const auto& r : results) sum += r.metrics.FamilySum(name);
    EXPECT_DOUBLE_EQ(sum, conc_delta.FamilySum(name)) << name;
  }
  // The same query attributes the same exact counters whether it ran
  // alone or among 7 concurrent peers.
  ASSERT_NE(front_result, nullptr);
  for (const char* name : kExactCounters) {
    EXPECT_DOUBLE_EQ(front_result->metrics.FamilySum(name),
                     solo.metrics.FamilySum(name))
        << name;
  }
}

// --- fair scheduler through the service ------------------------------------

// Fair scheduling must change WHEN queries dispatch, never WHAT they
// answer: with weights, tags, and priority classes in play, every answer
// is byte-identical to a sequential run — including at concurrency 1,
// where dispatch order itself is deterministic.
TEST_F(ServiceTest, FairSchedulerServesIdenticalAnswersToSequential) {
  const std::vector<std::string> queries = Queries();
  std::map<std::string, std::string> expected;
  for (const auto& q : queries) {
    QueryResult result = system_->Answer(q);
    ASSERT_TRUE(result.status.ok()) << q << ": " << result.status;
    expected[q] = result.answer.ToString();
  }

  for (int num_workers : {1, 4}) {
    UnifyService::Options sopts;
    sopts.num_workers = num_workers;
    sopts.scheduler = UnifyService::Scheduler::kFair;
    sopts.tenant_weights = {{"t0", 0.5}, {"t1", 4.0}};
    UnifyService service(system_, sopts);

    std::vector<std::future<QueryResult>> futures;
    for (size_t i = 0; i < queries.size(); ++i) {
      QueryRequest request;
      request.text = queries[i];
      request.client_tag = "t" + std::to_string(i % 3);
      request.overrides.priority = static_cast<QueryPriority>(i % 3);
      futures.push_back(service.Submit(std::move(request)));
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      QueryResult result = futures[i].get();
      ASSERT_TRUE(result.status.ok()) << queries[i] << ": " << result.status;
      EXPECT_EQ(result.answer.ToString(), expected[queries[i]])
          << "fair scheduling changed the answer (" << num_workers
          << " workers): " << queries[i];
    }

    // A worker marks OnComplete after resolving the promise, so `running`
    // may trail the last future by an instant; wait for quiescence.
    for (int spin = 0; spin < 2000 && service.stats().sched.running != 0;
         ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const auto stats = service.stats();
    EXPECT_EQ(stats.completed, static_cast<int64_t>(queries.size()));
    EXPECT_EQ(stats.sched.enqueued, static_cast<int64_t>(queries.size()));
    EXPECT_EQ(stats.sched.dispatched, static_cast<int64_t>(queries.size()));
    EXPECT_EQ(stats.sched.queued, 0);
    EXPECT_EQ(stats.sched.running, 0);
    EXPECT_EQ(stats.shed, 0);
    int64_t tenant_dispatched = 0;
    for (const auto& [tenant, t] : stats.sched.tenants) {
      tenant_dispatched += t.dispatched;
    }
    EXPECT_EQ(tenant_dispatched, static_cast<int64_t>(queries.size()));
  }
}

TEST_F(ServiceTest, FairPerTenantDepthCapRejectsBeforeGlobalCap) {
  UnifyService::Options sopts;
  sopts.num_workers = 1;
  sopts.max_queue_depth = 64;  // global cap stays far away
  sopts.scheduler = UnifyService::Scheduler::kFair;
  sopts.per_tenant_queue_depth = 2;
  UnifyService service(system_, sopts);
  const std::vector<std::string> queries = Queries();

  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 12; ++i) {
    QueryRequest request;
    request.text = queries[static_cast<size_t>(i) % queries.size()];
    request.client_tag = "noisy";
    futures.push_back(service.Submit(std::move(request)));
  }
  // A different tenant's queue is empty, so it is admitted regardless of
  // how full "noisy" is — that is the isolation the per-tenant cap buys.
  QueryRequest quiet;
  quiet.text = queries.front();
  quiet.client_tag = "quiet";
  std::future<QueryResult> quiet_future = service.Submit(std::move(quiet));

  int tenant_rejected = 0;
  for (auto& f : futures) {
    QueryResult result = f.get();
    if (result.status.code() == StatusCode::kResourceExhausted) {
      EXPECT_EQ(result.phase, QueryPhase::kAdmission);
      EXPECT_NE(result.status.message().find("per_tenant_queue_depth"),
                std::string::npos)
          << result.status;
      tenant_rejected += 1;
    } else {
      EXPECT_TRUE(result.status.ok()) << result.status;
    }
  }
  EXPECT_TRUE(quiet_future.get().status.ok());
  // 12 instant submissions into a depth-2 tenant queue served by one
  // worker: the overflow was rejected per-tenant, not globally.
  EXPECT_GE(tenant_rejected, 1);

  const auto stats = service.stats();
  EXPECT_EQ(stats.rejected, tenant_rejected);
  EXPECT_EQ(stats.sched.tenant_rejects, tenant_rejected);
  EXPECT_EQ(stats.sched.tenants.at("noisy").rejected, tenant_rejected);
  EXPECT_EQ(stats.sched.tenants.at("quiet").rejected, 0);
  int tenant_reject_events = 0;
  for (const auto& e : service.flight_recorder().events()) {
    if (e.kind == ServeEventKind::kTenantReject) tenant_reject_events += 1;
  }
  EXPECT_EQ(tenant_reject_events, tenant_rejected);
}

TEST_F(ServiceTest, FairSchedulerShedsQueuedWorkWhoseDeadlinePassed) {
  // One LLM server: the pool's Now() (min server free-time) advances as
  // soon as any query spends LLM time, making the shed deterministic.
  UnifyOptions options;
  options.collect_trace = false;
  options.cost_feedback = false;
  options.exec.num_servers = 1;
  UnifySystem system(corpus_, llm_, options);
  ASSERT_TRUE(system.Setup().ok());

  UnifyService::Options sopts;
  sopts.num_workers = 1;
  sopts.scheduler = UnifyService::Scheduler::kFair;
  UnifyService service(&system, sopts);
  const std::vector<std::string> queries = Queries();

  // Serve queries normally until the virtual clock moves past zero.
  int64_t warmups = 0;
  for (const auto& q : queries) {
    ASSERT_TRUE(service.Answer(q).status.ok());
    warmups += 1;
    if (service.pool().Now() > 1e-5) break;
  }
  ASSERT_GT(service.pool().Now(), 1e-5);

  // This request declares it arrived at virtual time 0 with a deadline the
  // clock has long passed: the scheduler must fail it from the queue
  // without wasting the worker on planning it.
  QueryRequest hopeless;
  hopeless.text = queries[1];
  hopeless.client_tag = "latecomer";
  hopeless.arrival_seconds = 0;
  hopeless.deadline_seconds = 1e-6;
  QueryResult result = service.Answer(std::move(hopeless));

  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded)
      << result.status;
  EXPECT_EQ(result.phase, QueryPhase::kAdmission);  // never reached planning
  EXPECT_NE(result.status.message().find("shed"), std::string::npos);

  const auto stats = service.stats();
  EXPECT_EQ(stats.shed, 1);
  EXPECT_EQ(stats.sched.sheds, 1);
  EXPECT_EQ(stats.completed, warmups);     // only the warm-up queries
  EXPECT_EQ(stats.deadline_exceeded, 0);   // sheds are not served misses
  EXPECT_EQ(stats.tenants.at("latecomer").deadline_misses, 1);
  int shed_events = 0;
  std::optional<uint64_t> admit_seq, shed_seq;
  for (const auto& e : service.flight_recorder().events()) {
    if (e.kind == ServeEventKind::kAdmit && e.client_tag == "latecomer") {
      admit_seq = e.seq;
    }
    if (e.kind == ServeEventKind::kShed) {
      shed_events += 1;
      shed_seq = e.seq;
      EXPECT_EQ(e.client_tag, "latecomer");
      EXPECT_GE(e.queue_wall_seconds, 0);
    }
  }
  EXPECT_EQ(shed_events, 1);
  ASSERT_TRUE(admit_seq.has_value() && shed_seq.has_value());
  EXPECT_LT(*admit_seq, *shed_seq);  // admitted before it was shed
}

// Satellite fix regression: stats() must snapshot the counters and the
// tenant ledger under one lock, so no interleaving of submits,
// completions, and rejections can surface a torn read where the counters
// and the per-tenant map disagree. Run under TSAN via scripts/check.sh.
TEST_F(ServiceTest, StatsStayConsistentWhileSubmitsHammerTheLedger) {
  UnifyService::Options sopts;
  sopts.num_workers = 4;
  sopts.max_queue_depth = 6;  // small: rejections race completions
  sopts.scheduler = UnifyService::Scheduler::kFair;
  sopts.per_tenant_queue_depth = 3;
  UnifyService service(system_, sopts);
  const std::vector<std::string> queries = Queries();

  std::atomic<bool> done{false};
  std::atomic<int> snapshots{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load()) {
        const auto s = service.stats();
        // The consistency property itself: every completion/shed recorded
        // a tenant query, every rejection a tenant rejection, under the
        // same lock the counters moved — so ANY snapshot must balance.
        int64_t tenant_queries = 0, tenant_rejects = 0;
        for (const auto& [tag, usage] : s.tenants) {
          tenant_queries += usage.queries;
          tenant_rejects += usage.rejected;
        }
        EXPECT_EQ(tenant_queries, s.completed + s.shed);
        EXPECT_EQ(tenant_rejects, s.rejected);
        snapshots.fetch_add(1);
      }
    });
  }

  std::vector<std::thread> submitters;
  std::atomic<int> ok{0}, failed{0};
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < 6; ++i) {
        QueryRequest request;
        request.text = queries[static_cast<size_t>(t + i) % queries.size()];
        request.client_tag = "tenant-" + std::to_string(t);
        QueryResult result = service.Answer(std::move(request));
        if (result.status.ok()) {
          ok.fetch_add(1);
        } else {
          EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted)
              << result.status;
          failed.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  done.store(true);
  for (auto& t : readers) t.join();

  EXPECT_GT(snapshots.load(), 0);
  const auto s = service.stats();
  EXPECT_EQ(s.completed, ok.load());
  EXPECT_EQ(s.rejected, failed.load());
  EXPECT_EQ(s.inflight, 0);
}

// Satellite coverage gap: max_queue_depth rejections racing deadline
// misses on queued work — and the flight recorder must reconcile 1:1
// with the QueryPhases the futures returned, under both schedulers.
TEST_F(ServiceTest, QueueFullRejectsRaceDeadlineMissesAndEventsReconcile) {
  for (UnifyService::Scheduler scheduler :
       {UnifyService::Scheduler::kFifo, UnifyService::Scheduler::kFair}) {
    SCOPED_TRACE(scheduler == UnifyService::Scheduler::kFifo ? "fifo"
                                                             : "fair");
    UnifyService::Options sopts;
    sopts.num_workers = 2;
    sopts.max_queue_depth = 3;
    sopts.flight_recorder_capacity = 1024;  // retain the whole storm
    sopts.scheduler = scheduler;
    UnifyService service(system_, sopts);
    const std::vector<std::string> queries = Queries();

    // Unique client_tag per submission, so each future's outcome can be
    // matched to exactly its own flight-recorder events.
    std::vector<std::future<QueryResult>> futures;
    for (int i = 0; i < 24; ++i) {
      QueryRequest request;
      request.text = queries[static_cast<size_t>(i) % queries.size()];
      request.client_tag = "storm-" + std::to_string(i);
      // The first two are admitted for sure (empty queue) and carry a
      // hopeless deadline: guaranteed deadline misses on admitted work,
      // racing the rejects the rest of the storm provokes.
      if (i < 2 || i % 2 == 0) request.deadline_seconds = 1e-3;
      futures.push_back(service.Submit(std::move(request)));
    }

    int ok_n = 0, miss_n = 0, rejected_n = 0;
    std::map<std::string, QueryResult> outcomes;
    for (int i = 0; i < 24; ++i) {
      QueryResult result = futures[static_cast<size_t>(i)].get();
      const std::string tag = "storm-" + std::to_string(i);
      EXPECT_EQ(result.client_tag, tag);
      if (result.status.code() == StatusCode::kResourceExhausted) {
        EXPECT_EQ(result.phase, QueryPhase::kAdmission);
        rejected_n += 1;
      } else if (result.status.code() == StatusCode::kDeadlineExceeded) {
        miss_n += 1;
      } else {
        EXPECT_TRUE(result.status.ok()) << result.status;
        ok_n += 1;
      }
      outcomes.emplace(tag, std::move(result));
    }
    EXPECT_EQ(ok_n + miss_n + rejected_n, 24);
    EXPECT_GE(miss_n, 2);      // the two guaranteed-admitted hopeless ones
    EXPECT_GE(rejected_n, 1);  // the storm overflowed the depth-3 queue

    // Reconcile events against returned phases, 1:1 per submission.
    std::map<std::string, std::map<ServeEventKind, std::vector<uint64_t>>>
        seqs_by_tag;
    for (const auto& e : service.flight_recorder().events()) {
      if (e.client_tag.rfind("storm-", 0) == 0) {
        seqs_by_tag[e.client_tag][e.kind].push_back(e.seq);
      }
    }
    for (const auto& [tag, result] : outcomes) {
      auto& seqs = seqs_by_tag[tag];
      auto count = [&seqs](ServeEventKind kind) {
        return static_cast<int>(seqs[kind].size());
      };
      // Exactly one terminal event per submission.
      EXPECT_EQ(count(ServeEventKind::kReject) +
                    count(ServeEventKind::kTenantReject) +
                    count(ServeEventKind::kShed) +
                    count(ServeEventKind::kComplete),
                1)
          << tag;
      if (result.status.code() == StatusCode::kResourceExhausted) {
        // A rejected submission records exactly one terminal reject event
        // and nothing else — it never entered the serving lifecycle.
        EXPECT_EQ(count(ServeEventKind::kReject), 1) << tag;
        EXPECT_EQ(count(ServeEventKind::kAdmit), 0) << tag;
        EXPECT_EQ(count(ServeEventKind::kStart), 0) << tag;
        EXPECT_EQ(count(ServeEventKind::kComplete), 0) << tag;
      } else {
        EXPECT_EQ(count(ServeEventKind::kReject), 0) << tag;
        EXPECT_EQ(count(ServeEventKind::kAdmit), 1) << tag;
        EXPECT_EQ(count(ServeEventKind::kStart), 1) << tag;
        EXPECT_EQ(count(ServeEventKind::kComplete), 1) << tag;
        // A deadline-missed future gets its miss marker; a clean one must
        // not.
        EXPECT_EQ(count(ServeEventKind::kDeadlineMiss),
                  result.status.code() == StatusCode::kDeadlineExceeded ? 1
                                                                        : 0)
            << tag;
        // The lifecycle is ordered: admit, then start, then complete.
        if (count(ServeEventKind::kAdmit) == 1 &&
            count(ServeEventKind::kStart) == 1 &&
            count(ServeEventKind::kComplete) == 1) {
          EXPECT_LT(seqs[ServeEventKind::kAdmit][0],
                    seqs[ServeEventKind::kStart][0])
              << tag;
          EXPECT_LT(seqs[ServeEventKind::kStart][0],
                    seqs[ServeEventKind::kComplete][0])
              << tag;
        }
      }
    }
    const auto stats = service.stats();
    EXPECT_EQ(stats.rejected, rejected_n);
    EXPECT_EQ(stats.deadline_exceeded, miss_n);
    EXPECT_EQ(stats.completed, ok_n + miss_n);
  }
}

// What bench_scheduler's FIFO baseline relies on: with one worker, FIFO
// mode starts queued requests in submission order whatever their
// priority override says.
TEST_F(ServiceTest, FifoStartsQueuedRequestsInSubmissionOrder) {
  UnifyService::Options sopts;
  sopts.num_workers = 1;
  UnifyService service(system_, sopts);
  const std::vector<std::string> queries = Queries();

  // The first query holds the worker while the rest queue behind it.
  std::vector<std::future<QueryResult>> futures;
  QueryRequest first;
  first.text = queries.front();
  first.client_tag = "holder";
  futures.push_back(service.Submit(std::move(first)));
  std::vector<std::string> submitted;
  for (int i = 0; i < 8; ++i) {
    QueryRequest request;
    request.text = queries[static_cast<size_t>(i) % queries.size()];
    request.client_tag = "fifo-" + std::to_string(i);
    request.overrides.priority = static_cast<QueryPriority>((i * 2) % 3);
    submitted.push_back(request.client_tag);
    futures.push_back(service.Submit(std::move(request)));
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());

  std::vector<std::string> started;
  for (const auto& e : service.flight_recorder().events()) {
    if (e.kind == ServeEventKind::kStart &&
        e.client_tag.rfind("fifo-", 0) == 0) {
      started.push_back(e.client_tag);
    }
  }
  EXPECT_EQ(started, submitted);
}

// The scheduler's tenants are the ledger's buckets, so client_tag
// cardinality cannot grow the scheduler without bound either.
TEST_F(ServiceTest, FairSchedulerTenantsStayWithinTheLedgerBound) {
  constexpr int kTags = 2000;
  UnifyService::Options sopts;
  sopts.num_workers = 2;
  sopts.max_queue_depth = kTags;
  sopts.scheduler = UnifyService::Scheduler::kFair;
  UnifyService service(system_, sopts);

  // Empty text fails in the pipeline's admission stage, after dispatch:
  // every request is scheduled and served, cheaply.
  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < kTags; ++i) {
    QueryRequest request;
    request.client_tag = "tag-" + std::to_string(i);
    futures.push_back(service.Submit(std::move(request)));
  }
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status.code(), StatusCode::kInvalidArgument);
  }

  const auto stats = service.stats();
  EXPECT_LE(stats.sched.tenants.size(), TenantLedger::kMaxTaggedTenants + 2);
  EXPECT_EQ(stats.sched.tenants.count(TenantLedger::kOverflow), 1u);
  int64_t dispatched = 0;
  for (const auto& [tenant, t] : stats.sched.tenants) {
    EXPECT_EQ(stats.tenants.count(tenant), 1u) << tenant;
    dispatched += t.dispatched;
  }
  EXPECT_EQ(dispatched, kTags);
  int64_t tenant_queries = 0, tenant_failed = 0;
  for (const auto& [tag, usage] : stats.tenants) {
    tenant_queries += usage.queries;
    tenant_failed += usage.failed;
  }
  EXPECT_EQ(stats.completed, kTags);
  EXPECT_EQ(tenant_queries, stats.completed);
  EXPECT_EQ(tenant_failed, stats.completed);
}

TEST_F(ServiceTest, DollarsObjectiveOverrideProducesAResult) {
  UnifyService service(system_, {});
  QueryRequest request;
  request.text = Queries().front();
  request.overrides.objective = OptimizeObjective::kDollars;
  QueryResult timed = service.Answer(Queries().front());
  QueryResult dollars = service.Answer(std::move(request));
  ASSERT_TRUE(dollars.status.ok()) << dollars.status;
  // Same question, so whatever plan the objective picks must agree.
  EXPECT_EQ(dollars.answer.ToString(), timed.answer.ToString());
}

}  // namespace
}  // namespace unify::core
