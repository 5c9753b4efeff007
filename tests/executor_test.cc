#include <algorithm>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/query_scope.h"
#include "common/telemetry_names.h"
#include "core/runtime/executor.h"
#include "corpus/dataset_profile.h"
#include "embedding/hashed_embedder.h"
#include "exec/schedule.h"
#include "index/hnsw_index.h"
#include "llm/shared_cache.h"
#include "llm/sim_llm.h"
#include "llm/tracing_client.h"
#include "plan_util.h"

namespace unify::core {
namespace {

using testing::ZeroDenominatorPlan;

class ExecutorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto profile = corpus::SportsProfile();
    profile.doc_count = 400;
    corpus_ = new corpus::Corpus(corpus::GenerateCorpus(profile, 71));
    llm_ = new llm::SimulatedLlm(corpus_, llm::SimLlmOptions{});
  }
  static void TearDownTestSuite() {
    delete llm_;
    delete corpus_;
  }

  static ExecContext Ctx() {
    ExecContext ctx;
    ctx.corpus = corpus_;
    ctx.llm = llm_;
    return ctx;
  }

  /// Scan -> Filter(views>300) -> Count.
  static PhysicalPlan CountPlan() {
    PhysicalPlan plan;
    plan.answer_var = "V2";
    PhysicalNode scan;
    scan.logical.op_name = "Scan";
    scan.logical.output_var = kDocsVar;
    scan.impl = PhysicalImpl::kLinearScan;
    PhysicalNode filter;
    filter.logical.op_name = "Filter";
    filter.logical.args = {{"kind", "numeric"},
                           {"attribute", "views"},
                           {"cmp", "gt"},
                           {"value", "300"}};
    filter.logical.input_vars = {kDocsVar};
    filter.logical.output_var = "V1";
    filter.impl = PhysicalImpl::kExactFilter;
    PhysicalNode count;
    count.logical.op_name = "Count";
    count.logical.input_vars = {"V1"};
    count.logical.output_var = "V2";
    count.impl = PhysicalImpl::kPreCount;
    plan.nodes = {scan, filter, count};
    for (int i = 0; i < 3; ++i) plan.dag.AddNode();
    EXPECT_TRUE(plan.dag.AddEdge(0, 1).ok());
    EXPECT_TRUE(plan.dag.AddEdge(1, 2).ok());
    return plan;
  }

  /// Scan -> {LlmFilter(injury), LlmFilter(training)} -> Intersection:
  /// two independent LLM streams between a shared root and a join.
  static PhysicalPlan DiamondPlan() {
    PhysicalPlan plan;
    plan.answer_var = "V3";
    PhysicalNode scan;
    scan.logical.op_name = "Scan";
    scan.logical.output_var = kDocsVar;
    scan.impl = PhysicalImpl::kLinearScan;
    auto semantic_filter = [&](const std::string& phrase,
                               const std::string& out) {
      PhysicalNode f;
      f.logical.op_name = "Filter";
      f.logical.args = {{"kind", "semantic"}, {"phrase", phrase}};
      f.logical.input_vars = {kDocsVar};
      f.logical.output_var = out;
      f.impl = PhysicalImpl::kLlmFilter;
      return f;
    };
    PhysicalNode join;
    join.logical.op_name = "Intersection";
    join.logical.input_vars = {"V1", "V2"};
    join.logical.output_var = "V3";
    join.impl = PhysicalImpl::kPreSetOp;
    plan.nodes = {scan, semantic_filter("injury", "V1"),
                  semantic_filter("training", "V2"), join};
    for (int i = 0; i < 4; ++i) plan.dag.AddNode();
    EXPECT_TRUE(plan.dag.AddEdge(0, 1).ok());
    EXPECT_TRUE(plan.dag.AddEdge(0, 2).ok());
    EXPECT_TRUE(plan.dag.AddEdge(1, 3).ok());
    EXPECT_TRUE(plan.dag.AddEdge(2, 3).ok());
    return plan;
  }

  static size_t TruthCount() {
    size_t n = 0;
    for (const auto& doc : corpus_->docs()) n += doc.attrs.views > 300;
    return n;
  }

  static corpus::Corpus* corpus_;
  static llm::SimulatedLlm* llm_;
};
corpus::Corpus* ExecutorTest::corpus_ = nullptr;
llm::SimulatedLlm* ExecutorTest::llm_ = nullptr;

TEST_F(ExecutorTest, ExecutesSimplePlan) {
  PlanExecutor executor(Ctx(), {});
  auto result = executor.Execute(CountPlan());
  ASSERT_TRUE(result.status.ok()) << result.status;
  ASSERT_EQ(result.answer.kind, corpus::Answer::Kind::kNumber);
  EXPECT_DOUBLE_EQ(result.answer.number, static_cast<double>(TruthCount()));
  EXPECT_GT(result.virtual_seconds, 0);
  EXPECT_FALSE(result.adjusted);
  EXPECT_EQ(result.nodes.size(), 3u);
}

TEST_F(ExecutorTest, ParallelAndSequentialAgreeOnAnswer) {
  PlanExecutor::Options parallel;
  parallel.threads = 3;
  PlanExecutor::Options sequential;
  sequential.parallel = false;
  PlanExecutor a(Ctx(), parallel);
  PlanExecutor b(Ctx(), sequential);
  auto ra = a.Execute(CountPlan());
  auto rb = b.Execute(CountPlan());
  ASSERT_TRUE(ra.status.ok());
  ASSERT_TRUE(rb.status.ok());
  EXPECT_DOUBLE_EQ(ra.answer.number, rb.answer.number);
  // Sequential virtual time can never beat the parallel schedule.
  EXPECT_GE(rb.virtual_seconds + 1e-12, ra.virtual_seconds);
}

TEST_F(ExecutorTest, MissingAnswerVariableReported) {
  PhysicalPlan plan = CountPlan();
  plan.answer_var = "V99";
  PlanExecutor executor(Ctx(), {});
  auto result = executor.Execute(plan);
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.answer.kind, corpus::Answer::Kind::kNone);
}

TEST_F(ExecutorTest, MissingInputVariableFailsCleanly) {
  PhysicalPlan plan = CountPlan();
  plan.nodes[2].logical.input_vars = {"Vmissing"};
  PlanExecutor executor(Ctx(), {});
  auto result = executor.Execute(plan);
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(ExecutorTest, PlanAdjustmentRetriesAlternativeImpl) {
  // A Compute over a zero denominator fails with every implementation —
  // but an aggregate over docs with a broken impl choice can be rescued.
  // Here: Average forced onto an empty extracted list fails terminally;
  // check the adjusted flag and error surface.
  PhysicalPlan plan;
  plan.answer_var = "V1";
  PhysicalNode compute;
  compute.logical.op_name = "Compute";
  compute.logical.args = {{"expr", "ratio"}};
  compute.logical.input_vars = {};
  compute.logical.output_var = "V1";
  compute.impl = PhysicalImpl::kPreCompute;
  plan.nodes = {compute};
  plan.dag.AddNode();
  PlanExecutor executor(Ctx(), {});
  auto result = executor.Execute(plan);
  EXPECT_FALSE(result.status.ok());
  EXPECT_TRUE(result.adjusted);  // it tried to adjust before giving up
}

TEST_F(ExecutorTest, VirtualTimeUsesServerPool) {
  // Two independent LLM filters: with 1 server they serialize, with 2 they
  // overlap.
  const PhysicalPlan plan = DiamondPlan();

  PlanExecutor::Options one_server;
  one_server.num_servers = 1;
  PlanExecutor::Options four_servers;
  four_servers.num_servers = 4;
  auto slow = PlanExecutor(Ctx(), one_server).Execute(plan);
  auto fast = PlanExecutor(Ctx(), four_servers).Execute(plan);
  ASSERT_TRUE(slow.status.ok());
  ASSERT_TRUE(fast.status.ok());
  EXPECT_GT(slow.virtual_seconds, fast.virtual_seconds * 1.5);
  EXPECT_DOUBLE_EQ(slow.answer.number, fast.answer.number);
}

// The engine schedules each node's stream the moment the node finishes;
// the intervals it reports must equal what the list scheduler computes
// from the measured per-node costs, with DAG parallelism on and off. Every
// node runs exactly once.
TEST_F(ExecutorTest, ScheduleMatchesListSchedulerOnMeasuredCosts) {
  const PhysicalPlan plan = DiamondPlan();
  for (bool parallel : {true, false}) {
    SCOPED_TRACE(parallel ? "parallel" : "sequential");
    PlanExecutor::Options options;
    options.parallel = parallel;
    PlanExecutor executor(Ctx(), options);
    MetricsRegistry sink;
    ExecutionResult result;
    {
      QueryScope::Installer scope({&sink, nullptr, std::nullopt});
      result = executor.Execute(plan);
    }
    ASSERT_TRUE(result.status.ok()) << result.status;
    EXPECT_EQ(sink.Snapshot().counters[telemetry::kMetricExecNodes],
              static_cast<double>(plan.nodes.size()));

    // Every node of this plan is all CPU or all LLM, so the CPU share
    // of a row's measured seconds subtracts out exactly.
    ASSERT_EQ(result.nodes.size(), plan.nodes.size());
    std::vector<exec::NodeCost> costs;
    for (const PlanNodeAnalysis& row : result.nodes) {
      exec::NodeCost cost;
      cost.cpu_seconds = row.actual_seconds - row.llm_seconds;
      cost.llm_seconds = row.llm_seconds;
      costs.push_back(cost);
    }
    auto reference = exec::ScheduleDag(plan.dag, costs, options.num_servers,
                                       /*sequential=*/!parallel);
    ASSERT_TRUE(reference.ok()) << reference.status();
    for (size_t u = 0; u < plan.nodes.size(); ++u) {
      SCOPED_TRACE("node " + std::to_string(u));
      const PlanNodeAnalysis& row = result.nodes[u];
      EXPECT_TRUE(row.executed);
      EXPECT_EQ(row.virt_start, reference->start[u]);
      EXPECT_EQ(row.virt_finish, reference->finish[u]);
    }
    EXPECT_EQ(result.virtual_seconds, reference->makespan);
  }
}

// Every LLM call a split node makes on a morsel worker lands in the
// caller's sink (through the morsel's own registry), none in the global
// registry.
TEST_F(ExecutorTest, MorselWorkersRecordIntoTheCallersSink) {
  llm::TracingLlmClient traced(llm_);
  ExecContext ctx = Ctx();
  ctx.llm = &traced;
  PlanExecutor::Options options;
  options.max_intra_op_parallelism = 4;
  options.threads = 2;
  PlanExecutor executor(ctx, options);
  const std::string calls = std::string(telemetry::kMetricLlmCalls) + "." +
                            llm::PromptTypeName(llm::PromptType::kEvalPredicate);
  const MetricsSnapshot global_before = MetricsRegistry::Global().Snapshot();
  MetricsRegistry sink;
  ExecutionResult result;
  {
    QueryScope::Installer scope({&sink, nullptr, std::nullopt});
    result = executor.Execute(DiamondPlan());
  }
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_GT(result.nodes[1].partitions, 1);
  EXPECT_GT(result.nodes[2].partitions, 1);
  MetricsSnapshot local = sink.Snapshot();
  EXPECT_EQ(local.counters[calls], static_cast<double>(result.llm_calls));
  EXPECT_GT(local.counters[calls], 0);
  MetricsSnapshot global_delta =
      MetricsRegistry::Global().Snapshot().DeltaSince(global_before);
  EXPECT_EQ(global_delta.counters[calls], 0);
}

// Records the query scope that each call runs under, and its thread.
class ScopeProbeLlm : public llm::LlmClient {
 public:
  struct Seen {
    std::thread::id thread;
    QueryScope scope;
  };

  explicit ScopeProbeLlm(llm::LlmClient* inner) : inner_(inner) {}
  llm::LlmResult Call(const llm::LlmCall& call) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      seen_.push_back({std::this_thread::get_id(), QueryScope::Current()});
    }
    return inner_->Call(call);
  }
  llm::LlmUsage usage() const override { return inner_->usage(); }
  void ResetUsage() override { inner_->ResetUsage(); }

  std::vector<Seen> seen() const {
    std::lock_guard<std::mutex> lock(mu_);
    return seen_;
  }

 private:
  llm::LlmClient* const inner_;
  mutable std::mutex mu_;
  std::vector<Seen> seen_;
};

// Every call a morsel worker makes runs under the caller's query scope:
// the caller's retry budget and cache routing, with a registry of the
// morsel's own in place of the caller's sink.
TEST_F(ExecutorTest, MorselWorkersRunUnderTheCallersScope) {
  ScopeProbeLlm probe(llm_);
  ExecContext ctx = Ctx();
  ctx.llm = &probe;
  PlanExecutor::Options options;
  options.max_intra_op_parallelism = 4;
  options.threads = 2;
  PlanExecutor executor(ctx, options);
  MetricsRegistry sink;
  RetryBudget budget(60);
  ExecutionResult result;
  {
    QueryScope::Installer scope({&sink, &budget, true});
    result = executor.Execute(DiamondPlan());
  }
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_GT(result.nodes[1].partitions, 1);
  size_t on_workers = 0;
  for (const ScopeProbeLlm::Seen& seen : probe.seen()) {
    if (seen.thread == std::this_thread::get_id()) continue;
    ++on_workers;
    EXPECT_EQ(seen.scope.retry_budget, &budget);
    EXPECT_EQ(seen.scope.use_llm_cache, true);
    EXPECT_NE(seen.scope.metrics, nullptr);
    EXPECT_NE(seen.scope.metrics, &sink);
    EXPECT_NE(seen.scope.metrics, &MetricsRegistry::Global());
  }
  EXPECT_GT(on_workers, 0u);
}

// Holds each call that carries document 0 for 50 ms, so a split node's
// first morsel finishes after the others.
class FirstDocLagLlm : public llm::LlmClient {
 public:
  explicit FirstDocLagLlm(llm::LlmClient* inner) : inner_(inner) {}
  llm::LlmResult Call(const llm::LlmCall& call) override {
    if (std::find(call.items.begin(), call.items.end(), "0") !=
        call.items.end()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return inner_->Call(call);
  }
  llm::LlmUsage usage() const override { return inner_->usage(); }
  void ResetUsage() override { inner_->ResetUsage(); }

 private:
  llm::LlmClient* const inner_;
};

// A gauge set on a morsel worker (the shared cache's size, set as each
// morsel's calls are admitted) reaches the caller's sink at Global()'s
// latest level, although each morsel records into a registry of its own
// and the first morsel, the one with the largest level, finishes last.
TEST_F(ExecutorTest, MorselGaugesReachTheCallersSink) {
  FirstDocLagLlm lagging(llm_);
  llm::SharedLlmCache cache(llm::SharedLlmCacheOptions{});
  llm::SharedCacheLlmClient cached(&lagging, &cache, /*default_enabled=*/true);
  ExecContext ctx = Ctx();
  ctx.llm = &cached;
  PlanExecutor::Options options;
  options.max_intra_op_parallelism = 4;
  options.threads = 2;
  PlanExecutor executor(ctx, options);
  MetricsRegistry sink;
  ExecutionResult result;
  {
    QueryScope::Installer scope({&sink, nullptr, std::nullopt});
    result = executor.Execute(DiamondPlan());
  }
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_GT(result.nodes[1].partitions, 1);
  EXPECT_GT(sink.gauge(telemetry::kMetricLlmCacheBytes), 0);
  EXPECT_EQ(sink.gauge(telemetry::kMetricLlmCacheBytes),
            MetricsRegistry::Global().gauge(telemetry::kMetricLlmCacheBytes));
}

// A cycle anywhere in the DAG is rejected before any node runs: the
// LlmFilter outside the cycle must not pay for its LLM calls either.
TEST_F(ExecutorTest, CycleBelowRootRunsNoNode) {
  PhysicalPlan plan = DiamondPlan();
  ASSERT_TRUE(plan.dag.AddEdge(3, 1).ok());  // 1 -> 3 -> 1
  for (bool parallel : {true, false}) {
    SCOPED_TRACE(parallel ? "parallel" : "sequential");
    PlanExecutor::Options options;
    options.parallel = parallel;
    PlanExecutor executor(Ctx(), options);
    auto result = executor.Execute(plan);
    EXPECT_EQ(result.status.code(), StatusCode::kFailedPrecondition)
        << result.status;
    EXPECT_EQ(result.llm_calls, 0);
    for (const PlanNodeAnalysis& row : result.nodes) {
      EXPECT_FALSE(row.executed);
    }
  }
}

// A failing node stops the run: its error propagates and its descendants
// never execute.
TEST_F(ExecutorTest, FailingNodeLeavesDescendantsUnexecuted) {
  PhysicalPlan plan = DiamondPlan();
  plan.nodes[1].logical.input_vars = {"Vmissing"};
  for (bool parallel : {true, false}) {
    SCOPED_TRACE(parallel ? "parallel" : "sequential");
    PlanExecutor::Options options;
    options.parallel = parallel;
    PlanExecutor executor(Ctx(), options);
    auto result = executor.Execute(plan);
    EXPECT_EQ(result.status.code(), StatusCode::kFailedPrecondition)
        << result.status;
    EXPECT_TRUE(result.nodes[0].executed);
    EXPECT_FALSE(result.nodes[1].executed);
    EXPECT_FALSE(result.nodes[3].executed);
  }
}

// An empty plan runs nothing and reports its unbound answer variable.
TEST_F(ExecutorTest, EmptyPlanRunsNoNode) {
  PhysicalPlan plan;
  plan.answer_var = "V1";
  for (bool parallel : {true, false}) {
    SCOPED_TRACE(parallel ? "parallel" : "sequential");
    PlanExecutor::Options options;
    options.parallel = parallel;
    PlanExecutor executor(Ctx(), options);
    auto result = executor.Execute(plan);
    EXPECT_EQ(result.status.code(), StatusCode::kNotFound) << result.status;
    EXPECT_TRUE(result.nodes.empty());
    EXPECT_EQ(result.virtual_seconds, 0);
  }
}

TEST_F(ExecutorTest, TerminalFailureTriggersQueryReplanning) {
  // A ratio whose denominator is an empty filter result fails with every
  // Compute implementation; the executor must replan the original query
  // through the fallback strategies instead of surfacing the error.
  const PhysicalPlan plan = ZeroDenominatorPlan();
  PlanExecutor executor(Ctx(), {});
  auto result = executor.Execute(plan);
  EXPECT_TRUE(result.status.ok()) << result.status;
  EXPECT_TRUE(result.adjusted);
  // The replanned answer comes from the fallback, not the broken plan.
  EXPECT_GT(result.llm_calls, 0);
  // The adjustment shows up in the per-node rows that EXPLAIN ANALYZE
  // consumes, and the fallback generation trails them as a synthetic row.
  // retries counts alternative implementations actually tried, which
  // stays 0 for ops with a single implementation.
  ASSERT_EQ(result.nodes.size(), plan.nodes.size() + 1);
  EXPECT_TRUE(result.nodes.back().synthetic_fallback);
  bool any_adjusted = false;
  for (size_t u = 0; u < plan.nodes.size(); ++u) {
    if (!result.nodes[u].adjusted) continue;
    any_adjusted = true;
    EXPECT_GE(result.nodes[u].retries, 0);
  }
  EXPECT_TRUE(any_adjusted);
}

// The fallback generation cannot start before its strategy call has
// returned: on the private pool, execution ends at the failure plus the
// strategy call, the generation's CPU time and its LLM stream — the
// fallback row's busy time — and the row waits for no server.
TEST_F(ExecutorTest, FallbackGenerationWaitsForItsStrategyCall) {
  const PhysicalPlan plan = ZeroDenominatorPlan();
  const ExecutionResult result = PlanExecutor(Ctx(), {}).Execute(plan);
  ASSERT_TRUE(result.status.ok()) << result.status;
  ASSERT_EQ(result.nodes.size(), plan.nodes.size() + 1);
  double failed_at = 0;
  for (size_t u = 0; u < plan.nodes.size(); ++u) {
    if (result.nodes[u].executed) {
      failed_at = std::max(failed_at, result.nodes[u].virt_finish);
    }
  }
  const PlanNodeAnalysis& fallback = result.nodes.back();
  ASSERT_TRUE(fallback.synthetic_fallback);
  EXPECT_GT(fallback.llm_seconds, 0);
  EXPECT_NEAR(result.virtual_seconds, failed_at + fallback.actual_seconds,
              1e-9);
  EXPECT_EQ(fallback.virt_start, failed_at);
  EXPECT_EQ(fallback.virt_finish, result.virtual_seconds);
  EXPECT_NEAR(fallback.queue_wait_seconds, 0, 1e-9);
}

TEST_F(ExecutorTest, TimelineListsEveryOperator) {
  PlanExecutor executor(Ctx(), {});
  auto result = executor.Execute(CountPlan());
  ASSERT_TRUE(result.status.ok());
  EXPECT_NE(result.timeline.find("Scan"), std::string::npos);
  EXPECT_NE(result.timeline.find("Filter"), std::string::npos);
  EXPECT_NE(result.timeline.find("Count"), std::string::npos);
  size_t lines = 0;
  for (char c : result.timeline) lines += c == '\n';
  EXPECT_EQ(lines, 3u);
}

TEST_F(ExecutorTest, LlmAccountingAggregates) {
  PhysicalPlan plan = CountPlan();
  plan.nodes[1].impl = PhysicalImpl::kLlmFilter;
  PlanExecutor executor(Ctx(), {});
  auto result = executor.Execute(plan);
  ASSERT_TRUE(result.status.ok());
  EXPECT_GT(result.llm_calls, 0);
  EXPECT_GT(result.llm_seconds_total, 0);
  // Numeric predicate via the LLM still lands near the exact count.
  EXPECT_NEAR(result.answer.number, static_cast<double>(TruthCount()),
              TruthCount() * 0.1 + 3);
}

}  // namespace
}  // namespace unify::core
