// Mid-query re-optimization (docs/replanning.md): trigger behavior on a
// seeded mis-estimator, byte-identity of the adaptive engine when nothing
// triggers, suffix-only re-lowering, replan-cost charging, per-request
// override plumbing, and concurrent served replans (this test is in the
// scripts/check.sh sanitizer gates).

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/accuracy.h"
#include "common/metrics.h"
#include "common/telemetry_names.h"
#include "core/runtime/service.h"
#include "core/runtime/unify.h"
#include "corpus/dataset_profile.h"
#include "corpus/workload.h"
#include "llm/sim_llm.h"
#include "plan_util.h"

namespace unify::core {
namespace {

using testing::ChainedFilterQuery;

using corpus::Answer;

class ReoptimizeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto profile = corpus::SportsProfile();
    profile.doc_count = 400;  // small corpus: fast tests
    corpus_ = new corpus::Corpus(corpus::GenerateCorpus(profile, 33));
    llm_ = new llm::SimulatedLlm(corpus_, llm::SimLlmOptions{});
  }
  static void TearDownTestSuite() {
    delete llm_;
    delete corpus_;
    llm_ = nullptr;
    corpus_ = nullptr;
  }

  // A fresh system; cost feedback off so repeated Answer() calls stay
  // order-independent (required by the byte-identity comparisons).
  static std::unique_ptr<UnifySystem> MakeSystem(double card_est_scale,
                                                 int max_reoptimizations,
                                                 int parallelism = 1) {
    UnifyOptions options;
    options.exec.threads = 2;
    options.exec.max_intra_op_parallelism = parallelism;
    options.exec.max_reoptimizations = max_reoptimizations;
    options.card_est_scale = card_est_scale;
    options.cost_feedback = false;
    auto system = std::make_unique<UnifySystem>(corpus_, llm_, options);
    EXPECT_TRUE(system->Setup().ok());
    return system;
  }

  static double Counter(const QueryResult& result, const std::string& name) {
    auto it = result.metrics.counters.find(name);
    return it == result.metrics.counters.end() ? 0.0 : it->second;
  }

  static corpus::Corpus* corpus_;
  static llm::SimulatedLlm* llm_;
};

corpus::Corpus* ReoptimizeTest::corpus_ = nullptr;
llm::SimulatedLlm* ReoptimizeTest::llm_ = nullptr;

// A faithful estimator (card_est_scale = 1) never trips the trigger: the
// adaptive engine runs the whole query and reports zero replans.
TEST_F(ReoptimizeTest, NoTriggerOnFaithfulEstimates) {
  auto system = MakeSystem(/*card_est_scale=*/1.0, /*max_reoptimizations=*/2);
  auto result = system->Answer(ChainedFilterQuery());
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_TRUE(result.replans.empty());
  EXPECT_EQ(Counter(result, telemetry::kMetricReplanConsidered), 0);
  EXPECT_EQ(Counter(result, "llm.calls.replan_decision"), 0);
}

// A trigger that is armed but never fires must reproduce a disarmed run
// byte-identically — same answer, virtual times, dollars, and timeline —
// at sequential and morsel-parallel settings alike.
TEST_F(ReoptimizeTest, AdaptiveEngineIsByteIdenticalWithoutTrigger) {
  for (int parallelism : {1, 4}) {
    SCOPED_TRACE("max_intra_op_parallelism=" + std::to_string(parallelism));
    auto off = MakeSystem(1.0, /*max_reoptimizations=*/0, parallelism);
    auto on = MakeSystem(1.0, /*max_reoptimizations=*/2, parallelism);
    for (const char* query :
         {"How many questions about tennis are there?",
          "What is the average views of questions about injury?"}) {
      SCOPED_TRACE(query);
      auto base = off->Answer(query);
      auto adaptive = on->Answer(query);
      ASSERT_TRUE(base.status.ok()) << base.status;
      ASSERT_TRUE(adaptive.status.ok()) << adaptive.status;
      EXPECT_EQ(adaptive.answer.ToString(), base.answer.ToString());
      EXPECT_EQ(adaptive.exec_seconds, base.exec_seconds);
      EXPECT_EQ(adaptive.exec_dollars, base.exec_dollars);
      EXPECT_EQ(adaptive.timeline, base.timeline);
      const double calls = base.metrics.FamilySum(telemetry::kMetricLlmCalls);
      EXPECT_GT(calls, 0);
      EXPECT_EQ(adaptive.metrics.FamilySum(telemetry::kMetricLlmCalls), calls);
      EXPECT_TRUE(adaptive.replans.empty());
    }
  }
}

// A seeded 12x over-estimator trips the trigger at the first semantic
// materialization point; the replan is recorded, deterministic, and
// visible in EXPLAIN ANALYZE.
TEST_F(ReoptimizeTest, TriggersOnSeededMisestimate) {
  auto system = MakeSystem(/*card_est_scale=*/12.0, /*max_reoptimizations=*/2);
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  auto result = system->Answer(ChainedFilterQuery());
  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  ASSERT_TRUE(result.status.ok()) << result.status;
  ASSERT_FALSE(result.replans.empty()) << result.plan_explain;
  const ReplanRecord& rec = result.replans.front();
  EXPECT_GE(rec.qerror, 3.0);
  EXPECT_FALSE(rec.trigger_var.empty());
  EXPECT_GT(rec.observed_card, 0);
  EXPECT_GT(rec.estimated_card, rec.observed_card);  // over-estimator
  // The planner-tier decision call is charged to the query.
  EXPECT_GT(rec.decision_seconds, 0);
  EXPECT_GT(rec.decision_dollars, 0);
  EXPECT_GE(Counter(result, "llm.calls.replan_decision"), 1);
  EXPECT_GE(Counter(result, telemetry::kMetricReplanConsidered), 1);
  // Replan boundaries render in EXPLAIN ANALYZE.
  EXPECT_NE(result.explain_analyze().find("replan #1"), std::string::npos)
      << result.explain_analyze();
  // The accuracy report of the query's own metrics counts its replans,
  // and reads the same from the global registry's delta across the call.
  const AccuracyReport report(result.metrics);
  int64_t adopted = 0;
  for (const ReplanRecord& r : result.replans) adopted += r.adopted ? 1 : 0;
  EXPECT_EQ(report.replans_considered,
            static_cast<int64_t>(result.replans.size()));
  EXPECT_EQ(report.replans_adopted, adopted);
  EXPECT_GE(report.replans_improved, 0);
  EXPECT_LE(report.replans_improved, adopted);
  const AccuracyReport global(after.DeltaSince(before));
  EXPECT_EQ(global.replans_considered, report.replans_considered);
  EXPECT_EQ(global.replans_adopted, report.replans_adopted);
  EXPECT_EQ(global.replans_improved, report.replans_improved);
  EXPECT_EQ(global.replans_not_improved, report.replans_not_improved);
  // Deterministic: a rerun reproduces the decision and the outcome.
  auto rerun = system->Answer(ChainedFilterQuery());
  ASSERT_TRUE(rerun.status.ok()) << rerun.status;
  ASSERT_EQ(rerun.replans.size(), result.replans.size());
  EXPECT_EQ(rerun.replans.front().adopted, rec.adopted);
  EXPECT_EQ(rerun.replans.front().Sentence(), rec.Sentence());
  EXPECT_EQ(rerun.answer.ToString(), result.answer.ToString());
  EXPECT_EQ(rerun.exec_seconds, result.exec_seconds);
  EXPECT_EQ(rerun.exec_dollars, result.exec_dollars);
}

// Only the un-executed suffix may be re-lowered: every re-chosen node is
// in the recorded suffix, and the trigger node itself is pinned.
TEST_F(ReoptimizeTest, RelowersOnlyTheUnexecutedSuffix) {
  auto system = MakeSystem(12.0, /*max_reoptimizations=*/2);
  auto result = system->Answer(ChainedFilterQuery());
  ASSERT_TRUE(result.status.ok()) << result.status;
  ASSERT_FALSE(result.replans.empty());
  for (const ReplanRecord& rec : result.replans) {
    EXPECT_FALSE(rec.suffix_nodes.empty());
    for (int u : rec.relowered_nodes) {
      EXPECT_NE(u, rec.trigger_node);
      EXPECT_NE(std::find(rec.suffix_nodes.begin(), rec.suffix_nodes.end(),
                          u),
                rec.suffix_nodes.end())
          << "re-lowered node " << u << " is not in the un-executed suffix";
    }
    if (rec.adopted) {
      // An adopted replan predicted a strictly better suffix.
      EXPECT_LT(rec.new_suffix_cost, rec.old_suffix_cost);
    }
  }
  // Per-node markers: re-lowered nodes are flagged in the analysis.
  bool any_marked = false;
  for (const auto& a : result.plan_analysis) {
    if (a.replanned_by > 0) any_marked = true;
  }
  if (!result.replans.front().relowered_nodes.empty() &&
      result.replans.front().adopted) {
    EXPECT_TRUE(any_marked);
  }
}

// The replan decision call is charged to the query even when the verdict
// keeps the plan: with max_reoptimizations pauses the adaptive run can
// never be cheaper in dollars than the static run minus those charges.
TEST_F(ReoptimizeTest, ChargesReplanDecisionsToTheQuery) {
  auto off = MakeSystem(12.0, /*max_reoptimizations=*/0);
  auto on = MakeSystem(12.0, /*max_reoptimizations=*/2);
  const std::string query = ChainedFilterQuery();
  auto base = off->Answer(query);
  auto adaptive = on->Answer(query);
  ASSERT_TRUE(base.status.ok()) << base.status;
  ASSERT_TRUE(adaptive.status.ok()) << adaptive.status;
  ASSERT_FALSE(adaptive.replans.empty());
  double decision_dollars = 0;
  for (const auto& rec : adaptive.replans) {
    decision_dollars += rec.decision_dollars;
  }
  EXPECT_GT(decision_dollars, 0);
  // Total spend includes the decision calls: an adaptive run that adopted
  // nothing costs strictly more than the static run; one that adopted a
  // cheaper suffix must have paid the decisions out of its savings.
  bool any_adopted = false;
  for (const auto& rec : adaptive.replans) any_adopted |= rec.adopted;
  if (!any_adopted) {
    EXPECT_GT(adaptive.exec_dollars, base.exec_dollars);
    EXPECT_NEAR(adaptive.exec_dollars, base.exec_dollars + decision_dollars,
                1e-9);
  }
  // The pause barrier also shows in virtual time: the replan happened
  // strictly within the measured execution window.
  EXPECT_GT(adaptive.replans.front().elapsed_seconds, 0);
  EXPECT_LE(adaptive.replans.front().elapsed_seconds,
            adaptive.arrival_seconds + adaptive.total_seconds);
}

// Per-request Overrides plumbing: a re-optimization budget can be granted
// to one query of a disarmed system, and max_reoptimizations = 0 disarms
// one query of an armed system even when the trigger condition holds.
TEST_F(ReoptimizeTest, HonorsPerRequestOverrides) {
  auto system = MakeSystem(12.0, /*max_reoptimizations=*/0);
  const std::string query = ChainedFilterQuery();

  QueryRequest forced;
  forced.text = query;
  forced.overrides.max_reoptimizations = 2;
  auto forced_result = system->Answer(forced);
  ASSERT_TRUE(forced_result.status.ok()) << forced_result.status;
  EXPECT_FALSE(forced_result.replans.empty());

  auto armed = MakeSystem(12.0, /*max_reoptimizations=*/2);
  QueryRequest capped;
  capped.text = query;
  capped.overrides.max_reoptimizations = 0;
  auto capped_result = armed->Answer(capped);
  ASSERT_TRUE(capped_result.status.ok()) << capped_result.status;
  EXPECT_TRUE(capped_result.replans.empty());
  EXPECT_EQ(Counter(capped_result, "llm.calls.replan_decision"), 0);

  // Default request on the off system: no replans.
  auto plain = system->Answer(query);
  ASSERT_TRUE(plain.status.ok()) << plain.status;
  EXPECT_TRUE(plain.replans.empty());
}

// Replans and deadlines compose: the decision charges count against the
// measured completion, so a deadline that the adaptive run overruns is
// reported as a deadline miss, not silently absorbed.
TEST_F(ReoptimizeTest, ReplanChargesCountAgainstDeadlines) {
  auto system = MakeSystem(12.0, /*max_reoptimizations=*/2);
  const std::string query = ChainedFilterQuery();
  auto unconstrained = system->Answer(query);
  ASSERT_TRUE(unconstrained.status.ok()) << unconstrained.status;
  ASSERT_FALSE(unconstrained.replans.empty());

  // A deadline strictly inside the measured completion: the same query
  // must now miss (pre-check or post-check, either is a deadline error).
  QueryRequest tight;
  tight.text = query;
  tight.deadline_seconds = unconstrained.total_seconds * 0.5;
  auto missed = system->Answer(tight);
  EXPECT_EQ(missed.status.code(), StatusCode::kDeadlineExceeded)
      << missed.status;
}

// Concurrent serving: replanning queries running through a UnifyService
// worker pool (shared virtual server pool) stay deterministic, and every
// replan lands in the flight recorder as a kReplan event. This test runs
// under TSAN/ASAN via scripts/check.sh.
TEST_F(ReoptimizeTest, ServesConcurrentReplanningQueries) {
  auto system = MakeSystem(12.0, /*max_reoptimizations=*/2, /*parallelism=*/2);
  UnifyService::Options sopts;
  sopts.num_workers = 4;
  UnifyService service(system.get(), sopts);

  const std::string query = ChainedFilterQuery();
  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 6; ++i) {
    QueryRequest request;
    request.text = query;
    request.client_tag = "client-" + std::to_string(i);
    futures.push_back(service.Submit(std::move(request)));
  }
  std::vector<QueryResult> results;
  for (auto& f : futures) results.push_back(f.get());

  size_t replan_count = 0;
  for (const auto& result : results) {
    ASSERT_TRUE(result.status.ok()) << result.status;
    EXPECT_EQ(result.answer.ToString(), results.front().answer.ToString());
    replan_count += result.replans.size();
  }
  EXPECT_GT(replan_count, 0u);

  size_t replan_events = 0;
  for (const auto& event : service.flight_recorder().events()) {
    if (event.kind == ServeEventKind::kReplan &&
        event.detail.rfind("replan @", 0) == 0) {
      ++replan_events;
    }
  }
  EXPECT_EQ(replan_events, replan_count);
}

}  // namespace
}  // namespace unify::core
