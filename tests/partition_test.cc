// Morsel-driven intra-operator parallelism: unit tests for batch-aligned
// partition planning, plus end-to-end properties of the whole pipeline —
// answers (and LLM usage) must be byte-identical for every
// max_intra_op_parallelism setting, while the virtual makespan of
// LLM-heavy plans shrinks and the optimizer's predicted makespan tracks
// the measured one.

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/telemetry_names.h"
#include "core/operators/physical_operator.h"
#include "core/runtime/service.h"
#include "core/runtime/unify.h"
#include "corpus/dataset_profile.h"
#include "corpus/workload.h"
#include "llm/sim_llm.h"
#include "nlq/render.h"

namespace unify::core {
namespace {

using corpus::Answer;

// ---------------------------------------------------------------------------
// Morsel planning (pure functions)
// ---------------------------------------------------------------------------

TEST(PartitionPlanningTest, PlanPartitionCountRespectsBatchFloor) {
  // Morsels are whole LLM batches: never more partitions than batches.
  EXPECT_EQ(PlanPartitionCount(0, 16, 4), 1);
  EXPECT_EQ(PlanPartitionCount(100, 16, 1), 1);   // knob off
  EXPECT_EQ(PlanPartitionCount(16, 16, 4), 1);    // single batch
  EXPECT_EQ(PlanPartitionCount(20, 16, 4), 2);    // two batches
  EXPECT_EQ(PlanPartitionCount(100, 16, 4), 4);   // 7 batches, capped at 4
  EXPECT_EQ(PlanPartitionCount(100, 16, 64), 7);  // capped at batch count
  EXPECT_EQ(PlanPartitionCount(1000, 16, 8), 8);
}

TEST(PartitionPlanningTest, PartitionDocsIsBatchAlignedAndOrderStable) {
  DocList docs;
  for (uint64_t i = 0; i < 100; ++i) docs.push_back(i * 3);

  auto chunks = PartitionDocs(docs, 16, 4);
  ASSERT_EQ(chunks.size(), 4u);
  DocList concat;
  for (const auto& chunk : chunks) {
    EXPECT_FALSE(chunk.empty());
    // Every chunk boundary is a batch boundary, so batched LLM helpers
    // issue exactly the same calls over the chunks as over the whole list.
    EXPECT_EQ(concat.size() % 16, 0u);
    concat.insert(concat.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(concat, docs);
}

TEST(PartitionPlanningTest, PartitionDocsDegenerateCases) {
  EXPECT_EQ(PartitionDocs({}, 16, 4).size(), 1u);
  DocList small{1, 2, 3};
  auto one = PartitionDocs(small, 16, 4);  // one batch -> one chunk
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], small);
  EXPECT_EQ(PartitionDocs(small, 1, 1).size(), 1u);
}

// ---------------------------------------------------------------------------
// End to end
// ---------------------------------------------------------------------------

class PartitionSystemTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto profile = corpus::SportsProfile();
    profile.doc_count = 500;
    corpus_ = new corpus::Corpus(corpus::GenerateCorpus(profile, 21));
    llm_ = new llm::SimulatedLlm(corpus_, llm::SimLlmOptions{});
    UnifyOptions options;
    options.exec.threads = 2;
    // Frozen cost model: plan choice must not depend on which queries ran
    // earlier, so the sweep below compares like with like.
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

  static QueryResult AnswerAt(const std::string& text, int parallelism) {
    QueryRequest request;
    request.text = text;
    request.overrides.max_intra_op_parallelism = parallelism;
    return system_->Answer(request);
  }

  /// An LLM-filter-heavy query: a semantic condition forces per-document
  /// LLM verification over most of the corpus.
  static std::string SemanticCountQuery() {
    nlq::QueryAst ast;
    ast.task = nlq::TaskKind::kCount;
    ast.entity = "questions";
    ast.docset.conditions = {nlq::Condition::Semantic("injury")};
    return nlq::Render(ast);
  }

  static corpus::Corpus* corpus_;
  static llm::SimulatedLlm* llm_;
  static UnifySystem* system_;
};

corpus::Corpus* PartitionSystemTest::corpus_ = nullptr;
llm::SimulatedLlm* PartitionSystemTest::llm_ = nullptr;
UnifySystem* PartitionSystemTest::system_ = nullptr;

TEST_F(PartitionSystemTest, AnswersByteIdenticalAcrossParallelism) {
  corpus::WorkloadOptions wopts;
  wopts.per_template = 1;
  auto workload = corpus::GenerateWorkload(*corpus_, wopts);
  ASSERT_FALSE(workload.empty());

  size_t compared = 0;
  for (size_t qi = 0; qi < workload.size(); qi += 3) {
    const auto& qc = workload[qi];
    QueryResult base = AnswerAt(qc.text, 1);
    if (!base.status.ok()) continue;  // failure parity checked below
    const double calls = base.metrics.FamilySum(telemetry::kMetricLlmCalls);
    EXPECT_GT(calls, 0) << qc.text;
    for (int parallelism : {2, 4, 8}) {
      QueryResult p = AnswerAt(qc.text, parallelism);
      ASSERT_TRUE(p.status.ok())
          << "parallelism " << parallelism << ": " << p.status;
      // The answer, the API spend, and the exact set of LLM calls must
      // not depend on the partitioning.
      EXPECT_EQ(p.answer.ToString(), base.answer.ToString())
          << qc.text << " @ parallelism " << parallelism;
      EXPECT_DOUBLE_EQ(p.exec_dollars, base.exec_dollars) << qc.text;
      EXPECT_DOUBLE_EQ(p.metrics.FamilySum(telemetry::kMetricLlmCalls), calls)
          << qc.text;
    }
    ++compared;
  }
  EXPECT_GE(compared, 4u);
}

TEST_F(PartitionSystemTest, LlmFilterHeavyQuerySpeedsUpAtLeastTwofold) {
  const std::string query = SemanticCountQuery();
  QueryResult p1 = AnswerAt(query, 1);
  QueryResult p4 = AnswerAt(query, 4);
  ASSERT_TRUE(p1.status.ok()) << p1.status;
  ASSERT_TRUE(p4.status.ok()) << p4.status;
  EXPECT_EQ(p1.answer.ToString(), p4.answer.ToString());
  // The filter dominates the plan; with 4 morsels on the 4-server pool
  // its stream collapses to ~1/4, so end-to-end improves >= 2x.
  EXPECT_GE(p1.exec_seconds / p4.exec_seconds, 2.0)
      << "p1 " << p1.exec_seconds << "s vs p4 " << p4.exec_seconds << "s\n"
      << p4.plan_explain << "\n" << p4.timeline;
  // The morsels really ran: the partition counter fired.
  EXPECT_GE(p4.metrics.counters[telemetry::kMetricExecPartitions], 2.0);
  EXPECT_DOUBLE_EQ(
      p1.metrics.counters[telemetry::kMetricExecPartitions], 0.0);
}

TEST_F(PartitionSystemTest, PredictedMakespanTracksMeasured) {
  const std::string query = SemanticCountQuery();
  QueryResult p1 = AnswerAt(query, 1);
  QueryResult p4 = AnswerAt(query, 4);
  ASSERT_TRUE(p1.status.ok());
  ASSERT_TRUE(p4.status.ok());
  ASSERT_GT(p1.predicted_exec_seconds, 0);
  ASSERT_GT(p4.predicted_exec_seconds, 0);
  // The optimizer predicts the parallel speedup it just enabled...
  EXPECT_GE(p1.predicted_exec_seconds / p4.predicted_exec_seconds, 2.0);
  // ...and both predictions land within a small factor of the measured
  // makespans (the calibrated-cost-model regime).
  for (const QueryResult* r : {&p1, &p4}) {
    const double ratio = r->predicted_exec_seconds / r->exec_seconds;
    EXPECT_GT(ratio, 0.3) << r->predicted_exec_seconds << " vs "
                          << r->exec_seconds;
    EXPECT_LT(ratio, 3.0) << r->predicted_exec_seconds << " vs "
                          << r->exec_seconds;
  }
}

TEST_F(PartitionSystemTest, ExplainShowsMorselsAndStatsStayEqual) {
  const std::string query = SemanticCountQuery();
  QueryResult p1 = AnswerAt(query, 1);
  QueryResult p4 = AnswerAt(query, 4);
  ASSERT_TRUE(p1.status.ok());
  ASSERT_TRUE(p4.status.ok());
  EXPECT_NE(p4.plan_explain.find("morsels"), std::string::npos)
      << p4.plan_explain;
  EXPECT_EQ(p1.plan_explain.find("morsels"), std::string::npos);
  // Total LLM resource usage (calls and seconds of stream time) is the
  // same work, just laid out differently on the servers.
  const double calls = p1.metrics.FamilySum(telemetry::kMetricLlmCalls);
  const double seconds = p1.metrics.FamilySum(telemetry::kMetricLlmSeconds);
  EXPECT_GT(calls, 0);
  EXPECT_GT(seconds, 0);
  EXPECT_DOUBLE_EQ(p4.metrics.FamilySum(telemetry::kMetricLlmCalls), calls);
  EXPECT_DOUBLE_EQ(p4.metrics.FamilySum(telemetry::kMetricLlmSeconds),
                   seconds);
}

TEST_F(PartitionSystemTest, ServedOverrideReachesExecutor) {
  UnifyService::Options sopts;
  sopts.num_workers = 2;
  UnifyService service(system_, sopts);
  const std::string query = SemanticCountQuery();

  QueryRequest parallel;
  parallel.text = query;
  parallel.overrides.max_intra_op_parallelism = 4;
  QueryResult split = service.Answer(parallel);
  ASSERT_TRUE(split.status.ok()) << split.status;
  EXPECT_GE(split.metrics.counters[telemetry::kMetricExecPartitions], 2.0);

  QueryRequest sequential;
  sequential.text = query;
  sequential.overrides.max_intra_op_parallelism = 1;
  QueryResult whole = service.Answer(sequential);
  ASSERT_TRUE(whole.status.ok()) << whole.status;
  EXPECT_DOUBLE_EQ(
      whole.metrics.counters[telemetry::kMetricExecPartitions], 0.0);
  EXPECT_EQ(split.answer.ToString(), whole.answer.ToString());
}

}  // namespace
}  // namespace unify::core
