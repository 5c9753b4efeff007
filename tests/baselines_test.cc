#include <gtest/gtest.h>

#include "common/stats.h"
#include "core/baselines/exhaust.h"
#include "core/baselines/llm_plan.h"
#include "core/baselines/manual.h"
#include "core/baselines/rag.h"
#include "core/baselines/retrieval.h"
#include "core/baselines/sample.h"
#include "core/runtime/unify.h"
#include "corpus/dataset_profile.h"
#include "llm/sim_llm.h"
#include "nlq/render.h"

namespace unify::core {
namespace {

class BaselinesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto profile = corpus::SportsProfile();
    profile.doc_count = 500;
    corpus_ = new corpus::Corpus(corpus::GenerateCorpus(profile, 81));
    llm_ = new llm::SimulatedLlm(corpus_, llm::SimLlmOptions{});
    system_ = new UnifySystem(corpus_, llm_, UnifyOptions{});
    ASSERT_TRUE(system_->Setup().ok());
    retriever_ =
        new SentenceRetriever(corpus_, &system_->doc_embedder());
    ASSERT_TRUE(retriever_->Build().ok());

    // A simple count query with known ground truth.
    nlq::QueryAst q;
    q.task = nlq::TaskKind::kCount;
    q.entity = "questions";
    q.docset.conditions = {nlq::Condition::Semantic("injury")};
    query_ = nlq::Render(q);
    truth_ = corpus::EvaluateQuery(q, *corpus_);
  }
  static void TearDownTestSuite() {
    delete retriever_;
    delete system_;
    delete llm_;
    delete corpus_;
  }

  static ExecContext Ctx() {
    ExecContext ctx;
    ctx.corpus = corpus_;
    ctx.llm = llm_;
    ctx.phrase_probes = &system_->phrase_probes();
    return ctx;
  }

  static corpus::Corpus* corpus_;
  static llm::SimulatedLlm* llm_;
  static UnifySystem* system_;
  static SentenceRetriever* retriever_;
  static std::string query_;
  static corpus::Answer truth_;
};
corpus::Corpus* BaselinesTest::corpus_ = nullptr;
llm::SimulatedLlm* BaselinesTest::llm_ = nullptr;
UnifySystem* BaselinesTest::system_ = nullptr;
SentenceRetriever* BaselinesTest::retriever_ = nullptr;
std::string BaselinesTest::query_;
corpus::Answer BaselinesTest::truth_;

TEST_F(BaselinesTest, RetrieverFindsTopicalDocuments) {
  double cpu = 0;
  auto docs = retriever_->RetrieveDocs("questions about tennis", 60, &cpu);
  ASSERT_FALSE(docs.empty());
  EXPECT_GT(cpu, 0);
  size_t tennis = 0;
  for (uint64_t id : docs) {
    tennis += corpus_->doc(id).attrs.category == "tennis";
  }
  // The retrieved head must be strongly enriched vs. the base rate.
  EXPECT_GT(static_cast<double>(tennis) / docs.size(), 0.5);
  EXPECT_GT(retriever_->num_sentences(), corpus_->size());
}

TEST_F(BaselinesTest, RagUndercountsCorpusWideAggregates) {
  RagBaseline rag(retriever_, llm_, {});
  auto result = rag.Run(query_);
  ASSERT_TRUE(result.status.ok());
  ASSERT_EQ(result.answer.kind, corpus::Answer::Kind::kNumber);
  // RAG counts only within its retrieved window: far below the truth.
  EXPECT_LT(result.answer.number, truth_.number * 0.9);
  EXPECT_GT(result.exec_seconds, 0);
  EXPECT_EQ(result.plan_seconds, 0);
}

TEST_F(BaselinesTest, RecurRagDecomposesAndPaysForIt) {
  RecurRagBaseline recur(retriever_, llm_, {});
  RagBaseline rag(retriever_, llm_, {});
  auto r = recur.Run(query_);
  auto plain = rag.Run(query_);
  ASSERT_TRUE(r.status.ok());
  EXPECT_GT(r.plan_seconds, 0);  // the decomposition call
  EXPECT_GT(r.total_seconds, plain.total_seconds);
}

TEST_F(BaselinesTest, LlmPlanProducesAnAnswerWithoutRetrying) {
  LlmPlanBaseline baseline(retriever_, Ctx(), {});
  auto result = baseline.Run(query_);
  EXPECT_TRUE(result.status.ok());
  EXPECT_GT(result.plan_seconds, 0);
  EXPECT_GT(result.exec_seconds, 0);
}

TEST_F(BaselinesTest, SampleExtrapolatesToRightBallpark) {
  SampleBaseline::Options options;
  SampleBaseline baseline(corpus_, llm_, options);
  auto result = baseline.Run(query_);
  ASSERT_TRUE(result.status.ok());
  ASSERT_EQ(result.answer.kind, corpus::Answer::Kind::kNumber);
  // 20% sample, scaled by 5: noisy but same order of magnitude.
  EXPECT_LT(unify::QError(result.answer.number, truth_.number), 2.0);
  // Sequential enumeration is expensive.
  EXPECT_GT(result.exec_seconds, 60);
}

TEST_F(BaselinesTest, ExhaustAnswersAccuratelyButSlowly) {
  ExhaustBaseline::Options options;
  options.max_plans = 6;
  options.physical_variants = 2;
  ExhaustBaseline baseline(Ctx(), options);
  auto result = baseline.Run(query_);
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_TRUE(corpus::Answer::Equivalent(result.answer, truth_))
      << result.answer.ToString() << " vs " << truth_.ToString();
  // Executes several full plans sequentially.
  auto unify_result = system_->Answer(query_);
  EXPECT_GT(result.total_seconds, unify_result.total_seconds);
}

TEST_F(BaselinesTest, ManualIsAccurateWithFixedHumanCost) {
  ManualBaseline::Options options;
  ManualBaseline baseline(Ctx(), &system_->estimator(),
                          &system_->cost_model(), options);
  auto result = baseline.Run(query_);
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_TRUE(corpus::Answer::Equivalent(result.answer, truth_))
      << result.answer.ToString() << " vs " << truth_.ToString();
  EXPECT_GE(result.plan_seconds, options.human_seconds);
}

TEST_F(BaselinesTest, ManualHandlesFlagshipQuery) {
  nlq::QueryAst q;
  q.task = nlq::TaskKind::kGroupArgBest;
  q.entity = "questions";
  q.group_attr = "sport";
  q.metric.kind = nlq::GroupMetric::Kind::kRatio;
  q.metric.num.cond = nlq::Condition::Semantic("injury");
  q.metric.den.cond = nlq::Condition::Semantic("training");
  q.docset.conditions = {nlq::Condition::Semantic("ball sports")};
  ManualBaseline baseline(Ctx(), &system_->estimator(),
                          &system_->cost_model(),
                          ManualBaseline::Options{});
  auto result = baseline.Run(nlq::Render(q));
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_EQ(result.answer.kind, corpus::Answer::Kind::kText);
}

TEST_F(BaselinesTest, MethodNamesAreStable) {
  RagBaseline rag(retriever_, llm_, {});
  RecurRagBaseline recur(retriever_, llm_, {});
  LlmPlanBaseline plan(retriever_, Ctx(), {});
  SampleBaseline sample(corpus_, llm_, {});
  ExhaustBaseline exhaust(Ctx(), {});
  ManualBaseline manual(Ctx(), &system_->estimator(), nullptr, {});
  EXPECT_EQ(rag.name(), "RAG");
  EXPECT_EQ(recur.name(), "RecurRAG");
  EXPECT_EQ(plan.name(), "LLMPlan");
  EXPECT_EQ(sample.name(), "Sample");
  EXPECT_EQ(exhaust.name(), "Exhaust");
  EXPECT_EQ(manual.name(), "Manual");
}

}  // namespace
}  // namespace unify::core
