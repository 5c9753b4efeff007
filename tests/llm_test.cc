#include <gtest/gtest.h>

#include "corpus/dataset_profile.h"
#include "llm/sim_llm.h"
#include "nlq/parse.h"
#include "nlq/render.h"

namespace unify::llm {
namespace {

class SimLlmTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto profile = corpus::SportsProfile();
    profile.doc_count = 400;
    corpus_ = new corpus::Corpus(corpus::GenerateCorpus(profile, 3));
    llm_ = new SimulatedLlm(corpus_, SimLlmOptions{});
  }
  static void TearDownTestSuite() {
    delete llm_;
    delete corpus_;
    llm_ = nullptr;
    corpus_ = nullptr;
  }

  static LlmCall Call(PromptType type) {
    LlmCall call;
    call.type = type;
    return call;
  }

  static corpus::Corpus* corpus_;
  static SimulatedLlm* llm_;
};
corpus::Corpus* SimLlmTest::corpus_ = nullptr;
SimulatedLlm* SimLlmTest::llm_ = nullptr;

TEST_F(SimLlmTest, SemanticParseProducesLogicalRepresentation) {
  auto call = Call(PromptType::kSemanticParse);
  call.tier = ModelTier::kPlanner;
  call.fields["query"] = "How many questions about tennis are there?";
  auto result = llm_->Call(call);
  ASSERT_TRUE(result.status.ok());
  EXPECT_NE(result.Get("lr").find("[Entity]"), std::string::npos);
  EXPECT_EQ(result.Get("lr").find("tennis"), std::string::npos);
  EXPECT_GT(result.seconds, 0);
  EXPECT_GT(result.out_tokens, 0);
}

TEST_F(SimLlmTest, RerankLabelsApplicableOperators) {
  auto call = Call(PromptType::kRerankOperators);
  call.fields["query"] = "How many questions about tennis are there?";
  call.items = {"Filter", "Compare", "TopK"};
  auto result = llm_->Call(call);
  ASSERT_EQ(result.items.size(), 3u);
  // Filter solves part of the query; Compare/TopK cannot (most seeds; the
  // rerank error rate is 5%, so check the dominant outcome only).
  EXPECT_NE(result.items[0].find("Filter\t"), std::string::npos);
}

TEST_F(SimLlmTest, ReduceQueryRewritesAndExtractsArgs) {
  auto call = Call(PromptType::kReduceQuery);
  call.fields["query"] =
      "How many questions about tennis, with over 500 views are there?";
  call.fields["operator"] = "Filter";
  call.fields["next_var"] = "V1";
  auto result = llm_->Call(call);
  ASSERT_EQ(result.Get("applicable"), "true");
  EXPECT_FALSE(result.Get("reduced_query").empty());
  EXPECT_EQ(result.Get("inputs"), "$docs");
  // The reduced query must still parse.
  EXPECT_TRUE(nlq::Parse(result.Get("reduced_query")).ok())
      << result.Get("reduced_query");
  // Condition args extracted for execution (III-C).
  EXPECT_FALSE(result.Get("arg.condition").empty());
}

TEST_F(SimLlmTest, ReduceQueryVariantsEnumerateAlternatives) {
  LlmCall call = Call(PromptType::kReduceQuery);
  call.fields["query"] =
      "How many questions about tennis, with over 500 views are there?";
  call.fields["operator"] = "Filter";
  call.fields["next_var"] = "V1";
  call.fields["variant"] = "0";
  auto v0 = llm_->Call(call);
  call.fields["variant"] = "1";
  auto v1 = llm_->Call(call);
  call.fields["variant"] = "5";
  auto v5 = llm_->Call(call);
  EXPECT_EQ(v0.Get("applicable"), "true");
  EXPECT_EQ(v1.Get("applicable"), "true");
  EXPECT_NE(v0.Get("arg.condition"), v1.Get("arg.condition"));
  EXPECT_EQ(v5.Get("applicable"), "false");
}

TEST_F(SimLlmTest, ReduceQueryRejectsInapplicableOperator) {
  auto call = Call(PromptType::kReduceQuery);
  call.fields["query"] = "How many questions about tennis are there?";
  call.fields["operator"] = "GroupBy";
  auto result = llm_->Call(call);
  EXPECT_EQ(result.Get("applicable"), "false");
}

TEST_F(SimLlmTest, SimpleQuestionDetectsFinalState) {
  auto call = Call(PromptType::kSimpleQuestion);
  call.fields["query"] = "What is [V7]?";
  auto result = llm_->Call(call);
  EXPECT_EQ(result.Get("final"), "true");
  EXPECT_EQ(result.Get("final_var"), "V7");

  call.fields["query"] = "How many questions about tennis are there?";
  EXPECT_EQ(llm_->Call(call).Get("final"), "false");
}

TEST_F(SimLlmTest, DependencyCheckMembership) {
  auto call = Call(PromptType::kDependencyCheck);
  call.fields["producer_output"] = "V2";
  call.fields["consumer_inputs"] = "V1,V2";
  EXPECT_EQ(llm_->Call(call).Get("depends"), "true");
  call.fields["consumer_inputs"] = "V1,V3";
  EXPECT_EQ(llm_->Call(call).Get("depends"), "false");
}

TEST_F(SimLlmTest, EvalPredicateTracksLatentTruthWithSmallError) {
  LlmCall call = Call(PromptType::kEvalPredicate);
  call.fields["kind"] = "semantic";
  call.fields["phrase"] = "injury";
  for (uint64_t i = 0; i < corpus_->size(); ++i) {
    call.items.push_back(std::to_string(i));
  }
  auto result = llm_->Call(call);
  ASSERT_EQ(result.items.size(), corpus_->size());
  size_t disagreements = 0;
  for (uint64_t i = 0; i < corpus_->size(); ++i) {
    bool truth = corpus_->doc(i).attrs.HasTag("injury");
    bool said = result.items[i] == "yes";
    disagreements += truth != said;
  }
  // Error rates are ~3% FN / 0.2% FP.
  EXPECT_LT(static_cast<double>(disagreements) / corpus_->size(), 0.05);
  EXPECT_GT(disagreements, 0u);  // but errors do occur
}

TEST_F(SimLlmTest, PredicateDecisionsStableAcrossBatching) {
  LlmCall one = Call(PromptType::kEvalPredicate);
  one.fields["kind"] = "semantic";
  one.fields["phrase"] = "tennis";
  for (uint64_t i = 0; i < 50; ++i) one.items.push_back(std::to_string(i));
  auto all = llm_->Call(one);
  for (uint64_t i = 0; i < 50; ++i) {
    LlmCall single = Call(PromptType::kEvalPredicate);
    single.fields["kind"] = "semantic";
    single.fields["phrase"] = "tennis";
    single.items = {std::to_string(i)};
    EXPECT_EQ(llm_->Call(single).items[0], all.items[i])
        << "doc " << i << " decision depends on batching";
  }
}

TEST_F(SimLlmTest, NumericPredicateEvaluation) {
  LlmCall call = Call(PromptType::kEvalPredicate);
  call.fields["kind"] = "numeric";
  call.fields["attribute"] = "views";
  call.fields["cmp"] = "gt";
  call.fields["value"] = "500";
  for (uint64_t i = 0; i < 100; ++i) call.items.push_back(std::to_string(i));
  auto result = llm_->Call(call);
  size_t wrong = 0;
  for (uint64_t i = 0; i < 100; ++i) {
    bool truth = corpus_->doc(i).attrs.views > 500;
    wrong += (result.items[i] == "yes") != truth;
  }
  EXPECT_LE(wrong, 4u);
}

TEST_F(SimLlmTest, ExtractValueMostlyCorrect) {
  LlmCall call = Call(PromptType::kExtractValue);
  call.fields["attribute"] = "views";
  for (uint64_t i = 0; i < 200; ++i) call.items.push_back(std::to_string(i));
  auto result = llm_->Call(call);
  size_t exact = 0;
  for (uint64_t i = 0; i < 200; ++i) {
    if (result.items[i] == std::to_string(corpus_->doc(i).attrs.views)) {
      ++exact;
    }
  }
  EXPECT_GE(exact, 185u);  // ~2% misreads
}

TEST_F(SimLlmTest, ClassifyMostlyCorrect) {
  LlmCall call = Call(PromptType::kClassifyDoc);
  call.fields["by"] = "sport";
  for (uint64_t i = 0; i < 200; ++i) call.items.push_back(std::to_string(i));
  auto result = llm_->Call(call);
  size_t correct = 0;
  for (uint64_t i = 0; i < 200; ++i) {
    correct += result.items[i] == corpus_->doc(i).attrs.category;
  }
  EXPECT_GE(correct, 180u);  // ~5% confusion
}

TEST_F(SimLlmTest, GenerateAnswerOnlySeesItsContext) {
  nlq::QueryAst q;
  q.task = nlq::TaskKind::kCount;
  q.entity = "questions";
  q.docset.conditions = {nlq::Condition::Semantic("tennis")};
  LlmCall call = Call(PromptType::kGenerateAnswer);
  call.tier = ModelTier::kPlanner;
  call.fields["query"] = nlq::Render(q);
  for (uint64_t i = 0; i < 20; ++i) call.items.push_back(std::to_string(i));
  auto result = llm_->Call(call);
  ASSERT_EQ(result.Get("kind"), "number");
  // Counting only within a 20-document context can never see the true
  // corpus-wide count.
  double reported = std::stod(result.Get("answer"));
  EXPECT_LE(reported, 20 * 1.5);
}

TEST_F(SimLlmTest, SemanticAggregateMatchesAttrStats) {
  LlmCall call = Call(PromptType::kSemanticAggregate);
  call.fields["op"] = "Count";
  for (uint64_t i = 0; i < 37; ++i) call.items.push_back(std::to_string(i));
  auto result = llm_->Call(call);
  EXPECT_EQ(result.Get("value"), "37");
}

TEST_F(SimLlmTest, PlanOneShotEmitsExecutableSteps) {
  LlmCall call = Call(PromptType::kPlanOneShot);
  call.tier = ModelTier::kPlanner;
  call.fields["query"] =
      "How many questions about tennis, with over 500 views are there?";
  auto result = llm_->Call(call);
  EXPECT_EQ(result.Get("ok"), "true");
  ASSERT_GE(result.items.size(), 2u);
  for (const auto& item : result.items) {
    EXPECT_NE(item.find("op="), std::string::npos) << item;
    EXPECT_NE(item.find("output="), std::string::npos) << item;
  }
}

TEST_F(SimLlmTest, DecomposeEmitsSubQueries) {
  LlmCall call = Call(PromptType::kDecompose);
  call.tier = ModelTier::kPlanner;
  call.fields["query"] =
      "How many questions about tennis, with over 500 views are there?";
  auto result = llm_->Call(call);
  EXPECT_GE(result.items.size(), 2u);  // conditions + original query
}

TEST_F(SimLlmTest, FallbackStrategyChoice) {
  LlmCall call = Call(PromptType::kChooseFallbackStrategy);
  call.tier = ModelTier::kPlanner;
  call.fields["query"] = "How many questions about tennis are there?";
  EXPECT_EQ(llm_->Call(call).Get("strategy"), "code");
  call.fields["query"] = "Please summarize the community mood.";
  EXPECT_EQ(llm_->Call(call).Get("strategy"), "rag");
}

TEST_F(SimLlmTest, GeneratedCodeComputesExactAnswerUsually) {
  LlmCall call = Call(PromptType::kGenerateCode);
  call.tier = ModelTier::kPlanner;
  call.fields["query"] = "How many questions about tennis are there?";
  auto result = llm_->Call(call);
  ASSERT_EQ(result.Get("kind"), "number");
  size_t truth = 0;
  for (const auto& doc : corpus_->docs()) {
    truth += doc.attrs.category == "tennis";
  }
  double reported = std::stod(result.Get("answer"));
  // Either the exact answer or (15% of queries) a visibly buggy one.
  bool exact = reported == static_cast<double>(truth);
  bool buggy = reported != static_cast<double>(truth);
  EXPECT_TRUE(exact || buggy);
  EXPECT_GT(result.out_tokens, 200);  // writing code is verbose
}

TEST_F(SimLlmTest, GeneratedCodeFailsOnUnprogrammableQuery) {
  LlmCall call = Call(PromptType::kGenerateCode);
  call.fields["query"] = "Describe the vibe of the community.";
  EXPECT_EQ(llm_->Call(call).Get("kind"), "none");
}

TEST_F(SimLlmTest, DollarsTrackTokenVolume) {
  llm_->ResetUsage();
  LlmCall small = Call(PromptType::kSimpleQuestion);
  small.tier = ModelTier::kPlanner;
  small.fields["query"] = "What is [V1]?";
  double small_cost = llm_->Call(small).dollars;
  LlmCall big = Call(PromptType::kGenerateAnswer);
  big.tier = ModelTier::kPlanner;
  big.fields["query"] = "How many questions about tennis are there?";
  for (uint64_t i = 0; i < 100; ++i) big.items.push_back(std::to_string(i));
  double big_cost = llm_->Call(big).dollars;
  EXPECT_GT(small_cost, 0);
  EXPECT_GT(big_cost, small_cost * 5);
  EXPECT_NEAR(llm_->usage().dollars, small_cost + big_cost, 1e-12);
}

TEST(PriceModelTest, PlannerCostsMoreThanWorker) {
  PriceModel prices;
  EXPECT_GT(prices.DollarsFor(ModelTier::kPlanner, 1000, 1000),
            prices.DollarsFor(ModelTier::kWorker, 1000, 1000) * 5);
  EXPECT_DOUBLE_EQ(prices.DollarsFor(ModelTier::kWorker, 0, 0), 0.0);
}

TEST_F(SimLlmTest, SelectAnswerPicksMode) {
  LlmCall call = Call(PromptType::kSelectAnswer);
  call.items = {"42", "17", "42", "42", "9"};
  EXPECT_EQ(llm_->Call(call).Get("choice"), "42");
}

TEST_F(SimLlmTest, UsageAccumulatesAndResets) {
  llm_->ResetUsage();
  auto call = Call(PromptType::kSimpleQuestion);
  call.fields["query"] = "What is [V1]?";
  llm_->Call(call);
  llm_->Call(call);
  auto usage = llm_->usage();
  EXPECT_EQ(usage.calls, 2);
  EXPECT_GT(usage.seconds, 0);
  llm_->ResetUsage();
  EXPECT_EQ(llm_->usage().calls, 0);
}

TEST_F(SimLlmTest, PlannerTierSlowerThanWorker) {
  LlmCall planner = Call(PromptType::kSimpleQuestion);
  planner.tier = ModelTier::kPlanner;
  planner.fields["query"] = "What is [V1]?";
  LlmCall worker = planner;
  worker.tier = ModelTier::kWorker;
  EXPECT_GT(llm_->Call(planner).seconds, llm_->Call(worker).seconds);
}

TEST(LatencyModelTest, OutputTokensDominate) {
  LatencyModel model;
  double few = model.SecondsFor(ModelTier::kWorker, 1000, 10);
  double many = model.SecondsFor(ModelTier::kWorker, 1000, 100);
  EXPECT_GT(many, few);
  // Input contribution is a few percent of the same token count's output
  // contribution (paper Section VI-A).
  double input_heavy = model.SecondsFor(ModelTier::kWorker, 10000, 0);
  double output_heavy = model.SecondsFor(ModelTier::kWorker, 0, 10000);
  EXPECT_LT(input_heavy, output_heavy * 0.10);
}

TEST(ApproxTokensTest, ScalesWithWords) {
  EXPECT_GT(ApproxTokens("one two three four five"),
            ApproxTokens("one two"));
  EXPECT_GT(ApproxTokens(""), 0);
}

}  // namespace
}  // namespace unify::llm
