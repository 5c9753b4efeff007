#include <gtest/gtest.h>

#include "common/stats.h"
#include "core/physical/sce.h"
#include "corpus/dataset_profile.h"
#include "corpus/workload.h"
#include "embedding/hashed_embedder.h"
#include "index/linear_index.h"
#include "llm/sim_llm.h"

namespace unify::core {
namespace {

class SceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto profile = corpus::SportsProfile();
    profile.doc_count = 1200;
    corpus_ = new corpus::Corpus(corpus::GenerateCorpus(profile, 51));
    llm_ = new llm::SimulatedLlm(corpus_, llm::SimLlmOptions{});
    auto spec = corpus::BuildEmbeddingSpec(corpus_->profile());
    embedder_ = new embedding::TopicEmbedder(
        embedding::TopicEmbedder::Options{}, spec.topic_tokens,
        spec.aliases);
    vecs_ = new std::vector<embedding::Vec>();
    index_ = new index::LinearIndex();
    for (const auto& doc : corpus_->docs()) {
      vecs_->push_back(embedder_->Embed(doc.text));
      ASSERT_TRUE(index_->Add(doc.id, vecs_->back()).ok());
    }
    probes_ = new PhraseProbes(embedder_, vecs_, index_);
    estimator_ = new CardinalityEstimator(corpus_, probes_, llm_,
                                          SceOptions{});
    estimator_->LearnImportanceFunction(
        corpus::GenerateHistoricalPredicates(*corpus_, 24, 5));
  }
  static void TearDownTestSuite() {
    delete estimator_;
    delete probes_;
    delete index_;
    delete vecs_;
    delete embedder_;
    delete llm_;
    delete corpus_;
  }

  static OpArgs Semantic(const std::string& phrase) {
    return {{"kind", "semantic"}, {"phrase", phrase}};
  }

  static corpus::Corpus* corpus_;
  static llm::SimulatedLlm* llm_;
  static embedding::TopicEmbedder* embedder_;
  static std::vector<embedding::Vec>* vecs_;
  static index::LinearIndex* index_;
  static PhraseProbes* probes_;
  static CardinalityEstimator* estimator_;
};
corpus::Corpus* SceTest::corpus_ = nullptr;
llm::SimulatedLlm* SceTest::llm_ = nullptr;
embedding::TopicEmbedder* SceTest::embedder_ = nullptr;
std::vector<embedding::Vec>* SceTest::vecs_ = nullptr;
index::LinearIndex* SceTest::index_ = nullptr;
PhraseProbes* SceTest::probes_ = nullptr;
CardinalityEstimator* SceTest::estimator_ = nullptr;

TEST_F(SceTest, TrueCardinalityMatchesManualCount) {
  double truth = estimator_->TrueCardinality(Semantic("tennis"));
  size_t manual = 0;
  for (const auto& doc : corpus_->docs()) {
    manual += doc.attrs.category == "tennis";
  }
  EXPECT_DOUBLE_EQ(truth, static_cast<double>(manual));
}

TEST_F(SceTest, TrueCardinalityNumeric) {
  OpArgs cond{{"kind", "numeric"},
              {"attribute", "views"},
              {"cmp", "le"},
              {"value", "100"}};
  double truth = estimator_->TrueCardinality(cond);
  size_t manual = 0;
  for (const auto& doc : corpus_->docs()) manual += doc.attrs.views <= 100;
  EXPECT_DOUBLE_EQ(truth, static_cast<double>(manual));
}

TEST_F(SceTest, TrueCardinalityMemoKeysOnEveryArgumentItReads) {
  auto numeric = [](const char* attr, const char* cmp, const char* value,
                    const char* value2) {
    OpArgs c{{"kind", "numeric"}, {"attribute", attr}, {"cmp", cmp},
             {"value", value}};
    if (value2 != nullptr) c["value2"] = value2;
    return c;
  };
  const std::vector<OpArgs> conditions = {
      numeric("views", "gt", "100", nullptr),
      numeric("views", "gt", "300", nullptr),
      numeric("views", "le", "100", nullptr),
      numeric("score", "gt", "100", nullptr),
      numeric("views", "between", "100", "500"),
      numeric("views", "between", "100", "900"),
      Semantic("tennis"),
      Semantic("injury"),
      {{"kind", "semantic"}, {"condition", "injury"}},
      {{"phrase", "training"}},
  };
  // A fresh estimator has an empty memo, so it counts every condition.
  std::vector<double> expected;
  for (const OpArgs& c : conditions) {
    CardinalityEstimator fresh(corpus_, probes_, llm_, SceOptions{});
    expected.push_back(fresh.TrueCardinality(c));
  }
  EXPECT_NE(expected[0], expected[1]);
  EXPECT_NE(expected[4], expected[5]);
  EXPECT_NE(expected[6], expected[7]);
  CardinalityEstimator shared(corpus_, probes_, llm_, SceOptions{});
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < conditions.size(); ++i) {
      EXPECT_EQ(shared.TrueCardinality(conditions[i]), expected[i])
          << "condition " << i << " round " << round;
    }
  }
}

TEST_F(SceTest, ImportanceFunctionIsNormalizedAndFrontLoaded) {
  const auto& f = estimator_->importance();
  ASSERT_EQ(f.size(), 10u);
  double total = 0;
  for (double v : f) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Close groups carry more importance (the Figure 3 observation).
  EXPECT_GT(f.front(), f.back());
  for (double v : f) EXPECT_GT(v, 0.0);  // floor keeps all groups sampled
}

TEST_F(SceTest, NumericEstimationNeedsNoLlm) {
  OpArgs cond{{"kind", "numeric"},
              {"attribute", "views"},
              {"cmp", "gt"},
              {"value", "300"}};
  auto est = estimator_->EstimateCondition(cond, SceMethod::kImportance);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->llm_calls, 0);
  double truth = estimator_->TrueCardinality(cond);
  EXPECT_LT(QError(est->cardinality, truth), 1.5);
}

using MethodCase = SceMethod;
class SceMethodTest : public SceTest,
                      public ::testing::WithParamInterface<MethodCase> {};

TEST_P(SceMethodTest, EstimatesWithinBroadBounds) {
  SceMethod method = GetParam();
  // Mid-selectivity predicate: every method should land in the right
  // ballpark on average across salts.
  OpArgs cond = Semantic("training");
  double truth = estimator_->TrueCardinality(cond);
  SampleStats estimates;
  for (uint64_t salt = 0; salt < 8; ++salt) {
    auto est = estimator_->EstimateCondition(cond, method, salt);
    ASSERT_TRUE(est.ok());
    EXPECT_GT(est->samples, 0);
    estimates.Add(est->cardinality);
  }
  EXPECT_LT(QError(estimates.Mean(), truth), 1.6)
      << SceMethodName(method) << ": mean " << estimates.Mean() << " truth "
      << truth;
}

INSTANTIATE_TEST_SUITE_P(AllMethods, SceMethodTest,
                         ::testing::Values(SceMethod::kUniform,
                                           SceMethod::kStratified,
                                           SceMethod::kAis,
                                           SceMethod::kImportance));

TEST_F(SceTest, ImportanceBeatsUniformOnSelectivePredicates) {
  // Selective predicate (one category): uniform sampling at a 1% budget
  // frequently sees zero matches, importance sampling should not.
  OpArgs cond = Semantic(corpus_->knowledge().categories().back());
  double truth = estimator_->TrueCardinality(cond);
  ASSERT_GT(truth, 0);
  SampleStats uniform_err;
  SampleStats importance_err;
  for (uint64_t salt = 0; salt < 12; ++salt) {
    auto u = estimator_->EstimateCondition(cond, SceMethod::kUniform, salt);
    auto i =
        estimator_->EstimateCondition(cond, SceMethod::kImportance, salt);
    ASSERT_TRUE(u.ok());
    ASSERT_TRUE(i.ok());
    uniform_err.Add(QError(u->cardinality, truth));
    importance_err.Add(QError(i->cardinality, truth));
  }
  EXPECT_LT(importance_err.Quantile(0.9), uniform_err.Quantile(0.9));
}

TEST_F(SceTest, EstimatesAreDeterministicPerSalt) {
  OpArgs cond = Semantic("injury");
  auto a = estimator_->EstimateCondition(cond, SceMethod::kImportance, 3);
  auto b = estimator_->EstimateCondition(cond, SceMethod::kImportance, 3);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->cardinality, b->cardinality);
  auto c = estimator_->EstimateCondition(cond, SceMethod::kImportance, 4);
  ASSERT_TRUE(c.ok());
  // Different salts usually differ (sampling is re-drawn).
  // (Not strictly guaranteed, but overwhelmingly likely.)
  EXPECT_GT(a->samples, 0);
  EXPECT_GT(c->samples, 0);
}

TEST_F(SceTest, SamplingCostIsAccounted) {
  OpArgs cond = Semantic("tennis");
  auto est = estimator_->EstimateCondition(cond, SceMethod::kImportance, 9);
  ASSERT_TRUE(est.ok());
  EXPECT_GT(est->llm_calls, 0);
  EXPECT_GT(est->llm_seconds, 0);
  // ~1% of 1200 docs.
  EXPECT_LE(est->samples, 80);
}

TEST_F(SceTest, BroadPredicateNotCatastrophicallyUnderestimated) {
  OpArgs cond = Semantic("ball sports");
  double truth = estimator_->TrueCardinality(cond);
  auto est = estimator_->EstimateCondition(cond, SceMethod::kImportance, 1);
  ASSERT_TRUE(est.ok());
  EXPECT_LT(QError(est->cardinality, truth), 3.0)
      << est->cardinality << " vs " << truth;
}

// A corpus smaller than num_buckets - 1 leaves trailing rank buckets
// empty; sampling one must not wrap its size.
TEST(SceSmallCorpusTest, EveryMethodStaysWithinTheCorpus) {
  for (size_t n : {1, 2, 3, 5, 6, 8}) {
    auto profile = corpus::SportsProfile();
    profile.doc_count = n;
    const corpus::Corpus corp = corpus::GenerateCorpus(profile, 53);
    ASSERT_EQ(corp.size(), n);
    llm::SimulatedLlm llm(&corp, llm::SimLlmOptions{});
    auto spec = corpus::BuildEmbeddingSpec(corp.profile());
    embedding::TopicEmbedder embedder(embedding::TopicEmbedder::Options{},
                                      spec.topic_tokens, spec.aliases);
    std::vector<embedding::Vec> vecs;
    index::LinearIndex index;
    for (const auto& doc : corp.docs()) {
      vecs.push_back(embedder.Embed(doc.text));
      ASSERT_TRUE(index.Add(doc.id, vecs.back()).ok());
    }
    PhraseProbes probes(&embedder, &vecs, &index);
    CardinalityEstimator estimator(&corp, &probes, &llm, SceOptions{});
    const OpArgs cond{{"kind", "semantic"}, {"phrase", "tennis"}};
    for (SceMethod method : {SceMethod::kUniform, SceMethod::kStratified,
                             SceMethod::kAis, SceMethod::kImportance}) {
      auto est = estimator.EstimateCondition(cond, method);
      ASSERT_TRUE(est.ok()) << n << " docs, " << SceMethodName(method);
      EXPECT_GE(est->cardinality, 0) << n << " docs";
      EXPECT_LE(est->cardinality, static_cast<double>(n)) << n << " docs";
    }
  }
}

}  // namespace
}  // namespace unify::core
