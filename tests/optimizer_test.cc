#include <gtest/gtest.h>

#include "core/physical/cost_model.h"
#include "core/physical/optimizer.h"
#include "corpus/dataset_profile.h"
#include "embedding/hashed_embedder.h"
#include "index/linear_index.h"
#include "llm/sim_llm.h"

namespace unify::core {
namespace {

// ---------------------------------------------------------------------------
// CostModel
// ---------------------------------------------------------------------------

TEST(CostModelTest, DefaultsBeforeCalibration) {
  CostModel model;
  double llm =
      model.EstimateSeconds("Filter", PhysicalImpl::kLlmFilter, {}, 1000);
  double pre =
      model.EstimateSeconds("Filter", PhysicalImpl::kExactFilter, {}, 1000);
  EXPECT_GT(llm, pre * 100);  // LLM work dominates pre-programmed work
}

TEST(CostModelTest, CalibrationOverridesDefaults) {
  CostModel model;
  model.Record("Filter", PhysicalImpl::kLlmFilter, 100, 5.0, 0.0);
  EXPECT_NEAR(model.PerElementSeconds("Filter", PhysicalImpl::kLlmFilter),
              0.05, 1e-9);
  // Estimates scale linearly with cardinality: card·μ·out_op.
  double c1 =
      model.EstimateSeconds("Filter", PhysicalImpl::kLlmFilter, {}, 1000);
  double c2 =
      model.EstimateSeconds("Filter", PhysicalImpl::kLlmFilter, {}, 2000);
  EXPECT_NEAR(c2 - c1, 1000 * 0.05, 1e-6);
}

TEST(CostModelTest, RunningAverageAcrossRecords) {
  CostModel model;
  model.Record("Extract", PhysicalImpl::kLlmExtract, 100, 10.0, 0.0);
  model.Record("Extract", PhysicalImpl::kLlmExtract, 100, 20.0, 0.0);
  EXPECT_NEAR(model.PerElementSeconds("Extract", PhysicalImpl::kLlmExtract),
              0.15, 1e-9);
  EXPECT_EQ(model.records(), 2);
}

TEST(CostModelTest, IndexScanCostDrivenByCandidates) {
  CostModel model;
  model.Record("Filter", PhysicalImpl::kIndexScanFilter, 100, 5.0, 0.0);
  OpArgs few{{"index_candidates", "200"}};
  OpArgs many{{"index_candidates", "2000"}};
  double cheap = model.EstimateSeconds(
      "Filter", PhysicalImpl::kIndexScanFilter, few, 4000);
  double costly = model.EstimateSeconds(
      "Filter", PhysicalImpl::kIndexScanFilter, many, 4000);
  EXPECT_LT(cheap, costly);
  // Never more expensive than scanning the whole input.
  EXPECT_LE(costly, model.EstimateSeconds(
                        "Filter", PhysicalImpl::kLlmFilter, {}, 4000) +
                        1.0);
}

// ---------------------------------------------------------------------------
// PhysicalOptimizer on hand-built logical plans
// ---------------------------------------------------------------------------

class OptimizerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto profile = corpus::SportsProfile();
    profile.doc_count = 1000;
    corpus_ = new corpus::Corpus(corpus::GenerateCorpus(profile, 61));
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
    cost_model_ = new CostModel();
    // Simple calibration so relative costs are realistic.
    cost_model_->Record("Filter", PhysicalImpl::kLlmFilter, 100, 6.0, 0);
    cost_model_->Record("Filter", PhysicalImpl::kIndexScanFilter, 100, 6.0,
                        0);
    cost_model_->Record("Filter", PhysicalImpl::kExactFilter, 100, 0,
                        0.0005);
  }
  static void TearDownTestSuite() {
    delete cost_model_;
    delete estimator_;
    delete probes_;
    delete index_;
    delete vecs_;
    delete embedder_;
    delete llm_;
    delete corpus_;
  }

  static OptimizerOptions Opts(PhysicalMode mode) {
    OptimizerOptions options;
    options.mode = mode;
    options.corpus_size = corpus_->size();
    options.num_categories = corpus_->knowledge().categories().size();
    return options;
  }

  /// Filter(numeric views>400) -> Filter(semantic tennis) -> Count,
  /// in the WRONG order (expensive semantic filter first).
  static LogicalPlan FilterChainPlan() {
    LogicalPlan plan;
    plan.query_text = "how many tennis questions with over 400 views";
    LogicalNode semantic;
    semantic.op_name = "Filter";
    semantic.args = {{"kind", "semantic"},
                     {"phrase", "tennis"},
                     {"condition", "about tennis"}};
    semantic.requires_semantics = true;
    semantic.input_vars = {kDocsVar};
    semantic.output_var = "V1";
    LogicalNode numeric;
    numeric.op_name = "Filter";
    numeric.args = {{"kind", "numeric"},
                    {"attribute", "views"},
                    {"cmp", "gt"},
                    {"value", "400"},
                    {"condition", "with over 400 views"}};
    numeric.input_vars = {"V1"};
    numeric.output_var = "V2";
    LogicalNode count;
    count.op_name = "Count";
    count.input_vars = {"V2"};
    count.output_var = "V3";
    plan.nodes = {semantic, numeric, count};
    plan.dag.AddNode();
    plan.dag.AddNode();
    plan.dag.AddNode();
    EXPECT_TRUE(plan.dag.AddEdge(0, 1).ok());
    EXPECT_TRUE(plan.dag.AddEdge(1, 2).ok());
    plan.answer_var = "V3";
    return plan;
  }

  /// A chain of `k` commuting filters over the corpus, then a Count, in a
  /// costly order: the semantic filters first, the cheap and selective
  /// numeric ones last.
  static LogicalPlan LongFilterChainPlan(int k) {
    LogicalPlan plan;
    plan.query_text = "how many documents pass a long chain of filters";
    const auto& categories = corpus_->knowledge().categories();
    const int semantic = (k + 1) / 2;
    std::string input = kDocsVar;
    for (int i = 0; i < k; ++i) {
      LogicalNode filter;
      filter.op_name = "Filter";
      if (i < semantic) {
        const std::string& phrase = categories[i % categories.size()];
        filter.args = {{"kind", "semantic"},
                       {"phrase", phrase},
                       {"condition", "about " + phrase}};
        filter.requires_semantics = true;
      } else {
        const std::string value = std::to_string(400 + 10 * (i - semantic));
        filter.args = {{"kind", "numeric"},
                       {"attribute", "views"},
                       {"cmp", "gt"},
                       {"value", value},
                       {"condition", "with over " + value + " views"}};
      }
      filter.input_vars = {input};
      filter.output_var = "V" + std::to_string(i + 1);
      input = filter.output_var;
      plan.nodes.push_back(filter);
      plan.dag.AddNode();
      if (i > 0) {
        EXPECT_TRUE(plan.dag.AddEdge(i - 1, i).ok());
      }
    }
    LogicalNode count;
    count.op_name = "Count";
    count.input_vars = {input};
    count.output_var = "V" + std::to_string(k + 1);
    plan.nodes.push_back(count);
    plan.dag.AddNode();
    EXPECT_TRUE(plan.dag.AddEdge(k - 1, k).ok());
    plan.answer_var = count.output_var;
    return plan;
  }

  /// Whether `plan`'s filters hold `given`'s conditions in the given
  /// order (the inserted Scan shifts every node by one).
  static bool KeepsFilterOrder(const PhysicalPlan& plan,
                               const LogicalPlan& given) {
    for (size_t i = 0; i < given.nodes.size(); ++i) {
      if (given.nodes[i].op_name == "Filter" &&
          plan.nodes[i + 1].logical.args.at("condition") !=
              given.nodes[i].args.at("condition")) {
        return false;
      }
    }
    return true;
  }

  static corpus::Corpus* corpus_;
  static llm::SimulatedLlm* llm_;
  static embedding::TopicEmbedder* embedder_;
  static std::vector<embedding::Vec>* vecs_;
  static index::LinearIndex* index_;
  static PhraseProbes* probes_;
  static CardinalityEstimator* estimator_;
  static CostModel* cost_model_;
};
corpus::Corpus* OptimizerTest::corpus_ = nullptr;
llm::SimulatedLlm* OptimizerTest::llm_ = nullptr;
embedding::TopicEmbedder* OptimizerTest::embedder_ = nullptr;
std::vector<embedding::Vec>* OptimizerTest::vecs_ = nullptr;
index::LinearIndex* OptimizerTest::index_ = nullptr;
PhraseProbes* OptimizerTest::probes_ = nullptr;
CardinalityEstimator* OptimizerTest::estimator_ = nullptr;
CostModel* OptimizerTest::cost_model_ = nullptr;

TEST_F(OptimizerTest, InsertsScanNode) {
  PhysicalOptimizer optimizer(cost_model_, estimator_,
                              Opts(PhysicalMode::kGroundTruthCards));
  auto plan = optimizer.Optimize(FilterChainPlan());
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->nodes.front().logical.op_name, "Scan");
  EXPECT_EQ(plan->nodes.size(), 4u);
  EXPECT_TRUE(plan->dag.TopologicalOrder().ok());
}

TEST_F(OptimizerTest, ReordersCheapSelectiveFilterFirst) {
  PhysicalOptimizer optimizer(cost_model_, estimator_,
                              Opts(PhysicalMode::kGroundTruthCards));
  auto plan = optimizer.Optimize(FilterChainPlan());
  ASSERT_TRUE(plan.ok());
  // After ordering, the first filter position must hold the cheap numeric
  // payload (the paper: filters eliminating more data at lower cost run
  // early).
  const auto& first_filter = plan->nodes[1].logical;
  ASSERT_EQ(first_filter.op_name, "Filter");
  EXPECT_EQ(first_filter.args.at("kind"), "numeric") << plan->Explain();
  // Variable wiring stays intact.
  EXPECT_EQ(first_filter.output_var, "V1");
  EXPECT_EQ(plan->nodes[2].logical.input_vars[0], "V1");
}

// Every order of a chain is costed, so the search grows with the chain's
// length factorial; chains of up to six filters are ordered, longer ones
// keep the order they were given.
TEST_F(OptimizerTest, SixFilterChainIsStillReorderedByCost) {
  PhysicalOptimizer optimizer(cost_model_, estimator_,
                              Opts(PhysicalMode::kGroundTruthCards));
  const LogicalPlan given = LongFilterChainPlan(6);
  auto plan = optimizer.Optimize(given);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(KeepsFilterOrder(*plan, given)) << plan->Explain();
  EXPECT_EQ(plan->nodes[1].logical.args.at("kind"), "numeric")
      << plan->Explain();
}

TEST_F(OptimizerTest, SevenFilterChainKeepsItsGivenOrder) {
  PhysicalOptimizer optimizer(cost_model_, estimator_,
                              Opts(PhysicalMode::kGroundTruthCards));
  const LogicalPlan given = LongFilterChainPlan(7);
  auto plan = optimizer.Optimize(given);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(KeepsFilterOrder(*plan, given)) << plan->Explain();
}

TEST_F(OptimizerTest, TwelveFilterChainLowers) {
  PhysicalOptimizer optimizer(cost_model_, estimator_,
                              Opts(PhysicalMode::kGroundTruthCards));
  const LogicalPlan given = LongFilterChainPlan(12);
  auto plan = optimizer.Optimize(given);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->nodes.size(), 14u);  // Scan, 12 filters, Count
  EXPECT_TRUE(KeepsFilterOrder(*plan, given));
  EXPECT_GT(plan->est_makespan, 0);
}

TEST_F(OptimizerTest, RuleModeKeepsOriginalOrder) {
  PhysicalOptimizer optimizer(cost_model_, nullptr,
                              Opts(PhysicalMode::kRule));
  auto plan = optimizer.Optimize(FilterChainPlan());
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->nodes[1].logical.args.at("kind"), "semantic");
}

TEST_F(OptimizerTest, SemanticRequirementRestrictsImpls) {
  PhysicalOptimizer optimizer(cost_model_, estimator_,
                              Opts(PhysicalMode::kGroundTruthCards));
  auto plan = optimizer.Optimize(FilterChainPlan());
  ASSERT_TRUE(plan.ok());
  for (const auto& node : plan->nodes) {
    if (node.logical.op_name != "Filter") continue;
    if (node.logical.requires_semantics) {
      EXPECT_TRUE(ImplSemanticCapable(node.impl)) << PhysicalImplName(node.impl);
    } else {
      EXPECT_EQ(node.impl, PhysicalImpl::kExactFilter);
    }
  }
}

TEST_F(OptimizerTest, CardinalityPropagation) {
  PhysicalOptimizer optimizer(cost_model_, estimator_,
                              Opts(PhysicalMode::kGroundTruthCards));
  auto plan = optimizer.Optimize(FilterChainPlan());
  ASSERT_TRUE(plan.ok());
  // Scan out = N; each filter shrinks; Count out = 1.
  EXPECT_DOUBLE_EQ(plan->nodes[0].est_out_card,
                   static_cast<double>(corpus_->size()));
  EXPECT_LT(plan->nodes[1].est_out_card, plan->nodes[1].est_in_card);
  EXPECT_LT(plan->nodes[2].est_out_card, plan->nodes[2].est_in_card);
  EXPECT_DOUBLE_EQ(plan->nodes[3].est_out_card, 1.0);
  EXPECT_FALSE(plan->likely_incomplete);
  EXPECT_GT(plan->est_makespan, 0);
}

TEST_F(OptimizerTest, GroundTruthModeCostsNoLlm) {
  PhysicalOptimizer optimizer(cost_model_, estimator_,
                              Opts(PhysicalMode::kGroundTruthCards));
  auto plan = optimizer.Optimize(FilterChainPlan());
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->optimize_llm_calls, 0);
}

TEST_F(OptimizerTest, FullModePaysForSceAndCachesAcrossPlans) {
  PhysicalOptimizer optimizer(cost_model_, estimator_,
                              Opts(PhysicalMode::kFull));
  auto plans = std::vector<LogicalPlan>{FilterChainPlan(),
                                        FilterChainPlan()};
  auto best = optimizer.SelectBest(plans);
  ASSERT_TRUE(best.ok());
  EXPECT_GT(best->optimize_llm_calls, 0);
  // The second identical plan reuses cached estimates: cost is well below
  // double.
  PhysicalOptimizer fresh(cost_model_, estimator_,
                          Opts(PhysicalMode::kFull));
  auto single = fresh.SelectBest({FilterChainPlan()});
  ASSERT_TRUE(single.ok());
  EXPECT_LT(best->optimize_llm_calls, 2 * single->optimize_llm_calls);
}

TEST_F(OptimizerTest, SelectBestPrefersCompletePlans) {
  // A truncated plan (answer var holds grouped values) must lose to a
  // complete one even if cheaper.
  LogicalPlan truncated;
  truncated.query_text = "q";
  LogicalNode group;
  group.op_name = "GroupBy";
  group.args = {{"by", "sport"}};
  group.requires_semantics = true;
  group.input_vars = {kDocsVar};
  group.output_var = "V1";
  truncated.nodes = {group};
  truncated.dag.AddNode();
  truncated.answer_var = "V1";

  LogicalPlan complete = FilterChainPlan();
  PhysicalOptimizer optimizer(cost_model_, estimator_,
                              Opts(PhysicalMode::kGroundTruthCards));
  auto best = optimizer.SelectBest({truncated, complete});
  ASSERT_TRUE(best.ok());
  EXPECT_FALSE(best->likely_incomplete);
  EXPECT_EQ(best->nodes.back().logical.op_name, "Count");
}

TEST_F(OptimizerTest, SelectBestRejectsEmptyInput) {
  PhysicalOptimizer optimizer(cost_model_, estimator_,
                              Opts(PhysicalMode::kFull));
  EXPECT_FALSE(optimizer.SelectBest({}).ok());
}

TEST_F(OptimizerTest, ExplainRendersEveryNode) {
  PhysicalOptimizer optimizer(cost_model_, estimator_,
                              Opts(PhysicalMode::kGroundTruthCards));
  auto plan = optimizer.Optimize(FilterChainPlan());
  ASSERT_TRUE(plan.ok());
  std::string explain = plan->Explain();
  EXPECT_NE(explain.find("Scan"), std::string::npos);
  EXPECT_NE(explain.find("Filter"), std::string::npos);
  EXPECT_NE(explain.find("Count"), std::string::npos);
  EXPECT_NE(explain.find("rows"), std::string::npos);
  EXPECT_NE(explain.find("answer: V3"), std::string::npos);
  // One line per node plus the header.
  size_t lines = 0;
  for (char c : explain) lines += c == '\n';
  EXPECT_EQ(lines, plan->nodes.size() + 1);
}

TEST_F(OptimizerTest, DollarObjectiveProducesSpendEstimate) {
  OptimizerOptions options = Opts(PhysicalMode::kGroundTruthCards);
  options.objective = OptimizeObjective::kDollars;
  PhysicalOptimizer optimizer(cost_model_, estimator_, options);
  auto plan = optimizer.Optimize(FilterChainPlan());
  ASSERT_TRUE(plan.ok());
  EXPECT_GT(plan->est_total_dollars, 0);
  // est_seconds stays a time quantity even under the dollar objective
  // (it feeds the makespan schedule).
  EXPECT_GT(plan->est_makespan, 0);
}

// The objective decides what implementation choice minimizes: here the
// LLM filters a numeric condition faster than the exact scan, but costs
// money.
TEST_F(OptimizerTest, ObjectiveDecidesImplChoice) {
  CostModel model;
  model.Record("Filter", PhysicalImpl::kExactFilter, 100, 0, 50.0);
  model.Record("Filter", PhysicalImpl::kLlmFilter, 100, 1.0, 0, 0.01);
  const LogicalPlan plan = LongFilterChainPlan(2);  // semantic, numeric
  for (OptimizeObjective objective :
       {OptimizeObjective::kTime, OptimizeObjective::kDollars}) {
    OptimizerOptions options = Opts(PhysicalMode::kGroundTruthCards);
    options.objective = objective;
    PhysicalOptimizer optimizer(&model, estimator_, options);
    auto optimized = optimizer.Optimize(plan);
    ASSERT_TRUE(optimized.ok());
    for (const PhysicalNode& node : optimized->nodes) {
      if (node.logical.args.count("kind") == 0 ||
          node.logical.args.at("kind") != "numeric") {
        continue;
      }
      EXPECT_EQ(node.impl, objective == OptimizeObjective::kTime
                               ? PhysicalImpl::kLlmFilter
                               : PhysicalImpl::kExactFilter)
          << optimized->Explain();
    }
  }
}

TEST_F(OptimizerTest, IndexScanGetsCandidateBudget) {
  PhysicalOptimizer optimizer(cost_model_, estimator_,
                              Opts(PhysicalMode::kGroundTruthCards));
  // Single very selective semantic filter directly on the corpus: index
  // scan should win and carry a candidate budget well below N.
  LogicalPlan plan;
  plan.query_text = "q";
  LogicalNode filter;
  filter.op_name = "Filter";
  filter.args = {{"kind", "semantic"},
                 {"phrase", corpus_->knowledge().categories().back()},
                 {"condition", "about x"}};
  filter.requires_semantics = true;
  filter.input_vars = {kDocsVar};
  filter.output_var = "V1";
  LogicalNode count;
  count.op_name = "Count";
  count.input_vars = {"V1"};
  count.output_var = "V2";
  plan.nodes = {filter, count};
  plan.dag.AddNode();
  plan.dag.AddNode();
  ASSERT_TRUE(plan.dag.AddEdge(0, 1).ok());
  plan.answer_var = "V2";
  auto optimized = optimizer.Optimize(plan);
  ASSERT_TRUE(optimized.ok());
  const auto& fnode = optimized->nodes[1];
  ASSERT_EQ(fnode.logical.op_name, "Filter");
  EXPECT_EQ(fnode.impl, PhysicalImpl::kIndexScanFilter)
      << optimized->Explain();
  double candidates =
      std::stod(fnode.logical.args.at("index_candidates"));
  EXPECT_LT(candidates, static_cast<double>(corpus_->size()));
}

}  // namespace
}  // namespace unify::core
