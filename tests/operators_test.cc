#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/operators/custom_ops.h"
#include "core/operators/operator_def.h"
#include "core/operators/physical.h"
#include "core/physical/phrase_probes.h"
#include "corpus/dataset_profile.h"
#include "embedding/hashed_embedder.h"
#include "index/hnsw_index.h"
#include "llm/sim_llm.h"

namespace unify::core {
namespace {

class OperatorsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto profile = corpus::SportsProfile();
    profile.doc_count = 400;
    corpus_ = new corpus::Corpus(corpus::GenerateCorpus(profile, 31));
    llm_ = new llm::SimulatedLlm(corpus_, llm::SimLlmOptions{});

    auto spec = corpus::BuildEmbeddingSpec(corpus_->profile());
    embedding::TopicEmbedder::Options eopts;
    embedder_ = new embedding::TopicEmbedder(eopts, spec.topic_tokens,
                                             spec.aliases);
    index_ = new index::HnswIndex(index::HnswIndex::Options{});
    vecs_ = new std::vector<embedding::Vec>();
    for (const auto& doc : corpus_->docs()) {
      vecs_->push_back(embedder_->Embed(doc.text));
      ASSERT_TRUE(index_->Add(doc.id, vecs_->back()).ok());
    }
    probes_ = new PhraseProbes(embedder_, vecs_, index_);
  }
  static void TearDownTestSuite() {
    delete probes_;
    delete vecs_;
    delete index_;
    delete embedder_;
    delete llm_;
    delete corpus_;
  }

  ExecContext Ctx() {
    ExecContext ctx;
    ctx.corpus = corpus_;
    ctx.llm = llm_;
    ctx.phrase_probes = probes_;
    return ctx;
  }

  static DocList AllDocs() {
    DocList docs;
    for (uint64_t i = 0; i < corpus_->size(); ++i) docs.push_back(i);
    return docs;
  }

  static size_t TrueCount(const std::string& phrase) {
    size_t n = 0;
    for (const auto& doc : corpus_->docs()) {
      n += corpus_->knowledge().Matches(phrase, doc.attrs);
    }
    return n;
  }

  static corpus::Corpus* corpus_;
  static llm::SimulatedLlm* llm_;
  static embedding::TopicEmbedder* embedder_;
  static index::HnswIndex* index_;
  static std::vector<embedding::Vec>* vecs_;
  static PhraseProbes* probes_;
};
corpus::Corpus* OperatorsTest::corpus_ = nullptr;
llm::SimulatedLlm* OperatorsTest::llm_ = nullptr;
embedding::TopicEmbedder* OperatorsTest::embedder_ = nullptr;
index::HnswIndex* OperatorsTest::index_ = nullptr;
std::vector<embedding::Vec>* OperatorsTest::vecs_ = nullptr;
PhraseProbes* OperatorsTest::probes_ = nullptr;

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(RegistryTest, TwentyOneOperators) {
  auto registry = OperatorRegistry::Default();
  EXPECT_EQ(registry.size(), 21u);
  for (const char* name :
       {"Scan", "Filter", "Compare", "GroupBy", "Count", "Sum", "Max",
        "Min", "Average", "Median", "Percentile", "OrderBy", "Classify",
        "Extract", "TopK", "Join", "Union", "Intersection",
        "Complementary", "Compute", "Generate"}) {
    const auto* op = registry.Find(name);
    ASSERT_NE(op, nullptr) << name;
    EXPECT_FALSE(op->logical_representations.empty()) << name;
    EXPECT_FALSE(op->description.empty()) << name;
  }
  EXPECT_EQ(registry.Find("Nonexistent"), nullptr);
}

TEST(RegistryTest, ExtensibleWithNewOperators) {
  auto registry = OperatorRegistry::Default();
  LogicalOperatorDef def;
  def.name = "Summarize";
  def.description = "Summarizes documents.";
  def.logical_representations = {"summarize [Entity]"};
  registry.Add(def);
  EXPECT_EQ(registry.size(), 22u);
  EXPECT_NE(registry.Find("Summarize"), nullptr);
}

TEST(RegistryTest, CandidateImplsRespectConditionKind) {
  OpArgs numeric{{"kind", "numeric"}};
  OpArgs semantic{{"kind", "semantic"}};
  auto n = CandidateImpls("Filter", numeric);
  auto s = CandidateImpls("Filter", semantic);
  EXPECT_NE(std::find(n.begin(), n.end(), PhysicalImpl::kExactFilter),
            n.end());
  EXPECT_EQ(std::find(s.begin(), s.end(), PhysicalImpl::kExactFilter),
            s.end());
  EXPECT_NE(std::find(s.begin(), s.end(), PhysicalImpl::kIndexScanFilter),
            s.end());
}

TEST(RegistryTest, ImplClassification) {
  EXPECT_TRUE(ImplUsesLlm(PhysicalImpl::kLlmFilter));
  EXPECT_FALSE(ImplUsesLlm(PhysicalImpl::kExactFilter));
  EXPECT_FALSE(ImplSemanticCapable(PhysicalImpl::kKeywordFilter));
  EXPECT_TRUE(ImplSemanticCapable(PhysicalImpl::kLlmFilter));
  EXPECT_TRUE(ImplSemanticCapable(PhysicalImpl::kIndexScanFilter));
}

// ---------------------------------------------------------------------------
// Scan / Filter
// ---------------------------------------------------------------------------

TEST_F(OperatorsTest, ScanReturnsWholeCorpus) {
  auto ctx = Ctx();
  auto out = ExecuteOp("Scan", PhysicalImpl::kLinearScan, {}, {}, ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->value.get<DocList>().size(), corpus_->size());
  EXPECT_GT(out->stats.cpu_seconds, 0);
  EXPECT_EQ(out->stats.llm_calls, 0);
}

TEST_F(OperatorsTest, ExactFilterIsExactOnNumeric) {
  auto ctx = Ctx();
  OpArgs args{{"kind", "numeric"},
              {"attribute", "views"},
              {"cmp", "gt"},
              {"value", "400"}};
  auto out = ExecuteOp("Filter", PhysicalImpl::kExactFilter, args,
                       {Value::Docs(AllDocs())}, ctx);
  ASSERT_TRUE(out.ok());
  size_t truth = 0;
  for (const auto& doc : corpus_->docs()) truth += doc.attrs.views > 400;
  EXPECT_EQ(out->value.get<DocList>().size(), truth);
  EXPECT_EQ(out->stats.llm_calls, 0);
}

TEST_F(OperatorsTest, LlmFilterNearTruthOnSemantic) {
  auto ctx = Ctx();
  OpArgs args{{"kind", "semantic"}, {"phrase", "injury"}};
  auto out = ExecuteOp("Filter", PhysicalImpl::kLlmFilter, args,
                       {Value::Docs(AllDocs())}, ctx);
  ASSERT_TRUE(out.ok());
  double truth = static_cast<double>(TrueCount("injury"));
  double got = static_cast<double>(out->value.get<DocList>().size());
  EXPECT_NEAR(got, truth, truth * 0.08 + 2);
  EXPECT_GT(out->stats.llm_calls, 0);
  EXPECT_GT(out->stats.llm_seconds, 0);
}

TEST_F(OperatorsTest, KeywordFilterMissesImplicitDocs) {
  auto ctx = Ctx();
  OpArgs args{{"kind", "semantic"}, {"phrase", "tennis"}};
  auto keyword = ExecuteOp("Filter", PhysicalImpl::kKeywordFilter, args,
                           {Value::Docs(AllDocs())}, ctx);
  ASSERT_TRUE(keyword.ok());
  size_t truth = TrueCount("tennis");
  // Keyword matching sees only explicit documents (~80%).
  EXPECT_LT(keyword->value.get<DocList>().size(), truth);
  EXPECT_GT(keyword->value.get<DocList>().size(), truth / 2);
}

TEST_F(OperatorsTest, IndexScanFilterHighRecallWithEnoughCandidates) {
  auto ctx = Ctx();
  size_t truth = TrueCount("tennis");
  OpArgs args{{"kind", "semantic"},
              {"phrase", "tennis"},
              {"index_candidates", std::to_string(corpus_->size())}};
  auto out = ExecuteOp("Filter", PhysicalImpl::kIndexScanFilter, args,
                       {Value::Docs(AllDocs())}, ctx);
  ASSERT_TRUE(out.ok());
  double got = static_cast<double>(out->value.get<DocList>().size());
  EXPECT_NEAR(got, static_cast<double>(truth), truth * 0.08 + 2);
}

TEST_F(OperatorsTest, IndexScanFewerCandidatesLowerRecallButCheaper) {
  auto ctx = Ctx();
  OpArgs tight{{"kind", "semantic"},
               {"phrase", "tennis"},
               {"index_candidates", "40"}};
  OpArgs loose{{"kind", "semantic"},
               {"phrase", "tennis"},
               {"index_candidates", "400"}};
  auto t = ExecuteOp("Filter", PhysicalImpl::kIndexScanFilter, tight,
                     {Value::Docs(AllDocs())}, ctx);
  auto l = ExecuteOp("Filter", PhysicalImpl::kIndexScanFilter, loose,
                     {Value::Docs(AllDocs())}, ctx);
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(l.ok());
  EXPECT_LE(t->value.get<DocList>().size(), l->value.get<DocList>().size());
  EXPECT_LT(t->stats.llm_seconds, l->stats.llm_seconds);
}

TEST_F(OperatorsTest, FilterBroadcastsOverGroups) {
  auto ctx = Ctx();
  GroupedDocs groups;
  groups.groups.emplace_back("a", DocList{0, 1, 2, 3, 4});
  groups.groups.emplace_back("b", DocList{5, 6, 7});
  OpArgs args{{"kind", "numeric"},
              {"attribute", "views"},
              {"cmp", "ge"},
              {"value", "0"}};
  auto out = ExecuteOp("Filter", PhysicalImpl::kExactFilter, args,
                       {Value(Value::Rep(groups))}, ctx);
  ASSERT_TRUE(out.ok());
  const auto& result = out->value.get<GroupedDocs>();
  ASSERT_EQ(result.groups.size(), 2u);
  EXPECT_EQ(result.groups[0].second.size(), 5u);  // views >= 0 keeps all
  EXPECT_EQ(result.groups[1].second.size(), 3u);
}

// ---------------------------------------------------------------------------
// GroupBy / Classify
// ---------------------------------------------------------------------------

TEST_F(OperatorsTest, LlmGroupByPartitionsAllDocs) {
  auto ctx = Ctx();
  OpArgs args{{"by", "sport"}};
  auto out = ExecuteOp("GroupBy", PhysicalImpl::kLlmGroupBy, args,
                       {Value::Docs(AllDocs())}, ctx);
  ASSERT_TRUE(out.ok());
  const auto& groups = out->value.get<GroupedDocs>();
  size_t total = 0;
  for (const auto& [label, docs] : groups.groups) total += docs.size();
  EXPECT_EQ(total, corpus_->size());
  EXPECT_GT(groups.groups.size(), 5u);
}

TEST_F(OperatorsTest, RuleGroupByDropsUnclassifiable) {
  auto ctx = Ctx();
  OpArgs args{{"by", "sport"}};
  auto out = ExecuteOp("GroupBy", PhysicalImpl::kRuleGroupBy, args,
                       {Value::Docs(AllDocs())}, ctx);
  ASSERT_TRUE(out.ok());
  size_t total = 0;
  for (const auto& [label, docs] : out->value.get<GroupedDocs>().groups) {
    total += docs.size();
  }
  EXPECT_LT(total, corpus_->size());  // implicit docs drop out
  EXPECT_GT(total, corpus_->size() / 2);
  EXPECT_EQ(out->stats.llm_calls, 0);
}

TEST_F(OperatorsTest, ClassifyReturnsPerDocLabels) {
  auto ctx = Ctx();
  DocList docs{0, 1, 2, 3, 4};
  OpArgs args{{"by", "sport"}};
  auto out = ExecuteOp("Classify", PhysicalImpl::kLlmClassify, args,
                       {Value::Docs(docs)}, ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->value.get<TextList>().size(), 5u);
}

// ---------------------------------------------------------------------------
// Count / aggregates / extract
// ---------------------------------------------------------------------------

TEST_F(OperatorsTest, CountDocsAndGroupsAndValues) {
  auto ctx = Ctx();
  auto docs = ExecuteOp("Count", PhysicalImpl::kPreCount, {},
                        {Value::Docs({1, 2, 3})}, ctx);
  ASSERT_TRUE(docs.ok());
  EXPECT_DOUBLE_EQ(docs->value.get<double>(), 3.0);

  GroupedDocs groups;
  groups.groups.emplace_back("a", DocList{1, 2});
  groups.groups.emplace_back("b", DocList{3});
  auto per_group = ExecuteOp("Count", PhysicalImpl::kPreCount, {},
                             {Value(Value::Rep(groups))}, ctx);
  ASSERT_TRUE(per_group.ok());
  const auto& counts = per_group->value.get<GroupedNumbers>();
  ASSERT_EQ(counts.values.size(), 2u);
  EXPECT_DOUBLE_EQ(counts.values[0].second, 2.0);
  EXPECT_DOUBLE_EQ(counts.values[1].second, 1.0);

  NumberList values;
  values.values = {1, 2, 3, 4};
  auto n = ExecuteOp("Count", PhysicalImpl::kPreCount, {},
                     {Value(Value::Rep(values))}, ctx);
  ASSERT_TRUE(n.ok());
  EXPECT_DOUBLE_EQ(n->value.get<double>(), 4.0);
}

TEST_F(OperatorsTest, LlmCountChargesLlmTime) {
  auto ctx = Ctx();
  auto out = ExecuteOp("Count", PhysicalImpl::kLlmCount, {},
                       {Value::Docs({1, 2, 3, 4, 5})}, ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out->value.get<double>(), 5.0);
  EXPECT_GT(out->stats.llm_seconds, 0);
}

TEST_F(OperatorsTest, AggregatesOverNumberList) {
  auto ctx = Ctx();
  NumberList values;
  values.values = {1, 2, 3, 4, 100};
  Value input = Value(Value::Rep(values));
  struct Case {
    const char* op;
    double expected;
  };
  for (const Case& c : {Case{"Sum", 110}, Case{"Average", 22},
                        Case{"Min", 1}, Case{"Max", 100},
                        Case{"Median", 3}}) {
    auto out = ExecuteOp(c.op, PhysicalImpl::kPreAggregate, {}, {input}, ctx);
    ASSERT_TRUE(out.ok()) << c.op;
    EXPECT_DOUBLE_EQ(out->value.get<double>(), c.expected) << c.op;
  }
  OpArgs p{{"p", "75"}};
  auto out = ExecuteOp("Percentile", PhysicalImpl::kPreAggregate, p, {input},
                       ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out->value.get<double>(), 4.0);
}

TEST_F(OperatorsTest, AggregateOverEmptyInputFailsCleanly) {
  auto ctx = Ctx();
  NumberList empty;
  auto out = ExecuteOp("Average", PhysicalImpl::kPreAggregate, {},
                       {Value(Value::Rep(empty))}, ctx);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(OperatorsTest, DirectAggregateOverDocsExtractsFirst) {
  auto ctx = Ctx();
  DocList docs{0, 1, 2, 3, 4, 5, 6, 7};
  OpArgs args{{"attribute", "views"}};
  auto pre = ExecuteOp("Average", PhysicalImpl::kPreAggregate, args,
                       {Value::Docs(docs)}, ctx);
  ASSERT_TRUE(pre.ok());
  double truth = 0;
  for (uint64_t id : docs) {
    truth += static_cast<double>(corpus_->doc(id).attrs.views);
  }
  truth /= docs.size();
  EXPECT_NEAR(pre->value.get<double>(), truth, 1e-9);

  auto via_llm = ExecuteOp("Average", PhysicalImpl::kLlmAggregate, args,
                           {Value::Docs(docs)}, ctx);
  ASSERT_TRUE(via_llm.ok());
  EXPECT_NEAR(via_llm->value.get<double>(), truth, truth * 0.3 + 1);
  EXPECT_GT(via_llm->stats.llm_calls, 0);
}

TEST_F(OperatorsTest, ArgBestOverGroupedNumbers) {
  auto ctx = Ctx();
  GroupedNumbers values;
  values.values = {{"tennis", 0.5}, {"golf", 2.5}, {"rugby", 1.0}};
  OpArgs args{{"arg", "group"}};
  auto max = ExecuteOp("Max", PhysicalImpl::kPreAggregate, args,
                       {Value(Value::Rep(values))}, ctx);
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(max->value.get<std::string>(), "golf");
  auto min = ExecuteOp("Min", PhysicalImpl::kPreAggregate, args,
                       {Value(Value::Rep(values))}, ctx);
  ASSERT_TRUE(min.ok());
  EXPECT_EQ(min->value.get<std::string>(), "tennis");
  // Without arg=group the value itself is returned.
  auto val = ExecuteOp("Max", PhysicalImpl::kPreAggregate, {},
                       {Value(Value::Rep(values))}, ctx);
  ASSERT_TRUE(val.ok());
  EXPECT_DOUBLE_EQ(val->value.get<double>(), 2.5);
}

TEST_F(OperatorsTest, ExtractRegexVsLlm) {
  auto ctx = Ctx();
  DocList docs{0, 1, 2, 3, 4};
  OpArgs args{{"attribute", "score"}};
  auto regex = ExecuteOp("Extract", PhysicalImpl::kRegexExtract, args,
                         {Value::Docs(docs)}, ctx);
  ASSERT_TRUE(regex.ok());
  const auto& values = regex->value.get<NumberList>().values;
  ASSERT_EQ(values.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(values[i],
                     static_cast<double>(corpus_->doc(docs[i]).attrs.score));
  }
  auto via_llm = ExecuteOp("Extract", PhysicalImpl::kLlmExtract, args,
                           {Value::Docs(docs)}, ctx);
  ASSERT_TRUE(via_llm.ok());
  EXPECT_EQ(via_llm->value.get<NumberList>().values.size(), 5u);
}

TEST_F(OperatorsTest, ExtractBroadcastsOverGroups) {
  auto ctx = Ctx();
  GroupedDocs groups;
  groups.groups.emplace_back("a", DocList{0, 1});
  groups.groups.emplace_back("b", DocList{2});
  OpArgs args{{"attribute", "views"}};
  auto out = ExecuteOp("Extract", PhysicalImpl::kRegexExtract, args,
                       {Value(Value::Rep(groups))}, ctx);
  ASSERT_TRUE(out.ok());
  const auto& result = out->value.get<GroupedNumberLists>();
  ASSERT_EQ(result.groups.size(), 2u);
  EXPECT_EQ(result.groups[0].second.values.size(), 2u);
}

// ---------------------------------------------------------------------------
// OrderBy / TopK
// ---------------------------------------------------------------------------

TEST_F(OperatorsTest, OrderBySortsByAttribute) {
  auto ctx = Ctx();
  DocList docs{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  OpArgs args{{"attribute", "views"}, {"desc", "true"}};
  auto out = ExecuteOp("OrderBy", PhysicalImpl::kNumericSort, args,
                       {Value::Docs(docs)}, ctx);
  ASSERT_TRUE(out.ok());
  const auto& sorted = out->value.get<DocList>();
  for (size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_GE(corpus_->doc(sorted[i - 1]).attrs.views,
              corpus_->doc(sorted[i]).attrs.views);
  }
}

TEST_F(OperatorsTest, TopKReturnsBestTitles) {
  auto ctx = Ctx();
  DocList docs = AllDocs();
  OpArgs args{{"k", "3"}, {"attribute", "views"}, {"desc", "true"}};
  auto out = ExecuteOp("TopK", PhysicalImpl::kNumericTopK, args,
                       {Value::Docs(docs)}, ctx);
  ASSERT_TRUE(out.ok());
  const auto& titles = out->value.get<TextList>();
  ASSERT_EQ(titles.size(), 3u);
  // The first title corresponds to the max-view document.
  int64_t best = -1;
  uint64_t best_id = 0;
  for (const auto& doc : corpus_->docs()) {
    if (doc.attrs.views > best) {
      best = doc.attrs.views;
      best_id = doc.id;
    }
  }
  EXPECT_EQ(titles[0], corpus_->doc(best_id).title);
}

TEST_F(OperatorsTest, TopKAscendingAndShortInput) {
  auto ctx = Ctx();
  OpArgs args{{"k", "10"}, {"attribute", "views"}, {"desc", "false"}};
  auto out = ExecuteOp("TopK", PhysicalImpl::kNumericTopK, args,
                       {Value::Docs({1, 2})}, ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->value.get<TextList>().size(), 2u);
}

// ---------------------------------------------------------------------------
// Join / set operations / Compare / Compute
// ---------------------------------------------------------------------------

TEST_F(OperatorsTest, JoinOnCategoryKeepsMatchingLeftDocs) {
  auto ctx = Ctx();
  // Right side: tennis documents; left side: first 80 docs.
  DocList right;
  for (const auto& doc : corpus_->docs()) {
    if (doc.attrs.category == "tennis") right.push_back(doc.id);
  }
  DocList left;
  for (uint64_t i = 0; i < 80; ++i) left.push_back(i);
  OpArgs args{{"on", "category"}};
  auto out = ExecuteOp("Join", PhysicalImpl::kLlmJoin, args,
                       {Value::Docs(left), Value::Docs(right)}, ctx);
  ASSERT_TRUE(out.ok());
  size_t truth = 0;
  for (uint64_t i = 0; i < 80; ++i) {
    truth += corpus_->doc(i).attrs.category == "tennis";
  }
  EXPECT_NEAR(static_cast<double>(out->value.get<DocList>().size()),
              static_cast<double>(truth), truth * 0.4 + 3);
}

TEST_F(OperatorsTest, SetOperations) {
  auto ctx = Ctx();
  Value a = Value::Docs({1, 2, 3, 4});
  Value b = Value::Docs({3, 4, 5});
  auto u = ExecuteOp("Union", PhysicalImpl::kPreSetOp, {}, {a, b}, ctx);
  auto i = ExecuteOp("Intersection", PhysicalImpl::kPreSetOp, {}, {a, b},
                     ctx);
  auto d = ExecuteOp("Complementary", PhysicalImpl::kPreSetOp, {}, {a, b},
                     ctx);
  ASSERT_TRUE(u.ok());
  ASSERT_TRUE(i.ok());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(u->value.get<DocList>(), (DocList{1, 2, 3, 4, 5}));
  EXPECT_EQ(i->value.get<DocList>(), (DocList{3, 4}));
  EXPECT_EQ(d->value.get<DocList>(), (DocList{1, 2}));
}

TEST_F(OperatorsTest, CompareDirections) {
  auto ctx = Ctx();
  auto out = ExecuteOp("Compare", PhysicalImpl::kPreCompare, {},
                       {Value::Number(3), Value::Number(7)}, ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->value.get<std::string>(), "B");
  OpArgs min_args{{"direction", "min"}};
  auto min_out = ExecuteOp("Compare", PhysicalImpl::kPreCompare, min_args,
                           {Value::Number(3), Value::Number(7)}, ctx);
  ASSERT_TRUE(min_out.ok());
  EXPECT_EQ(min_out->value.get<std::string>(), "A");
}

TEST_F(OperatorsTest, ComputeRatioScalarAndGrouped) {
  auto ctx = Ctx();
  auto scalar = ExecuteOp("Compute", PhysicalImpl::kPreCompute, {},
                          {Value::Number(6), Value::Number(3)}, ctx);
  ASSERT_TRUE(scalar.ok());
  EXPECT_DOUBLE_EQ(scalar->value.get<double>(), 2.0);

  GroupedNumbers num;
  num.values = {{"a", 6}, {"b", 4}, {"c", 2}};
  GroupedNumbers den;
  den.values = {{"a", 3}, {"b", 0}, {"d", 1}};
  auto grouped = ExecuteOp("Compute", PhysicalImpl::kPreCompute, {},
                           {Value(Value::Rep(num)), Value(Value::Rep(den))},
                           ctx);
  ASSERT_TRUE(grouped.ok());
  const auto& ratios = grouped->value.get<GroupedNumbers>();
  // "b" dropped (zero denominator), "c"/"d" dropped (no counterpart).
  ASSERT_EQ(ratios.values.size(), 1u);
  EXPECT_EQ(ratios.values[0].first, "a");
  EXPECT_DOUBLE_EQ(ratios.values[0].second, 2.0);
}

TEST_F(OperatorsTest, ComputeDivisionByZeroTriggersError) {
  auto ctx = Ctx();
  auto out = ExecuteOp("Compute", PhysicalImpl::kPreCompute, {},
                       {Value::Number(6), Value::Number(0)}, ctx);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Generate / Identity / error paths
// ---------------------------------------------------------------------------

TEST_F(OperatorsTest, GenerateAnswersFromContext) {
  auto ctx = Ctx();
  OpArgs args{{"query", "How many questions about tennis are there?"}};
  auto out = ExecuteOp("Generate", PhysicalImpl::kLlmGenerate, args,
                       {Value::Docs(AllDocs())}, ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->value.is<double>());
  EXPECT_GT(out->stats.llm_calls, 0);
}

TEST_F(OperatorsTest, GenerateWithRetrievalLimitsContext) {
  auto ctx = Ctx();
  OpArgs args{{"query", "How many questions about tennis are there?"},
              {"retrieve_k", "20"}};
  auto out = ExecuteOp("Generate", PhysicalImpl::kLlmGenerate, args,
                       {Value::Docs(AllDocs())}, ctx);
  ASSERT_TRUE(out.ok());
  // A 20-document context cannot report the full tennis count.
  EXPECT_LT(out->value.get<double>(),
            static_cast<double>(TrueCount("tennis")));
}

TEST_F(OperatorsTest, IdentityPassesThrough) {
  auto ctx = Ctx();
  auto out = ExecuteOp("Identity", PhysicalImpl::kIdentity, {},
                       {Value::Number(42)}, ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out->value.get<double>(), 42.0);
}

TEST_F(OperatorsTest, WrongInputKindsRejected) {
  auto ctx = Ctx();
  EXPECT_FALSE(ExecuteOp("Filter", PhysicalImpl::kLlmFilter, {},
                         {Value::Number(1)}, ctx)
                   .ok());
  EXPECT_FALSE(ExecuteOp("Compare", PhysicalImpl::kPreCompare, {},
                         {Value::Number(1)}, ctx)
                   .ok());
  EXPECT_FALSE(
      ExecuteOp("GroupBy", PhysicalImpl::kLlmGroupBy, {}, {}, ctx).ok());
  EXPECT_FALSE(
      ExecuteOp("NoSuchOp", PhysicalImpl::kIdentity, {}, {}, ctx).ok());
}

TEST_F(OperatorsTest, CustomOperatorsDispatchBeforeBuiltins) {
  auto ctx = Ctx();
  CustomOpRegistry custom;
  custom.Register("Reverse",
                  [](const OpArgs&, const std::vector<Value>& inputs,
                     ExecContext&) -> StatusOr<OpOutput> {
                    OpOutput out;
                    DocList docs = inputs[0].get<DocList>();
                    std::reverse(docs.begin(), docs.end());
                    out.value = Value::Docs(std::move(docs));
                    return out;
                  });
  // Custom handlers can also shadow built-ins.
  custom.Register("Count",
                  [](const OpArgs&, const std::vector<Value>&,
                     ExecContext&) -> StatusOr<OpOutput> {
                    OpOutput out;
                    out.value = Value::Number(-1);
                    return out;
                  });
  ctx.custom_ops = &custom;
  auto reversed = ExecuteOp("Reverse", PhysicalImpl::kIdentity, {},
                            {Value::Docs({1, 2, 3})}, ctx);
  ASSERT_TRUE(reversed.ok());
  EXPECT_EQ(reversed->value.get<DocList>(), (DocList{3, 2, 1}));
  auto shadowed = ExecuteOp("Count", PhysicalImpl::kPreCount, {},
                            {Value::Docs({1, 2})}, ctx);
  ASSERT_TRUE(shadowed.ok());
  EXPECT_DOUBLE_EQ(shadowed->value.get<double>(), -1.0);
  // Without the registry, the built-in Count still works.
  ctx.custom_ops = nullptr;
  auto builtin = ExecuteOp("Count", PhysicalImpl::kPreCount, {},
                           {Value::Docs({1, 2})}, ctx);
  ASSERT_TRUE(builtin.ok());
  EXPECT_DOUBLE_EQ(builtin->value.get<double>(), 2.0);
}

// ---------------------------------------------------------------------------
// Morsels: per-document LLM batches split inside the batched helper
// ---------------------------------------------------------------------------

/// Runs every morsel in order on the calling thread, at most 4 per call,
/// and counts the morsels it was handed.
class InOrderMorselRunner : public MorselRunner {
 public:
  int max_morsels() const override { return 4; }

  StatusOr<std::vector<OpStats>> Run(
      const std::vector<DocList>& chunks,
      const std::function<StatusOr<OpStats>(size_t)>& run,
      const std::function<void()>& merge) override {
    morsels += chunks.size();
    std::vector<OpStats> stats;
    for (size_t i = 0; i < chunks.size(); ++i) {
      UNIFY_ASSIGN_OR_RETURN(OpStats s, run(i));
      stats.push_back(s);
    }
    merge();
    return stats;
  }

  size_t morsels = 0;
};

TEST_F(OperatorsTest, SplittingImplsMatchWholeExecution) {
  struct Case {
    std::string op;
    PhysicalImpl impl;
    OpArgs args;
  };
  const std::vector<Case> cases = {
      {"Filter", PhysicalImpl::kLlmFilter,
       {{"kind", "semantic"}, {"phrase", "tennis"}}},
      {"Filter", PhysicalImpl::kIndexScanFilter,
       {{"kind", "semantic"}, {"phrase", "tennis"},
        {"index_candidates", "200"}}},
      {"GroupBy", PhysicalImpl::kLlmGroupBy, {{"by", "sport"}}},
      {"Classify", PhysicalImpl::kLlmClassify, {{"by", "sport"}}},
      {"Extract", PhysicalImpl::kLlmExtract, {{"attribute", "score"}}},
      {"OrderBy", PhysicalImpl::kLlmSort,
       {{"attribute", "views"}, {"desc", "true"}}},
      {"TopK", PhysicalImpl::kLlmTopK,
       {{"k", "5"}, {"attribute", "views"}, {"desc", "true"}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(PhysicalImplName(c.impl));
    EXPECT_TRUE(ImplSplitsPerDoc(c.impl));
    auto whole_ctx = Ctx();
    auto whole = ExecuteOp(c.op, c.impl, c.args, {Value::Docs(AllDocs())},
                           whole_ctx);
    InOrderMorselRunner runner;
    auto split_ctx = Ctx();
    split_ctx.morsels = &runner;
    auto split = ExecuteOp(c.op, c.impl, c.args, {Value::Docs(AllDocs())},
                           split_ctx);
    ASSERT_TRUE(whole.ok()) << whole.status();
    ASSERT_TRUE(split.ok()) << split.status();
    EXPECT_GE(runner.morsels, 2u);
    EXPECT_TRUE(split->value.rep() == whole->value.rep())
        << split->value.ToString() << " vs " << whole->value.ToString();
    EXPECT_EQ(split->stats.llm_calls, whole->stats.llm_calls);
    // Morsel subtotals add up in a different order than the batches.
    EXPECT_DOUBLE_EQ(split->stats.llm_seconds, whole->stats.llm_seconds);
    EXPECT_DOUBLE_EQ(split->stats.llm_dollars, whole->stats.llm_dollars);
    EXPECT_DOUBLE_EQ(split->stats.cpu_seconds, whole->stats.cpu_seconds);
  }
  for (PhysicalImpl impl :
       {PhysicalImpl::kLlmJoin, PhysicalImpl::kLlmCount,
        PhysicalImpl::kLlmAggregate, PhysicalImpl::kLlmGenerate}) {
    EXPECT_FALSE(ImplSplitsPerDoc(impl)) << PhysicalImplName(impl);
  }
}

TEST_F(OperatorsTest, ValueToAnswerConversions) {
  EXPECT_EQ(Value::Number(5).ToAnswer().kind, corpus::Answer::Kind::kNumber);
  EXPECT_EQ(Value::Text("x").ToAnswer().kind, corpus::Answer::Kind::kText);
  EXPECT_EQ(Value::Docs({1, 2}).ToAnswer().number, 2.0);
  GroupedNumbers g;
  EXPECT_EQ(Value(Value::Rep(g)).ToAnswer().kind,
            corpus::Answer::Kind::kNone);
  EXPECT_EQ(Value().ToAnswer().kind, corpus::Answer::Kind::kNone);
}

// Every PhysicalImpl enum value must render a unique, non-empty name:
// the switch in PhysicalImplName() has no default, so a newly added
// implementation that misses a case falls through to "Unknown" and this
// test catches it.
TEST(RegistryTest, PhysicalImplNameExhaustive) {
  const int first = static_cast<int>(PhysicalImpl::kLinearScan);
  const int last = static_cast<int>(PhysicalImpl::kIdentity);
  std::set<std::string> seen;
  for (int i = first; i <= last; ++i) {
    const char* name = PhysicalImplName(static_cast<PhysicalImpl>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "") << "impl " << i;
    EXPECT_STRNE(name, "Unknown") << "impl " << i;
    EXPECT_TRUE(seen.insert(name).second)
        << "duplicate PhysicalImplName: " << name;
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(last - first + 1));
}

TEST_F(OperatorsTest, CardinalityAccounting) {
  EXPECT_EQ(Value::Docs({1, 2, 3}).Cardinality(), 3u);
  GroupedDocs g;
  g.groups.emplace_back("a", DocList{1, 2});
  g.groups.emplace_back("b", DocList{3});
  EXPECT_EQ(Value(Value::Rep(g)).Cardinality(), 3u);
  EXPECT_EQ(Value::Number(1).Cardinality(), 1u);
  EXPECT_EQ(Value().Cardinality(), 0u);
}

}  // namespace
}  // namespace unify::core
