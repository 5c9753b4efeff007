// Differential test for the per-document attribute columns NumericStats
// keeps from Setup: every column entry, and every pre-programmed operator
// that reads the columns, must agree with extraction from the text.

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/operators/physical.h"
#include "core/operators/physical_common.h"
#include "core/physical/numeric_stats.h"
#include "corpus/dataset_profile.h"
#include "nlq/ast.h"

namespace unify::core {
namespace {

using internal::AttributeReader;
using internal::RegexExtractValue;

/// Not a known attribute, yet every generated text carries a value for it
/// (the title sentence "Post 17."), so the text fallback is not vacuous.
constexpr const char* kUnknownAttribute = "post";

/// A generated corpus at its profile's paper document count plus the
/// columns NumericStats extracted from it; built once per profile.
struct Dataset {
  std::unique_ptr<corpus::Corpus> corpus;
  NumericStats stats;
};

const Dataset& DatasetNamed(const std::string& name) {
  static auto* cache = new std::map<std::string, std::unique_ptr<Dataset>>();
  std::unique_ptr<Dataset>& slot = (*cache)[name];
  if (slot == nullptr) {
    for (const auto& profile : corpus::AllProfiles()) {
      if (profile.name != name) continue;
      slot = std::make_unique<Dataset>();
      slot->corpus = std::make_unique<corpus::Corpus>(
          corpus::GenerateCorpus(profile, 13));
      slot->stats.Build(*slot->corpus);
    }
  }
  return *slot;
}

class AttributeColumnsTest : public ::testing::TestWithParam<std::string> {
 protected:
  const corpus::Corpus& corpus() const {
    return *DatasetNamed(GetParam()).corpus;
  }
  const NumericStats& stats() const { return DatasetNamed(GetParam()).stats; }

  ExecContext Ctx(const NumericStats* columns) const {
    ExecContext ctx;
    ctx.corpus = &corpus();
    ctx.numeric_stats = columns;
    return ctx;
  }

  DocList AllDocs() const {
    DocList docs;
    for (uint64_t id = 0; id < corpus().size(); ++id) docs.push_back(id);
    return docs;
  }

  /// The median text-extracted value of `attr` (0 when none), so numeric
  /// conditions split the corpus instead of keeping everything.
  int64_t MedianValue(const std::string& attr) const {
    std::vector<double> values;
    for (const auto& doc : corpus().docs()) {
      if (auto v = RegexExtractValue(doc, attr)) values.push_back(*v);
    }
    if (values.empty()) return 0;
    std::nth_element(values.begin(), values.begin() + values.size() / 2,
                     values.end());
    return static_cast<int64_t>(values[values.size() / 2]);
  }

  /// Runs one operator with and without columns: same status, same value,
  /// same virtual cost.
  void ExpectSameOutput(const std::string& op, PhysicalImpl impl,
                        const OpArgs& args,
                        const std::vector<Value>& inputs) const {
    ExecContext with = Ctx(&stats());
    ExecContext without = Ctx(nullptr);
    StatusOr<OpOutput> a = ExecuteOp(op, impl, args, inputs, with);
    StatusOr<OpOutput> b = ExecuteOp(op, impl, args, inputs, without);
    std::string where = op + "/" + PhysicalImplName(impl);
    for (const auto& [k, v] : args) where += " " + k + "=" + v;
    ASSERT_EQ(a.status().ToString(), b.status().ToString()) << where;
    if (!a.ok()) return;
    EXPECT_TRUE(a->value.rep() == b->value.rep())
        << where << ": " << a->value.ToString() << " vs "
        << b->value.ToString();
    EXPECT_EQ(a->stats.cpu_seconds, b->stats.cpu_seconds) << where;
  }
};

TEST_P(AttributeColumnsTest, ColumnEntriesEqualTextExtraction) {
  ASSERT_TRUE(stats().ready());
  for (const std::string& attr : nlq::KnownAttributes()) {
    const AttributeColumn* column = stats().Column(attr);
    ASSERT_NE(column, nullptr) << attr;
    ASSERT_EQ(column->size(), corpus().size()) << attr;
    size_t with_value = 0;
    for (const auto& doc : corpus().docs()) {
      ASSERT_EQ((*column)[doc.id], RegexExtractValue(doc, attr))
          << attr << " doc " << doc.id;
      with_value += (*column)[doc.id].has_value();
    }
    EXPECT_GT(with_value, 0u) << attr;
  }
}

TEST_P(AttributeColumnsTest, UnknownAttributeFallsBackToText) {
  EXPECT_EQ(stats().Column(kUnknownAttribute), nullptr);
  const AttributeReader reader(&corpus(), &stats(), kUnknownAttribute);
  size_t with_value = 0;
  for (const auto& doc : corpus().docs()) {
    ASSERT_EQ(reader.Read(doc.id), RegexExtractValue(doc, kUnknownAttribute))
        << "doc " << doc.id;
    with_value += reader.Read(doc.id).has_value();
  }
  EXPECT_EQ(with_value, corpus().size());
}

TEST_P(AttributeColumnsTest, ContextWithoutColumnsFallsBackToText) {
  const NumericStats unbuilt;
  for (const std::string& attr : nlq::KnownAttributes()) {
    EXPECT_EQ(unbuilt.Column(attr), nullptr) << attr;
    const AttributeReader with(&corpus(), &stats(), attr);
    for (const NumericStats* columns :
         std::vector<const NumericStats*>{&unbuilt, nullptr}) {
      const AttributeReader without(&corpus(), columns, attr);
      for (const auto& doc : corpus().docs()) {
        ASSERT_EQ(without.Read(doc.id), RegexExtractValue(doc, attr))
            << attr << " doc " << doc.id;
        ASSERT_EQ(without.Read(doc.id), with.Read(doc.id))
            << attr << " doc " << doc.id;
      }
    }
  }
}

TEST_P(AttributeColumnsTest, PreProgrammedOperatorsSameWithAndWithoutColumns) {
  const Value docs = Value::Docs(AllDocs());
  ExecContext plain = Ctx(nullptr);
  StatusOr<OpOutput> grouped =
      ExecuteOp("GroupBy", PhysicalImpl::kRuleGroupBy,
                {{"by", corpus().category_kind()}}, {docs}, plain);
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  const size_t half = corpus().size() / 2;
  const Value left = Value::Docs(DocList(docs.get<DocList>().begin(),
                                         docs.get<DocList>().begin() + half));
  const Value right = Value::Docs(DocList(
      docs.get<DocList>().begin() + half, docs.get<DocList>().end()));

  std::vector<std::string> attrs = nlq::KnownAttributes();
  attrs.push_back(kUnknownAttribute);
  for (const std::string& attr : attrs) {
    const int64_t median = MedianValue(attr);
    for (const Value& input : {docs, grouped->value}) {
      for (const char* cmp : {"gt", "le", "between"}) {
        ExpectSameOutput("Filter", PhysicalImpl::kExactFilter,
                         {{"kind", "numeric"},
                          {"attribute", attr},
                          {"cmp", cmp},
                          {"value", std::to_string(median)},
                          {"value2", std::to_string(10 * median)}},
                         {input});
      }
      for (const char* agg : {"Sum", "Median"}) {
        ExpectSameOutput(agg, PhysicalImpl::kPreAggregate,
                         {{"attribute", attr}}, {input});
      }
      ExpectSameOutput("Extract", PhysicalImpl::kRegexExtract,
                       {{"attribute", attr}}, {input});
    }
    for (const char* desc : {"true", "false"}) {
      ExpectSameOutput("TopK", PhysicalImpl::kNumericTopK,
                       {{"attribute", attr}, {"k", "10"}, {"desc", desc}},
                       {docs});
      ExpectSameOutput("OrderBy", PhysicalImpl::kNumericSort,
                       {{"attribute", attr}, {"desc", desc}}, {docs});
    }
    ExpectSameOutput("Join", PhysicalImpl::kHashJoin, {{"on", attr}},
                     {left, right});
  }
}

TEST_P(AttributeColumnsTest, OutOfRangeIdFailsLikeCorpusDoc) {
  const uint64_t past_end = corpus().size();
  EXPECT_THROW(corpus().doc(past_end), std::out_of_range);
  const OpArgs filter{{"kind", "numeric"},
                      {"attribute", "views"},
                      {"cmp", "gt"},
                      {"value", "1"}};
  for (const NumericStats* columns :
       std::vector<const NumericStats*>{&stats(), nullptr}) {
    EXPECT_THROW(AttributeReader(&corpus(), columns, "views").Read(past_end),
                 std::out_of_range);
    ExecContext ctx = Ctx(columns);
    const std::vector<Value> input = {Value::Docs({past_end})};
    EXPECT_THROW(ExecuteOp("Filter", PhysicalImpl::kExactFilter, filter,
                           input, ctx),
                 std::out_of_range);
    EXPECT_THROW(ExecuteOp("Sum", PhysicalImpl::kPreAggregate,
                           {{"attribute", "views"}}, input, ctx),
                 std::out_of_range);
    EXPECT_THROW(ExecuteOp("TopK", PhysicalImpl::kNumericTopK,
                           {{"attribute", "views"}}, input, ctx),
                 std::out_of_range);
  }
}

INSTANTIATE_TEST_SUITE_P(Profiles, AttributeColumnsTest,
                         ::testing::Values("sports", "ai", "law", "wiki"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace unify::core
