#ifndef UNIFY_CORE_OPERATORS_PHYSICAL_COMMON_H_
#define UNIFY_CORE_OPERATORS_PHYSICAL_COMMON_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/operators/physical.h"
#include "core/physical/numeric_stats.h"
#include "text/keyword_matcher.h"

namespace unify::core::internal {

/// Calibrated virtual CPU costs of pre-programmed work (seconds). These
/// are deterministic model constants, not wall-clock measurements, so
/// experiments reproduce exactly.
inline constexpr double kCpuPerDoc = 5e-6;
inline constexpr double kCpuPerValue = 5e-8;
inline constexpr double kCpuFlat = 1e-4;

/// Pre-programmed attribute extraction from surface text. nullopt when the
/// pattern is absent.
std::optional<double> RegexExtractValue(const corpus::Document& doc,
                                        const std::string& attribute);

/// Reads one numeric attribute per document. A known attribute comes from
/// the column NumericStats extracted at Setup; any other attribute, and
/// every attribute when `stats` is null, is extracted from the text with
/// RegexExtractValue. Either way Read(id) returns the same value, and an
/// id outside the corpus throws std::out_of_range like Corpus::doc.
class AttributeReader {
 public:
  AttributeReader(const corpus::Corpus* corpus, const NumericStats* stats,
                  std::string attribute);
  AttributeReader(const ExecContext& ctx, std::string attribute)
      : AttributeReader(ctx.corpus, ctx.numeric_stats, std::move(attribute)) {}

  std::optional<double> Read(uint64_t id) const {
    if (column_ != nullptr) return column_->at(id);
    return RegexExtractValue(corpus_->doc(id), attribute_);
  }

 private:
  const corpus::Corpus* corpus_;
  std::string attribute_;
  const AttributeColumn* column_;
};

/// The comparison of a numeric condition (args cmp/value[/value2]). A
/// missing or malformed number reads as 0 and a missing cmp as "gt".
struct NumericComparison {
  enum class Cmp { kGt, kGe, kLt, kLe, kEq, kBetween, kUnknown };
  Cmp cmp = Cmp::kGt;
  int64_t value = 0;
  int64_t value2 = 0;

  static NumericComparison Parse(const OpArgs& args);
  /// False for an unknown cmp.
  bool Holds(int64_t v) const;
};

/// A plan-node condition, parsed once per operator call and evaluated per
/// document on surface signals only: a numeric condition compares the
/// attribute's value (via AttributeReader), any other condition matches
/// its phrase's stemmed keywords against the document text.
class SurfaceCondition {
 public:
  SurfaceCondition(const corpus::Corpus* corpus, const NumericStats* stats,
                   const OpArgs& args);
  SurfaceCondition(const ExecContext& ctx, const OpArgs& args)
      : SurfaceCondition(ctx.corpus, ctx.numeric_stats, args) {}

  bool Matches(uint64_t id) const;

 private:
  const corpus::Corpus* corpus_;
  /// Set for a numeric condition that names an attribute.
  std::optional<AttributeReader> attribute_;
  NumericComparison comparison_;
  /// Set for a non-numeric condition.
  std::optional<text::KeywordMatcher> keywords_;
};

/// The one loop that issues per-document batched LLM calls: `call` (type,
/// tier and fields; no items) goes out once per batch of
/// `ctx.llm_batch_size` documents with the batch's ids as items. Returns
/// one item per document, in order, and accumulates cost into `stats`.
/// With `ctx.morsels` set, the batches split into PartitionDocs chunks
/// that the runner executes as morsels; chunk edges are batch edges, so
/// the calls issued and the items returned are the same either way.
StatusOr<std::vector<std::string>> LlmPerDoc(const llm::LlmCall& call,
                                             const DocList& docs,
                                             ExecContext& ctx,
                                             OpStats& stats);

/// LLM-evaluates the condition on `docs` (LlmPerDoc); returns the kept
/// ids and accumulates cost into `stats`.
StatusOr<DocList> LlmFilterDocs(const DocList& docs, const OpArgs& args,
                                ExecContext& ctx, OpStats& stats);

/// Rule-based classification: the category whose keyword lexicon hits the
/// document text most; empty string when nothing matches.
std::string RuleClassify(const corpus::Document& doc,
                         const corpus::DatasetProfile& profile);

/// LLM classification of each document (LlmPerDoc).
StatusOr<std::vector<std::string>> LlmClassifyDocs(const DocList& docs,
                                                   const std::string& by,
                                                   ExecContext& ctx,
                                                   OpStats& stats);

/// LLM attribute extraction (LlmPerDoc); one value per doc.
StatusOr<std::vector<double>> LlmExtractValues(const DocList& docs,
                                               const std::string& attribute,
                                               ExecContext& ctx,
                                               OpStats& stats);

/// Aggregates `values` with the function named by the logical operator
/// ("Sum", "Average", "Min", "Max", "Median", "Percentile" with arg p).
StatusOr<double> AggregateValues(const std::vector<double>& values,
                                 const std::string& op_name,
                                 const OpArgs& args);

/// Splits `docs` into batches of `ctx.llm_batch_size`.
std::vector<DocList> BatchDocs(const DocList& docs, const ExecContext& ctx);

/// Uniform "wrong input shape" error for operator implementations.
Status WrongInput(const std::string& op, const char* expect);

/// Argument accessors over the planner-extracted OpArgs map.
int64_t ArgInt(const OpArgs& args, const char* key, int64_t dflt);
std::string ArgStr(const OpArgs& args, const char* key,
                   const std::string& dflt = "");

/// Applies `fn : DocList -> StatusOr<DocList>` to a doc-shaped value,
/// broadcasting over groups.
StatusOr<Value> BroadcastDocs(
    const std::string& op, const Value& input,
    const std::function<StatusOr<DocList>(const DocList&)>& fn);

}  // namespace unify::core::internal

#endif  // UNIFY_CORE_OPERATORS_PHYSICAL_COMMON_H_
