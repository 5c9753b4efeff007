#include "core/operators/physical_common.h"

#include <algorithm>
#include <unordered_map>

#include "common/stats.h"
#include "common/string_util.h"
#include "core/operators/physical_operator.h"
#include "llm/tracing_client.h"
#include "text/field_extractor.h"
#include "text/tokenizer.h"

namespace unify::core::internal {

Status WrongInput(const std::string& op, const char* expect) {
  return Status::InvalidArgument(op + ": expected " + expect + " input");
}

int64_t ArgInt(const OpArgs& args, const char* key, int64_t dflt) {
  auto it = args.find(key);
  if (it == args.end()) return dflt;
  return ParseInt64(it->second).value_or(dflt);
}

std::string ArgStr(const OpArgs& args, const char* key,
                   const std::string& dflt) {
  auto it = args.find(key);
  return it == args.end() ? dflt : it->second;
}

StatusOr<Value> BroadcastDocs(
    const std::string& op, const Value& input,
    const std::function<StatusOr<DocList>(const DocList&)>& fn) {
  if (input.is<DocList>()) {
    UNIFY_ASSIGN_OR_RETURN(DocList out, fn(input.get<DocList>()));
    return Value(Value::Rep(std::move(out)));
  }
  if (input.is<GroupedDocs>()) {
    GroupedDocs out;
    for (const auto& [label, docs] : input.get<GroupedDocs>().groups) {
      UNIFY_ASSIGN_OR_RETURN(DocList filtered, fn(docs));
      out.groups.emplace_back(label, std::move(filtered));
    }
    return Value(Value::Rep(std::move(out)));
  }
  return WrongInput(op, "documents");
}

std::vector<DocList> BatchDocs(const DocList& docs, const ExecContext& ctx) {
  std::vector<DocList> batches;
  size_t batch_size = std::max(1, ctx.llm_batch_size);
  for (size_t i = 0; i < docs.size(); i += batch_size) {
    DocList batch(docs.begin() + i,
                  docs.begin() + std::min(docs.size(), i + batch_size));
    batches.push_back(std::move(batch));
  }
  return batches;
}

AttributeReader::AttributeReader(const corpus::Corpus* corpus,
                                 const NumericStats* stats,
                                 std::string attribute)
    : corpus_(corpus),
      attribute_(std::move(attribute)),
      column_(stats == nullptr ? nullptr : stats->Column(attribute_)) {}

NumericComparison NumericComparison::Parse(const OpArgs& args) {
  NumericComparison c;
  c.value = ArgInt(args, "value", 0);
  c.value2 = ArgInt(args, "value2", 0);
  const std::string cmp = ArgStr(args, "cmp", "gt");
  if (cmp == "gt") c.cmp = Cmp::kGt;
  else if (cmp == "ge") c.cmp = Cmp::kGe;
  else if (cmp == "lt") c.cmp = Cmp::kLt;
  else if (cmp == "le") c.cmp = Cmp::kLe;
  else if (cmp == "eq") c.cmp = Cmp::kEq;
  else if (cmp == "between") c.cmp = Cmp::kBetween;
  else c.cmp = Cmp::kUnknown;
  return c;
}

bool NumericComparison::Holds(int64_t v) const {
  switch (cmp) {
    case Cmp::kGt:
      return v > value;
    case Cmp::kGe:
      return v >= value;
    case Cmp::kLt:
      return v < value;
    case Cmp::kLe:
      return v <= value;
    case Cmp::kEq:
      return v == value;
    case Cmp::kBetween:
      return v >= value && v <= value2;
    case Cmp::kUnknown:
      break;
  }
  return false;
}

SurfaceCondition::SurfaceCondition(const corpus::Corpus* corpus,
                                   const NumericStats* stats,
                                   const OpArgs& args)
    : corpus_(corpus) {
  if (ArgStr(args, "kind") == "numeric") {
    if (auto attr = args.find("attribute"); attr != args.end()) {
      attribute_.emplace(corpus, stats, attr->second);
    }
    comparison_ = NumericComparison::Parse(args);
    return;
  }
  // Semantic phrase via surface keywords.
  keywords_.emplace(ArgStr(args, "phrase", ArgStr(args, "condition")));
}

bool SurfaceCondition::Matches(uint64_t id) const {
  if (keywords_.has_value()) {
    return keywords_->MatchesAny(corpus_->doc(id).text);
  }
  if (!attribute_.has_value()) return false;
  std::optional<double> v = attribute_->Read(id);
  return v.has_value() && comparison_.Holds(static_cast<int64_t>(*v));
}

namespace {

/// Issues `call` once per batch of `docs`, with the batch's ids as items;
/// appends one item per document to `items`. The call is copied once and
/// only its items are refilled per batch.
Status CallPerBatch(const llm::LlmCall& call, const DocList& docs,
                    ExecContext& ctx, OpStats& stats,
                    std::vector<std::string>& items) {
  llm::LlmCall batch_call = call;
  for (const auto& batch : BatchDocs(docs, ctx)) {
    batch_call.items.clear();
    for (uint64_t id : batch) batch_call.items.push_back(std::to_string(id));
    llm::LlmResult result = ctx.llm->Call(batch_call);
    if (!result.status.ok()) return result.status;
    if (result.items.size() != batch.size()) {
      return Status::Internal(std::string("LLM ") +
                              llm::PromptTypeName(call.type) +
                              " returned wrong item count");
    }
    stats.llm_seconds += result.seconds;
    stats.llm_dollars += result.dollars;
    stats.llm_calls += 1;
    for (auto& item : result.items) items.push_back(std::move(item));
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::vector<std::string>> LlmPerDoc(const llm::LlmCall& call,
                                             const DocList& docs,
                                             ExecContext& ctx,
                                             OpStats& stats) {
  std::vector<std::string> items;
  items.reserve(docs.size());
  std::vector<DocList> chunks;
  if (ctx.morsels != nullptr) {
    chunks = PartitionDocs(docs, ctx.llm_batch_size,
                           ctx.morsels->max_morsels());
  }
  if (chunks.size() <= 1) {
    UNIFY_RETURN_IF_ERROR(CallPerBatch(call, docs, ctx, stats, items));
    return items;
  }
  std::vector<std::vector<std::string>> chunk_items(chunks.size());
  auto run = [&](size_t i) -> StatusOr<OpStats> {
    OpStats chunk_stats;
    UNIFY_RETURN_IF_ERROR(
        CallPerBatch(call, chunks[i], ctx, chunk_stats, chunk_items[i]));
    return chunk_stats;
  };
  auto merge = [&] {
    for (auto& chunk : chunk_items) {
      for (auto& item : chunk) items.push_back(std::move(item));
    }
  };
  UNIFY_ASSIGN_OR_RETURN(std::vector<OpStats> chunk_stats,
                         ctx.morsels->Run(chunks, run, merge));
  for (const OpStats& s : chunk_stats) stats.Add(s);
  return items;
}

StatusOr<DocList> LlmFilterDocs(const DocList& docs, const OpArgs& args,
                                ExecContext& ctx, OpStats& stats) {
  llm::LlmCall call;
  call.type = llm::PromptType::kEvalPredicate;
  call.tier = llm::ModelTier::kWorker;
  for (const char* key :
       {"kind", "phrase", "attribute", "cmp", "value", "value2",
        "condition"}) {
    auto it = args.find(key);
    if (it != args.end()) call.fields[key] = it->second;
  }
  UNIFY_ASSIGN_OR_RETURN(std::vector<std::string> verdicts,
                         LlmPerDoc(call, docs, ctx, stats));
  DocList kept;
  for (size_t i = 0; i < docs.size(); ++i) {
    if (verdicts[i] == "yes") kept.push_back(docs[i]);
  }
  return kept;
}

std::string RuleClassify(const corpus::Document& doc,
                         const corpus::DatasetProfile& profile) {
  // Tokenize the document once; keyword lookups are then O(1) per keyword
  // instead of re-scanning the text per (category, keyword) pair.
  std::unordered_map<std::string, size_t> token_counts;
  for (const auto& tok : text::StemmedContentTokens(doc.text)) {
    ++token_counts[tok];
  }
  auto count = [&](const std::string& word) -> size_t {
    auto it = token_counts.find(text::Stem(word));
    return it == token_counts.end() ? 0 : it->second;
  };
  size_t best_hits = 0;
  std::string best;
  for (const auto& cat : profile.categories) {
    size_t hits = 0;
    for (const auto& kw : cat.keywords) hits += count(kw);
    // Category-name tokens count too ("machine learning" in text).
    bool name_present = true;
    for (const auto& tok : text::StemmedContentTokens(cat.name)) {
      if (token_counts.count(tok) == 0) name_present = false;
    }
    if (name_present) hits += 1;
    if (hits > best_hits) {
      best_hits = hits;
      best = cat.name;
    }
  }
  return best;
}

StatusOr<std::vector<std::string>> LlmClassifyDocs(const DocList& docs,
                                                   const std::string& by,
                                                   ExecContext& ctx,
                                                   OpStats& stats) {
  llm::LlmCall call;
  call.type = llm::PromptType::kClassifyDoc;
  call.tier = llm::ModelTier::kWorker;
  call.fields["by"] = by;
  return LlmPerDoc(call, docs, ctx, stats);
}

std::optional<double> RegexExtractValue(const corpus::Document& doc,
                                        const std::string& attribute) {
  auto v = text::FieldExtractor::ExtractInt(doc.text, attribute);
  if (!v.has_value()) return std::nullopt;
  return static_cast<double>(*v);
}

StatusOr<std::vector<double>> LlmExtractValues(const DocList& docs,
                                               const std::string& attribute,
                                               ExecContext& ctx,
                                               OpStats& stats) {
  llm::LlmCall call;
  call.type = llm::PromptType::kExtractValue;
  call.tier = llm::ModelTier::kWorker;
  call.fields["attribute"] = attribute;
  UNIFY_ASSIGN_OR_RETURN(std::vector<std::string> items,
                         LlmPerDoc(call, docs, ctx, stats));
  std::vector<double> values;
  values.reserve(items.size());
  for (const auto& item : items) {
    values.push_back(ParseDouble(item).value_or(0.0));
  }
  return values;
}

StatusOr<double> AggregateValues(const std::vector<double>& values,
                                 const std::string& op_name,
                                 const OpArgs& args) {
  if (values.empty()) {
    return Status::FailedPrecondition("aggregate over empty input");
  }
  SampleStats stats;
  stats.AddAll(values);
  if (op_name == "Sum") return stats.sum();
  if (op_name == "Average") return stats.Mean();
  if (op_name == "Min") return stats.Min();
  if (op_name == "Max") return stats.Max();
  if (op_name == "Median") return stats.Median();
  if (op_name == "Percentile") {
    int p = 90;
    if (auto it = args.find("p"); it != args.end()) {
      p = static_cast<int>(ParseInt64(it->second).value_or(90));
    }
    return stats.Quantile(p / 100.0);
  }
  return Status::InvalidArgument("unknown aggregate: " + op_name);
}

}  // namespace unify::core::internal
