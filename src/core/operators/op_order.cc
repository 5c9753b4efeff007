#include <algorithm>
#include <utility>

#include "core/operators/op_families.h"
#include "core/operators/physical_common.h"

namespace unify::core::ops {
namespace {

using internal::ArgInt;
using internal::ArgStr;
using internal::kCpuFlat;
using internal::kCpuPerDoc;
using internal::WrongInput;

/// Pairs each doc with its ranking key (LLM- or regex-extracted).
StatusOr<std::vector<std::pair<uint64_t, double>>> KeyedDocs(
    bool use_llm, const DocList& docs, const std::string& attr,
    ExecContext& ctx, OpStats& stats) {
  std::vector<std::pair<uint64_t, double>> keyed;
  if (use_llm) {
    UNIFY_ASSIGN_OR_RETURN(std::vector<double> values,
                           internal::LlmExtractValues(docs, attr, ctx, stats));
    for (size_t i = 0; i < docs.size(); ++i) {
      keyed.emplace_back(docs[i], values[i]);
    }
  } else {
    const internal::AttributeReader attribute(ctx, attr);
    keyed.reserve(docs.size());
    for (uint64_t id : docs) {
      keyed.emplace_back(id, attribute.Read(id).value_or(0.0));
    }
    stats.cpu_seconds += kCpuPerDoc * static_cast<double>(docs.size());
  }
  return keyed;
}

/// Sorts keyed docs by key (ties broken by doc id for determinism).
void SortKeyed(std::vector<std::pair<uint64_t, double>>& keyed, bool desc) {
  std::sort(keyed.begin(), keyed.end(), [&](const auto& a, const auto& b) {
    if (a.second != b.second) return desc ? a.second > b.second
                                          : a.second < b.second;
    return a.first < b.first;
  });
}

Value RankedValue(const std::string& op_name,
                  const std::vector<std::pair<uint64_t, double>>& keyed,
                  int64_t k, const ExecContext& ctx) {
  if (op_name == "OrderBy") {
    DocList sorted;
    for (const auto& [id, key] : keyed) sorted.push_back(id);
    return Value::Docs(std::move(sorted));
  }
  TextList titles;
  for (const auto& [id, key] : keyed) {
    if (static_cast<int64_t>(titles.size()) >= k) break;
    titles.push_back(ctx.corpus->doc(id).title);
  }
  return Value(Value::Rep(std::move(titles)));
}

class OrderOperator : public PhysicalOperator {
 public:
  std::vector<std::string> OpNames() const override {
    return {"OrderBy", "TopK"};
  }

  StatusOr<OpOutput> Execute(const std::string& op_name, PhysicalImpl impl,
                             const OpArgs& args,
                             const std::vector<Value>& inputs,
                             ExecContext& ctx) const override {
    if (inputs.empty() || !inputs[0].is<DocList>()) {
      return WrongInput(op_name, "flat document list");
    }
    bool desc = ArgStr(args, "desc", "true") == "true";
    bool use_llm = impl == PhysicalImpl::kLlmSort ||
                   impl == PhysicalImpl::kLlmTopK;
    OpOutput out;
    UNIFY_ASSIGN_OR_RETURN(
        auto keyed, KeyedDocs(use_llm, inputs[0].get<DocList>(),
                              ArgStr(args, "attribute"), ctx, out.stats));
    SortKeyed(keyed, desc);
    out.stats.cpu_seconds += kCpuFlat;
    out.value = RankedValue(op_name, keyed, ArgInt(args, "k", 5), ctx);
    return out;
  }

  std::vector<PhysicalImpl> Candidates(const std::string& op_name,
                                       const OpArgs& args) const override {
    if (op_name == "OrderBy") {
      return {PhysicalImpl::kNumericSort, PhysicalImpl::kLlmSort};
    }
    return {PhysicalImpl::kNumericTopK, PhysicalImpl::kLlmTopK};
  }
};

}  // namespace

const PhysicalOperator& OrderOp() {
  static const OrderOperator* op = new OrderOperator();
  return *op;
}

}  // namespace unify::core::ops
