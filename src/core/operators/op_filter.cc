#include <algorithm>
#include <cstdint>

#include "core/operators/op_families.h"
#include "core/operators/physical_common.h"
#include "core/physical/phrase_probes.h"

namespace unify::core::ops {
namespace {

using internal::ArgInt;
using internal::ArgStr;
using internal::kCpuFlat;
using internal::kCpuPerDoc;
using internal::WrongInput;

/// Runs the ANN probe for IndexScanFilter: candidates by embedding
/// distance, restricted to the operator's input scope, id-sorted. The
/// returned list is what the LLM then verifies; `stats` gets the probe's
/// CPU cost.
StatusOr<DocList> IndexScanCandidates(const DocList& docs, const OpArgs& args,
                                      ExecContext& ctx, OpStats& stats) {
  if (ctx.phrase_probes == nullptr) {
    return Status::FailedPrecondition("IndexScanFilter without index");
  }
  size_t candidates = static_cast<size_t>(
      ArgInt(args, "index_candidates",
             static_cast<int64_t>(ctx.corpus->size() / 4)));
  candidates = std::min(candidates, ctx.corpus->size());
  const std::string phrase = ArgStr(args, "phrase", ArgStr(args, "condition"));
  const PhraseProbes::Ids hits =
      ctx.phrase_probes->Nearest(phrase, candidates);
  stats.cpu_seconds += kCpuFlat + 2e-6 * static_cast<double>(candidates);
  // One mark per corpus id: 1 = in the input scope, 2 = also a hit. Walking
  // the marks in id order yields the intersection sorted and deduplicated.
  std::vector<uint8_t> marks(ctx.corpus->size(), 0);
  for (uint64_t id : docs) {
    if (id < marks.size()) marks[id] = 1;
  }
  for (uint32_t id : *hits) {
    if (id < marks.size() && marks[id] != 0) marks[id] = 2;
  }
  DocList in_scope;
  for (uint64_t id = 0; id < marks.size(); ++id) {
    if (marks[id] == 2) in_scope.push_back(id);
  }
  return in_scope;
}

class FilterOperator : public PhysicalOperator {
 public:
  std::vector<std::string> OpNames() const override { return {"Filter"}; }

  StatusOr<OpOutput> Execute(const std::string& op_name, PhysicalImpl impl,
                             const OpArgs& args,
                             const std::vector<Value>& inputs,
                             ExecContext& ctx) const override {
    if (inputs.empty()) return WrongInput("Filter", "one");
    OpOutput out;
    auto llm = [&](const DocList& docs) -> StatusOr<DocList> {
      return internal::LlmFilterDocs(docs, args, ctx, out.stats);
    };

    switch (impl) {
      case PhysicalImpl::kExactFilter:
      case PhysicalImpl::kKeywordFilter: {
        const internal::SurfaceCondition condition(ctx, args);
        auto surface = [&](const DocList& docs) -> StatusOr<DocList> {
          DocList kept;
          for (uint64_t id : docs) {
            if (condition.Matches(id)) kept.push_back(id);
          }
          out.stats.cpu_seconds +=
              kCpuPerDoc * static_cast<double>(docs.size());
          return kept;
        };
        UNIFY_ASSIGN_OR_RETURN(out.value,
                               internal::BroadcastDocs("Filter", inputs[0],
                                                       surface));
        return out;
      }
      case PhysicalImpl::kLlmFilter: {
        UNIFY_ASSIGN_OR_RETURN(
            out.value, internal::BroadcastDocs("Filter", inputs[0], llm));
        return out;
      }
      case PhysicalImpl::kIndexScanFilter: {
        if (!inputs[0].is<DocList>()) {
          return WrongInput("IndexScanFilter", "flat document list");
        }
        UNIFY_ASSIGN_OR_RETURN(
            DocList in_scope,
            IndexScanCandidates(inputs[0].get<DocList>(), args, ctx,
                                out.stats));
        UNIFY_ASSIGN_OR_RETURN(DocList kept, llm(in_scope));
        out.value = Value::Docs(std::move(kept));
        return out;
      }
      default:
        return Status::InvalidArgument("bad Filter impl");
    }
  }

  std::vector<PhysicalImpl> Candidates(const std::string& op_name,
                                       const OpArgs& args) const override {
    if (ArgStr(args, "kind") == "numeric") {
      return {PhysicalImpl::kExactFilter, PhysicalImpl::kLlmFilter};
    }
    return {PhysicalImpl::kLlmFilter, PhysicalImpl::kIndexScanFilter,
            PhysicalImpl::kKeywordFilter};
  }
};

}  // namespace

const PhysicalOperator& FilterOp() {
  static const FilterOperator* op = new FilterOperator();
  return *op;
}

}  // namespace unify::core::ops
