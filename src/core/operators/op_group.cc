#include <map>

#include "core/operators/op_families.h"
#include "core/operators/physical_common.h"

namespace unify::core::ops {
namespace {

using internal::ArgStr;
using internal::kCpuPerDoc;
using internal::WrongInput;

/// Groups `docs` by their per-document `labels` (parallel vectors);
/// unclassifiable documents (empty label) drop out. Labels come out
/// sorted, matching the std::map iteration of the original monolith.
GroupedDocs GroupByLabels(const DocList& docs,
                          const std::vector<std::string>& labels) {
  std::map<std::string, DocList> grouped;
  for (size_t i = 0; i < docs.size(); ++i) {
    if (labels[i].empty()) continue;
    grouped[labels[i]].push_back(docs[i]);
  }
  GroupedDocs result;
  for (auto& [label, members] : grouped) {
    result.groups.emplace_back(label, std::move(members));
  }
  return result;
}

class GroupOperator : public PhysicalOperator {
 public:
  std::vector<std::string> OpNames() const override {
    return {"GroupBy", "Classify"};
  }

  StatusOr<OpOutput> Execute(const std::string& op_name, PhysicalImpl impl,
                             const OpArgs& args,
                             const std::vector<Value>& inputs,
                             ExecContext& ctx) const override {
    if (inputs.empty() || !inputs[0].is<DocList>()) {
      return WrongInput(op_name, "flat document list");
    }
    const DocList& docs = inputs[0].get<DocList>();
    OpOutput out;
    std::vector<std::string> labels;
    if (impl == PhysicalImpl::kRuleGroupBy ||
        impl == PhysicalImpl::kRuleClassify) {
      labels.reserve(docs.size());
      for (uint64_t id : docs) {
        labels.push_back(internal::RuleClassify(ctx.corpus->doc(id),
                                                ctx.corpus->profile()));
      }
      out.stats.cpu_seconds +=
          10 * kCpuPerDoc * static_cast<double>(docs.size());
    } else if (impl == PhysicalImpl::kLlmGroupBy ||
               impl == PhysicalImpl::kLlmClassify) {
      UNIFY_ASSIGN_OR_RETURN(
          labels, internal::LlmClassifyDocs(docs, ArgStr(args, "by"), ctx,
                                            out.stats));
    } else {
      return Status::InvalidArgument("bad " + op_name + " impl");
    }
    if (op_name == "GroupBy") {
      out.value = Value(Value::Rep(GroupByLabels(docs, labels)));
    } else {
      TextList as_text(labels.begin(), labels.end());
      out.value = Value(Value::Rep(std::move(as_text)));
    }
    return out;
  }

  std::vector<PhysicalImpl> Candidates(const std::string& op_name,
                                       const OpArgs& args) const override {
    if (op_name == "GroupBy") {
      return {PhysicalImpl::kLlmGroupBy, PhysicalImpl::kRuleGroupBy};
    }
    return {PhysicalImpl::kLlmClassify, PhysicalImpl::kRuleClassify};
  }
};

}  // namespace

const PhysicalOperator& GroupOp() {
  static const GroupOperator* op = new GroupOperator();
  return *op;
}

}  // namespace unify::core::ops
