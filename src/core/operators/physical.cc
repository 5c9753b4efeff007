#include "core/operators/physical.h"

#include "core/operators/custom_ops.h"
#include "core/operators/physical_operator.h"

namespace unify::core {

const char* PhysicalImplName(PhysicalImpl impl) {
  switch (impl) {
    case PhysicalImpl::kLinearScan:
      return "LinearScan";
    case PhysicalImpl::kExactFilter:
      return "ExactFilter";
    case PhysicalImpl::kKeywordFilter:
      return "KeywordFilter";
    case PhysicalImpl::kLlmFilter:
      return "LlmFilter";
    case PhysicalImpl::kIndexScanFilter:
      return "IndexScanFilter";
    case PhysicalImpl::kRuleGroupBy:
      return "RuleGroupBy";
    case PhysicalImpl::kLlmGroupBy:
      return "LlmGroupBy";
    case PhysicalImpl::kRuleClassify:
      return "RuleClassify";
    case PhysicalImpl::kLlmClassify:
      return "LlmClassify";
    case PhysicalImpl::kPreCount:
      return "PreCount";
    case PhysicalImpl::kLlmCount:
      return "LlmCount";
    case PhysicalImpl::kPreAggregate:
      return "PreAggregate";
    case PhysicalImpl::kLlmAggregate:
      return "LlmAggregate";
    case PhysicalImpl::kRegexExtract:
      return "RegexExtract";
    case PhysicalImpl::kLlmExtract:
      return "LlmExtract";
    case PhysicalImpl::kNumericSort:
      return "NumericSort";
    case PhysicalImpl::kLlmSort:
      return "LlmSort";
    case PhysicalImpl::kNumericTopK:
      return "NumericTopK";
    case PhysicalImpl::kLlmTopK:
      return "LlmTopK";
    case PhysicalImpl::kHashJoin:
      return "HashJoin";
    case PhysicalImpl::kLlmJoin:
      return "LlmJoin";
    case PhysicalImpl::kPreSetOp:
      return "PreSetOp";
    case PhysicalImpl::kPreCompare:
      return "PreCompare";
    case PhysicalImpl::kPreCompute:
      return "PreCompute";
    case PhysicalImpl::kLlmGenerate:
      return "LlmGenerate";
    case PhysicalImpl::kIdentity:
      return "Identity";
  }
  return "Unknown";
}

bool ImplUsesLlm(PhysicalImpl impl) {
  switch (impl) {
    case PhysicalImpl::kLlmFilter:
    case PhysicalImpl::kIndexScanFilter:
    case PhysicalImpl::kLlmGroupBy:
    case PhysicalImpl::kLlmClassify:
    case PhysicalImpl::kLlmCount:
    case PhysicalImpl::kLlmAggregate:
    case PhysicalImpl::kLlmExtract:
    case PhysicalImpl::kLlmSort:
    case PhysicalImpl::kLlmTopK:
    case PhysicalImpl::kLlmJoin:
    case PhysicalImpl::kLlmGenerate:
      return true;
    default:
      return false;
  }
}

bool ImplSplitsPerDoc(PhysicalImpl impl) {
  switch (impl) {
    case PhysicalImpl::kLlmFilter:
    case PhysicalImpl::kIndexScanFilter:
    case PhysicalImpl::kLlmGroupBy:
    case PhysicalImpl::kLlmClassify:
    case PhysicalImpl::kLlmExtract:
    case PhysicalImpl::kLlmSort:
    case PhysicalImpl::kLlmTopK:
      return true;
    default:
      return false;
  }
}

bool ImplSemanticCapable(PhysicalImpl impl) {
  switch (impl) {
    // Keyword matching and rule lexicons only see surface tokens; they
    // miss implicit phrasings, so they cannot guarantee semantic
    // correctness.
    case PhysicalImpl::kKeywordFilter:
    case PhysicalImpl::kRuleGroupBy:
    case PhysicalImpl::kRuleClassify:
      return false;
    default:
      return true;
  }
}

StatusOr<OpOutput> ExecuteOp(const std::string& op_name, PhysicalImpl impl,
                             const OpArgs& args,
                             const std::vector<Value>& inputs,
                             ExecContext& ctx) {
  if (ctx.corpus == nullptr) {
    return Status::FailedPrecondition("ExecContext without corpus");
  }
  // User-registered operators take precedence (Section IV-B3).
  if (ctx.custom_ops != nullptr) {
    if (const auto* handler = ctx.custom_ops->Find(op_name);
        handler != nullptr) {
      return (*handler)(args, inputs, ctx);
    }
  }
  if (ImplUsesLlm(impl) && ctx.llm == nullptr) {
    return Status::FailedPrecondition("LLM implementation without client");
  }
  const PhysicalOperator* op = FindPhysicalOperator(op_name);
  if (op == nullptr) {
    return Status::Unimplemented("no physical implementation for " + op_name);
  }
  return op->Execute(op_name, impl, args, inputs, ctx);
}

std::vector<PhysicalImpl> CandidateImpls(const std::string& op_name,
                                         const OpArgs& args) {
  const PhysicalOperator* op = FindPhysicalOperator(op_name);
  if (op == nullptr) return {};
  return op->Candidates(op_name, args);
}

}  // namespace unify::core
