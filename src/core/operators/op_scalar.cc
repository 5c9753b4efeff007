#include <map>
#include <set>

#include "common/string_util.h"
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

StatusOr<OpOutput> ExecCompare(const OpArgs& args,
                               const std::vector<Value>& inputs) {
  if (inputs.size() < 2 || !inputs[0].is<double>() ||
      !inputs[1].is<double>()) {
    return WrongInput("Compare", "two numbers");
  }
  OpOutput out;
  out.stats.cpu_seconds += kCpuFlat;
  bool want_max = ArgStr(args, "direction", "max") != "min";
  double a = inputs[0].get<double>();
  double b = inputs[1].get<double>();
  out.value = Value::Text((a >= b) == want_max ? "A" : "B");
  return out;
}

StatusOr<OpOutput> ExecCompute(const OpArgs& args,
                               const std::vector<Value>& inputs) {
  if (inputs.size() < 2) return WrongInput("Compute", "two");
  OpOutput out;
  out.stats.cpu_seconds += kCpuFlat;
  // Scalar ratio.
  if (inputs[0].is<double>() && inputs[1].is<double>()) {
    double den = inputs[1].get<double>();
    if (den == 0) {
      return Status::FailedPrecondition("Compute: division by zero");
    }
    out.value = Value::Number(inputs[0].get<double>() / den);
    return out;
  }
  // Per-group ratio: match labels; groups with zero denominators drop.
  if (inputs[0].is<GroupedNumbers>() && inputs[1].is<GroupedNumbers>()) {
    std::map<std::string, double> den;
    for (const auto& [label, v] : inputs[1].get<GroupedNumbers>().values) {
      den[label] = v;
    }
    GroupedNumbers result;
    for (const auto& [label, v] : inputs[0].get<GroupedNumbers>().values) {
      auto it = den.find(label);
      if (it == den.end() || it->second == 0) continue;
      result.values.emplace_back(label, v / it->second);
    }
    if (result.values.empty()) {
      return Status::FailedPrecondition("Compute: no valid groups");
    }
    out.value = Value(Value::Rep(std::move(result)));
    return out;
  }
  return WrongInput("Compute", "numbers or grouped numbers");
}

Value AnswerValue(const llm::LlmResult& result) {
  const std::string kind = result.Get("kind");
  const std::string answer = result.Get("answer");
  if (kind == "number") {
    return Value::Number(ParseDouble(answer).value_or(0));
  }
  if (kind == "list") {
    TextList items = StrSplit(answer, ';');
    return Value(Value::Rep(std::move(items)));
  }
  if (kind == "text") return Value::Text(answer);
  return Value();
}

StatusOr<OpOutput> ExecGenerate(const OpArgs& args,
                                const std::vector<Value>& inputs,
                                ExecContext& ctx) {
  OpOutput out;
  llm::LlmCall call;
  // Fallback strategy 2 (Section V-D): the model writes a program for the
  // remaining task; the program then scans the corpus (CPU cost).
  if (ArgStr(args, "strategy") == "code") {
    call.type = llm::PromptType::kGenerateCode;
    call.tier = llm::ModelTier::kPlanner;
    call.fields["query"] = ArgStr(args, "query");
    llm::LlmResult result = ctx.llm->Call(call);
    if (!result.status.ok()) return result.status;
    out.stats.llm_seconds += result.seconds;
    out.stats.llm_dollars += result.dollars;
    out.stats.llm_calls += 1;
    out.stats.cpu_seconds +=
        kCpuFlat + 20 * kCpuPerDoc * static_cast<double>(ctx.corpus->size());
    out.value = AnswerValue(result);
    return out;
  }
  call.type = llm::PromptType::kGenerateAnswer;
  call.tier = llm::ModelTier::kPlanner;
  call.fields["query"] = ArgStr(args, "query");
  if (!inputs.empty() && inputs[0].is<DocList>()) {
    const DocList& docs = inputs[0].get<DocList>();
    int64_t retrieve_k = ArgInt(args, "retrieve_k", 0);
    if (retrieve_k > 0 && ctx.phrase_probes != nullptr &&
        docs.size() > static_cast<size_t>(retrieve_k)) {
      // RAG-style fallback: only the documents nearest to the query fit
      // into the generation context.
      std::set<uint64_t> scope(docs.begin(), docs.end());
      const PhraseProbes::Ids hits = ctx.phrase_probes->Nearest(
          call.fields["query"], static_cast<size_t>(retrieve_k) * 2);
      for (uint32_t id : *hits) {
        if (static_cast<int64_t>(call.items.size()) >= retrieve_k) break;
        if (scope.count(id) > 0) call.items.push_back(std::to_string(id));
      }
      out.stats.cpu_seconds +=
          kCpuFlat + 2e-6 * static_cast<double>(docs.size());
    } else {
      for (uint64_t id : docs) {
        call.items.push_back(std::to_string(id));
      }
    }
  }
  llm::LlmResult result = ctx.llm->Call(call);
  if (!result.status.ok()) return result.status;
  out.stats.llm_seconds += result.seconds;
  out.stats.llm_dollars += result.dollars;
  out.stats.llm_calls += 1;
  out.value = AnswerValue(result);
  return out;
}

/// Scalar math, comparisons, and the Generate fallbacks — all single-shot
/// work with zero LLM partitions (Generate is one planner-tier call).
class ScalarOperator : public PhysicalOperator {
 public:
  std::vector<std::string> OpNames() const override {
    return {"Compare", "Compute", "Generate"};
  }

  StatusOr<OpOutput> Execute(const std::string& op_name, PhysicalImpl impl,
                             const OpArgs& args,
                             const std::vector<Value>& inputs,
                             ExecContext& ctx) const override {
    if (op_name == "Compare") return ExecCompare(args, inputs);
    if (op_name == "Compute") return ExecCompute(args, inputs);
    return ExecGenerate(args, inputs, ctx);
  }

  std::vector<PhysicalImpl> Candidates(const std::string& op_name,
                                       const OpArgs& args) const override {
    if (op_name == "Compare") return {PhysicalImpl::kPreCompare};
    if (op_name == "Compute") return {PhysicalImpl::kPreCompute};
    return {PhysicalImpl::kLlmGenerate};
  }
};

}  // namespace

const PhysicalOperator& ScalarOp() {
  static const ScalarOperator* op = new ScalarOperator();
  return *op;
}

}  // namespace unify::core::ops
