#include "llm/tracing_client.h"

#include <string>

#include "common/metrics.h"
#include "common/telemetry_names.h"

namespace unify::llm {

const char* PromptTypeName(PromptType type) {
  switch (type) {
    case PromptType::kSemanticParse:
      return "semantic_parse";
    case PromptType::kRerankOperators:
      return "rerank_operators";
    case PromptType::kReduceQuery:
      return "reduce_query";
    case PromptType::kSimpleQuestion:
      return "simple_question";
    case PromptType::kDependencyCheck:
      return "dependency_check";
    case PromptType::kEvalPredicate:
      return "eval_predicate";
    case PromptType::kExtractValue:
      return "extract_value";
    case PromptType::kClassifyDoc:
      return "classify_doc";
    case PromptType::kSemanticAggregate:
      return "semantic_aggregate";
    case PromptType::kGenerateAnswer:
      return "generate_answer";
    case PromptType::kChooseFallbackStrategy:
      return "choose_fallback_strategy";
    case PromptType::kGenerateCode:
      return "generate_code";
    case PromptType::kReplanDecision:
      return "replan_decision";
    case PromptType::kPlanOneShot:
      return "plan_one_shot";
    case PromptType::kDecompose:
      return "decompose";
    case PromptType::kSelectAnswer:
      return "select_answer";
  }
  return "unknown";
}

PromptTypeSeries::PromptTypeSeries(std::string_view base) {
  for (size_t i = 0; i < kNumPromptTypes; ++i) {
    names_[i] = std::string(base) + "." +
                PromptTypeName(static_cast<PromptType>(i));
  }
}

TracingLlmClient::TracingLlmClient(LlmClient* base)
    : base_(base),
      calls_(telemetry::kMetricLlmCalls),
      in_tokens_(telemetry::kMetricLlmInTokens),
      out_tokens_(telemetry::kMetricLlmOutTokens),
      seconds_(telemetry::kMetricLlmSeconds),
      dollars_(telemetry::kMetricLlmDollars) {}

LlmResult TracingLlmClient::Call(const LlmCall& call) {
  LlmResult result = base_->Call(call);
  MetricAddCounter(calls_[call.type]);
  MetricAddCounter(in_tokens_[call.type],
                   static_cast<double>(result.in_tokens));
  MetricAddCounter(out_tokens_[call.type],
                   static_cast<double>(result.out_tokens));
  MetricAddCounter(seconds_[call.type], result.seconds);
  MetricAddCounter(dollars_[call.type], result.dollars);
  MetricObserve(telemetry::kMetricLlmCallSeconds, result.seconds);
  return result;
}

}  // namespace unify::llm
