#ifndef UNIFY_LLM_TRACING_CLIENT_H_
#define UNIFY_LLM_TRACING_CLIENT_H_

#include <array>
#include <string>
#include <string_view>

#include "llm/llm_client.h"

namespace unify::llm {

/// Stable lower_snake_case name of a prompt type ("semantic_parse",
/// "eval_predicate", ...) — the suffix of the per-type LLM metrics.
const char* PromptTypeName(PromptType type);

/// The per-PromptType series names of one metric family, `base.<type>`
/// (e.g. "llm.calls.eval_predicate"), built once so a per-call write
/// allocates nothing.
class PromptTypeSeries {
 public:
  explicit PromptTypeSeries(std::string_view base);
  const std::string& operator[](PromptType type) const {
    return names_[static_cast<size_t>(type)];
  }

 private:
  std::array<std::string, kNumPromptTypes> names_;
};

/// A transparent decorator over any LlmClient that records per-PromptType
/// metrics (through the Metric* helpers, so into the calling query's sink
/// when one is installed): `llm.calls.<type>`,
/// `llm.in_tokens.<type>`, `llm.out_tokens.<type>`, `llm.seconds.<type>`,
/// `llm.dollars.<type>`, plus the `llm.call_seconds` latency histogram
/// (see docs/observability.md).
///
/// UnifySystem wraps its client in one of these during Setup(), so every
/// planning, estimation, and execution call is accounted regardless of
/// which LlmClient implementation serves it. Thread-safe iff `base` is.
class TracingLlmClient : public LlmClient {
 public:
  /// `base` must outlive the decorator.
  explicit TracingLlmClient(LlmClient* base);

  LlmResult Call(const LlmCall& call) override;

  /// Usage of the underlying client.
  LlmUsage usage() const override { return base_->usage(); }
  void ResetUsage() override { base_->ResetUsage(); }

 private:
  LlmClient* base_;
  PromptTypeSeries calls_;
  PromptTypeSeries in_tokens_;
  PromptTypeSeries out_tokens_;
  PromptTypeSeries seconds_;
  PromptTypeSeries dollars_;
};

}  // namespace unify::llm

#endif  // UNIFY_LLM_TRACING_CLIENT_H_
