#ifndef UNIFY_LLM_LLM_CLIENT_H_
#define UNIFY_LLM_LLM_CLIENT_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace unify::llm {

/// The prompt families Unify issues. Each corresponds to one of the
/// paper's prompt templates (quoted in Sections III and V).
enum class PromptType {
  /// "Please parse the following question to extract the entities,
  /// conditions, ..." → logical representation of the query (V-A).
  kSemanticParse,
  /// "Please check whether the operator can solve any part of the query"
  /// → fully/partially/not solving per candidate (V-A).
  kRerankOperators,
  /// "Given the query [Query] and a matched logical representation [LR] of
  /// operator [OP] ... rewrite the query by reducing the matched segment"
  /// (V-B). Also returns the operator's extracted placeholder inputs
  /// (III-C, "Determining Operator Input").
  kReduceQuery,
  /// "Check whether the initial query has been fully resolved ..." (V-B).
  kSimpleQuestion,
  /// "Check whether the output of Oi is an input for conducting O*" (V-C).
  kDependencyCheck,
  /// Semantic filter: does each document satisfy the NL condition?
  kEvalPredicate,
  /// Semantic extraction: the numeric attribute value of each document.
  kExtractValue,
  /// Semantic classification/grouping: each document's category.
  kClassifyDoc,
  /// Semantic aggregation over a document list (SemanticCount/Sum/...,
  /// Table II): the model reads each document and accumulates.
  kSemanticAggregate,
  /// Free-form answer from provided context (RAG / Generate operator).
  kGenerateAnswer,
  /// Error-handling strategy choice (Section V-D): fall back to RAG-style
  /// generation or to LLM code generation for the unresolved remainder.
  kChooseFallbackStrategy,
  /// "Instruct the LLM to generate Python code for solving the remaining
  /// task" (fallback strategy 2, Section V-D). The generated program runs
  /// over the corpus; the completion reports its output.
  kGenerateCode,
  /// Mid-query re-optimization check (docs/replanning.md): given the
  /// trigger node's estimated vs observed cardinality, sanity-check that
  /// re-lowering the un-executed suffix is worthwhile. Planner tier,
  /// charged to the issuing query's clock and dollars.
  kReplanDecision,
  /// One-shot full plan generation (LLMPlan baseline).
  kPlanOneShot,
  /// Query decomposition into sub-queries (RecurRAG baseline).
  kDecompose,
  /// Pick the best of several candidate answers (Exhaust baseline).
  kSelectAnswer,
};

/// Number of PromptType values (kSelectAnswer stays last).
inline constexpr size_t kNumPromptTypes =
    static_cast<size_t>(PromptType::kSelectAnswer) + 1;

/// Which deployed model serves the call. The paper uses Llama-3.1-70B for
/// planning and Llama-3.1-8B for operator execution (Section VII-A).
enum class ModelTier {
  kPlanner,  ///< large, slow, strong reasoning
  kWorker,   ///< small, fast, per-document work
};

/// One LLM invocation. `fields` carries named prompt slots; `items` carries
/// per-element payloads (document ids for batched per-document operators).
struct LlmCall {
  PromptType type = PromptType::kSemanticParse;
  ModelTier tier = ModelTier::kWorker;
  std::map<std::string, std::string> fields;
  std::vector<std::string> items;

  /// Retry ordinal of this issuance: 0 for the first attempt, counting up
  /// for retries/hedges of the same logical call. Content-deterministic
  /// clients (SimulatedLlm) must IGNORE it — the same prompt always gets
  /// the same completion — while fault injectors key their coins on it so
  /// that a retried call can draw a fresh fate. It is excluded from cache
  /// keys for the same reason.
  int attempt = 0;

  /// Convenience: field lookup with default.
  std::string Get(const std::string& key, const std::string& dflt = "") const {
    auto it = fields.find(key);
    return it == fields.end() ? dflt : it->second;
  }
};

/// Stable serialization of everything that identifies a logical call
/// (type, tier, fields, items; `attempt` excluded), so a coin keyed on it
/// is the same whichever thread runs the call: the fault injector's fate
/// coins and the resilience decorator's backoff jitter. The separators
/// are not escaped, so two calls can alias; changing the bytes would move
/// every fault coin and jitter draw.
inline std::string CallKey(const LlmCall& call) {
  std::string key = std::to_string(static_cast<int>(call.type));
  key += '\x1d';
  key += std::to_string(static_cast<int>(call.tier));
  key += '\x1d';
  for (const auto& [k, v] : call.fields) {
    key += k;
    key += '\x1f';
    key += v;
    key += '\x1e';
  }
  key += '\x1d';
  for (const auto& item : call.items) {
    key += item;
    key += '\x1e';
  }
  return key;
}

/// The completion: named outputs, per-item outputs, and accounting. The
/// virtual duration in `seconds` is what the execution module schedules on
/// the simulated LLM servers.
struct LlmResult {
  Status status = Status::OK();
  std::map<std::string, std::string> fields;
  std::vector<std::string> items;
  int64_t in_tokens = 0;
  int64_t out_tokens = 0;
  double seconds = 0;
  double dollars = 0;

  /// Convenience: field lookup with default.
  std::string Get(const std::string& key, const std::string& dflt = "") const {
    auto it = fields.find(key);
    return it == fields.end() ? dflt : it->second;
  }
};

/// Cumulative usage counters (thread-safe snapshot).
struct LlmUsage {
  int64_t calls = 0;
  int64_t in_tokens = 0;
  int64_t out_tokens = 0;
  double seconds = 0;
  double dollars = 0;
};

/// True when `s` names a transient LLM-side failure that a retry may cure:
///   kDeadlineExceeded  — the provider timed the call out (straggler);
///   kResourceExhausted — rate limit / circuit breaker rejection;
///   kAborted           — malformed or truncated completion.
/// Everything else (kInternal, kInvalidArgument, ...) is a contract error
/// that retrying the identical call cannot fix.
inline bool IsTransientLlmFailure(const Status& s) {
  switch (s.code()) {
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kResourceExhausted:
    case StatusCode::kAborted:
      return true;
    default:
      return false;
  }
}

/// Abstract LLM service. Implementations must be thread-safe: the
/// execution module issues concurrent calls from parallel operators.
class LlmClient {
 public:
  virtual ~LlmClient() = default;

  /// Performs one call. Never throws; malformed calls return an error
  /// Status inside the result.
  ///
  /// Failure contract: a failed call returns a non-OK `result.status` and
  /// callers must check it — payload fields/items are unspecified on
  /// failure, but the accounting fields (`seconds`, `dollars`, tokens)
  /// are always valid and must be charged: a timed-out call still burned
  /// provider time and money. Transient failures (IsTransientLlmFailure)
  /// may be retried with `call.attempt` incremented; permanent failures
  /// must be surfaced, never absorbed into a default-looking completion.
  virtual LlmResult Call(const LlmCall& call) = 0;

  /// Usage since construction or the last ResetUsage().
  virtual LlmUsage usage() const = 0;
  virtual void ResetUsage() = 0;
};

/// Rough token count of a text (words × 4/3, the usual English rule of
/// thumb), used for cost accounting.
int64_t ApproxTokens(const std::string& text);

}  // namespace unify::llm

#endif  // UNIFY_LLM_LLM_CLIENT_H_
