#ifndef UNIFY_CORE_LOGICAL_PLAN_GENERATOR_H_
#define UNIFY_CORE_LOGICAL_PLAN_GENERATOR_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/trace.h"
#include "core/logical/logical_plan.h"
#include "core/logical/operator_matcher.h"
#include "core/operators/operator_def.h"
#include "llm/llm_client.h"

namespace unify::core {

/// Logical plan generation (paper Section V, Algorithm 1): depth-first
/// recursive query reduction with two-stage operator matching (embedding
/// top-k + LLM reranking), LLM-guided query rewriting, DAG plan
/// construction with LLM dependency checks, backtracking, multi-plan
/// exploration (n_c, τ), and the Generate fallback for queries that resist
/// full decomposition.
class PlanGenerator {
 public:
  struct Options {
    /// Candidate operators kept after embedding matching (paper: k = 5).
    int k = 5;
    /// Number of candidate plans to generate (paper: n_c = 3).
    int n_c = 3;
    /// Plan-diversity parameter τ ∈ (0, 1]: the fraction of branches
    /// explored at each search node before backtracking (τ = 1 is
    /// exhaustive). Paper default 0.75.
    double tau = 0.75;
    /// Reduction-depth guard.
    int max_steps = 24;
    /// How many alternative reductions ("variants") of the same operator
    /// to branch on — e.g. which of several filters to apply first.
    int max_variants = 3;
    /// Hard cap on LLM planning calls per query (runaway guard).
    int max_llm_calls = 600;
    /// Stage-2 LLM reranking of embedding candidates (Section V-A).
    /// Disabling it trusts raw embedding distances — the matching
    /// ablation.
    bool use_rerank = true;
  };

  struct Result {
    std::vector<LogicalPlan> plans;
    /// Sequential virtual time of all planning LLM calls.
    double planning_seconds = 0;
    int64_t llm_calls = 0;
    /// Reduction attempts whose subtree yielded no complete plan.
    int backtracks = 0;
    /// Candidate-set widenings after all top-k candidates failed (V-D).
    int widenings = 0;
    /// True when no full decomposition existed and a fallback plan
    /// (Generate-over-retrieval or LLM code generation, chosen by the LLM)
    /// was appended (paper Section V-D, Error Handling).
    bool used_fallback = false;
    /// Query states no operator could reduce. The paper: "encountered
    /// errors are also collected and can be used to build new operators
    /// tailored for the specific application scenario" — feed these to
    /// OperatorRegistry::Add.
    std::vector<std::string> unresolved_queries;
  };

  /// All pointers must outlive the generator.
  PlanGenerator(const OperatorRegistry* registry,
                const OperatorMatcher* matcher, llm::LlmClient* llm,
                Options options);

  /// Generates up to n_c candidate logical plans for `query`. When
  /// `trace` is non-null, a telemetry::kSpanPlanLogical span (child of
  /// `parent`) is recorded with one nested kSpanPlanReduce span per
  /// reduction step.
  /// Thread-safe: all search state lives on the caller's stack, so
  /// concurrent queries may share one generator (provided the LLM client
  /// is itself thread-safe).
  StatusOr<Result> Generate(const std::string& query, Trace* trace = nullptr,
                            SpanId parent = kNoSpan) const;

 private:
  struct SearchState {
    std::string query;
    LogicalPlan plan;
    std::map<std::string, std::string> vars;  ///< name -> description
    int var_counter = 0;
    /// Enclosing trace span (the search tree mirrors the span tree).
    SpanId span = kNoSpan;
  };

  /// Per-Generate() mutable state, kept on the caller's stack so one
  /// generator can serve concurrent queries.
  struct GenCtx {
    /// Signatures of plans already emitted (deduplicates search paths).
    std::set<std::string> seen_signatures;
    /// Active trace of this Generate() call; null when untraced.
    Trace* trace = nullptr;
  };

  /// Recursive DFS; appends complete plans to `result`.
  void Dfs(SearchState state, int depth, GenCtx& ctx, Result& result) const;

  /// Issues one LLM call, accumulating time into `result`.
  llm::LlmResult CallLlm(llm::LlmCall call, Result& result) const;

  /// Plan construction (Section V-C): appends `node` to `state.plan`,
  /// determining dependency edges via transitivity + LLM checks.
  void AddNodeWithDeps(SearchState& state, LogicalNode node,
                       Result& result) const;

  const OperatorRegistry* registry_;
  const OperatorMatcher* matcher_;
  llm::LlmClient* llm_;
  Options options_;
};

}  // namespace unify::core

#endif  // UNIFY_CORE_LOGICAL_PLAN_GENERATOR_H_
