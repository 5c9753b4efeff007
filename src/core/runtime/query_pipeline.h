#ifndef UNIFY_CORE_RUNTIME_QUERY_PIPELINE_H_
#define UNIFY_CORE_RUNTIME_QUERY_PIPELINE_H_

#include <chrono>
#include <memory>
#include <optional>
#include <vector>

#include "common/metrics.h"
#include "common/query_scope.h"
#include "common/trace.h"
#include "core/logical/plan_generator.h"
#include "core/physical/optimizer.h"
#include "core/runtime/executor.h"
#include "core/runtime/query.h"
#include "exec/virtual_pool.h"

namespace unify::core {

class UnifySystem;

/// The staged query pipeline behind UnifySystem::Answer: admission ->
/// parse (logical plan generation) -> optimize (physical lowering + plan
/// selection + deadline pre-check) -> execute (the resumable engine with
/// the mid-query replan loop, docs/replanning.md) -> analyze (EXPLAIN
/// ANALYZE + accuracy metrics + cost-model feedback). The stages share one
/// QueryContext; each reads what earlier stages left there and the
/// pipeline finalizes the QueryResult exactly once, whatever stage
/// stopped the query.
///
/// One pipeline serves one query on one thread (execution may still fan
/// morsels across workers); from Admit until Finalize it installs the
/// query's QueryScope — metrics sink, retry budget, cache routing — on
/// that thread, so planning-side LLM calls (including replan decisions)
/// are attributed to the query like execution-side ones. Each stage's
/// wall time is observed into `query.stage_seconds.<stage>`.
class QueryPipeline {
 public:
  /// `system` must be Setup(); `shared_pool` non-null schedules execution
  /// on a serving session's shared virtual server pool; `trace` non-null
  /// nests the query under the caller's `parent` span.
  QueryPipeline(const UnifySystem& system, const QueryRequest& request,
                exec::VirtualLlmPool* shared_pool,
                std::shared_ptr<Trace> trace, SpanId parent);

  /// Runs every stage and returns the finalized result. Call once.
  QueryResult Run();

 private:
  /// What the stages share. Earlier stages populate it, later stages
  /// consume it; `result` accumulates the externally visible outcome.
  struct QueryContext {
    QueryResult result;
    ResolvedQueryOptions resolved;
    /// The per-query optimizer options (system options + request
    /// overrides), reused verbatim by mid-query re-optimization.
    OptimizerOptions oopts;
    std::shared_ptr<Trace> trace;
    /// This query's own metrics registry (the sink of its QueryScope;
    /// the executor merges its morsels' registries into it). Finalize
    /// merges it into MetricsRegistry::Global().
    MetricsRegistry query_metrics;
    /// The query's shared pool of virtual retry seconds.
    std::optional<RetryBudget> retry_budget;
    /// Parse output: candidate logical plans + planning costs.
    std::optional<PlanGenerator::Result> generated;
    /// Optimize output: the chosen physical plan (pre-replan).
    std::optional<PhysicalPlan> physical;
  };

  /// Admission checks + per-query environment (resolved options, trace,
  /// query scope, root span). False stops the pipeline.
  bool Admit();
  /// Logical plan generation (Section V).
  bool Parse();
  /// Physical lowering + plan selection (Section VI) and the deadline
  /// pre-check on the predicted makespan.
  bool Optimize();
  /// Plan execution (Section III-C) on the resumable engine, answering
  /// each replan pause the query's re-optimization budget allows. Runs
  /// Analyze on the executed plan before returning.
  void ExecutePlan();
  /// One replan consideration at the materialization point `record`
  /// names: the planner-tier decision call, suffix re-lowering under
  /// measured cardinalities, and the adopt-or-keep verdict applied to
  /// `state`.
  void ConsiderReplan(ReplanRecord record, PlanExecutor& executor,
                      PlanExecutor::ExecutionState& state);
  /// Replan outcome audit + EXPLAIN ANALYZE records + accuracy-ledger
  /// feeding + cost-model feedback, from the executor's `rows` for the
  /// plan that actually ran.
  void Analyze(const PlanExecutor::ExecutionState& state,
               std::vector<PlanNodeAnalysis> rows);
  /// Totals, phase, per-query metrics snapshot (merged into the global
  /// registry), trace attributes.
  void Finalize();
  /// Observes the wall seconds since the previous stage ended into
  /// `stage_metric` (a `query.stage_seconds.<stage>` histogram).
  void EndStage(const char* stage_metric);

  const UnifySystem& system_;
  const QueryRequest& request_;
  exec::VirtualLlmPool* shared_pool_;
  SpanId parent_;
  QueryContext ctx_;
  std::unique_ptr<ScopedSpan> root_;
  /// Wall-clock end of the previous stage (start of the current one).
  std::chrono::steady_clock::time_point stage_start_;
  /// The query's scope on this thread: installed by Admit, removed by
  /// Finalize.
  std::optional<QueryScope::Installer> scope_;
};

}  // namespace unify::core

#endif  // UNIFY_CORE_RUNTIME_QUERY_PIPELINE_H_
