#ifndef UNIFY_CORE_RUNTIME_QUERY_H_
#define UNIFY_CORE_RUNTIME_QUERY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"
#include "core/physical/optimizer.h"
#include "core/runtime/executor.h"
#include "corpus/answer.h"

namespace unify::core {

/// Where query processing stopped. Successful queries end in kComplete;
/// a failed query's phase names the stage whose status is reported in
/// QueryResult::status (the error taxonomy of the request/response API).
enum class QueryPhase {
  /// Rejected before any work: invalid request (kInvalidArgument),
  /// Setup() not called (kFailedPrecondition), or serving-layer admission
  /// control (kResourceExhausted when the queue is full).
  kAdmission,
  /// Logical plan generation failed (parse / reduction errors).
  kPlanning,
  /// Physical optimization / plan selection failed, or the per-query
  /// deadline was exceeded by the predicted makespan (kDeadlineExceeded).
  kOptimization,
  /// Plan execution failed, or the measured virtual completion overran
  /// the deadline (kDeadlineExceeded).
  kExecution,
  /// The query finished with a partial or fallback answer after graceful
  /// degradation absorbed a transient execution failure: status is OK,
  /// QueryResult::degraded_detail says what was lost (docs/resilience.md).
  kDegraded,
  /// All phases succeeded.
  kComplete,
};

/// "admission", "planning", "optimization", "execution", "degraded", or
/// "complete".
const char* QueryPhaseName(QueryPhase phase);

/// Serving-layer priority class of a request (docs/api.md, "Scheduling &
/// tenant isolation"). Under UnifyService's fair scheduler the classes are
/// strict tiers: a queued interactive request always dispatches before any
/// normal one, and normal before batch. Within a tier, tenants share the
/// workers via deficit-weighted round-robin. The FIFO scheduler ignores
/// the class entirely.
enum class QueryPriority {
  kBatch = 0,
  kNormal = 1,
  kInteractive = 2,
};

/// "batch", "normal", or "interactive".
const char* QueryPriorityName(QueryPriority priority);

struct UnifyOptions;

/// The per-query options after resolving QueryRequest::Overrides against
/// the system-wide UnifyOptions: every field is concrete — this is what
/// the runtime actually executes with. Produced by
/// QueryRequest::Overrides::ResolveAgainst().
struct ResolvedQueryOptions {
  OptimizeObjective objective;
  PhysicalMode physical_mode;
  bool collect_trace = false;
  /// Clamped to >= 1; 1 is the sequential single-stream model.
  int max_intra_op_parallelism = 1;
  bool graceful_degradation = false;
  /// Before the deadline clamp the runtime applies per query.
  double retry_budget_seconds = 0;
  /// Whether cacheable per-document LLM calls go through the shared
  /// answer cache (docs/caching.md).
  bool use_llm_cache = false;
  /// Mid-query re-optimization (docs/replanning.md): pause at
  /// materialization points whose observed cardinality diverges from the
  /// estimate by `reoptimize_qerror_threshold` or more and re-lower the
  /// un-executed suffix, at most `max_reoptimizations` times per query
  /// (0 never pauses).
  double reoptimize_qerror_threshold = 3.0;
  int max_reoptimizations = 0;
};

/// One analytics query plus its per-query options. The explicit request
/// type is the stable public entry point: construct with just `text` for
/// defaults, or set `overrides` fields to shadow the system-wide
/// UnifyOptions for this query only.
struct QueryRequest {
  /// The natural-language analytics question.
  std::string text;

  /// Every per-query knob that shadows a system-wide UnifyOptions
  /// setting lives here, as an optional: unset means "use the system
  /// default". One struct, one resolution rule — ResolveAgainst() is the
  /// single place request-vs-system precedence is decided.
  struct Overrides {
    /// Shadows UnifyOptions::objective (time vs. dollars).
    std::optional<OptimizeObjective> objective;
    /// Shadows UnifyOptions::physical_mode.
    std::optional<PhysicalMode> physical_mode;
    /// Shadows UnifyOptions::collect_trace.
    std::optional<bool> collect_trace;
    /// Shadows the executor's morsel-driven intra-operator parallelism
    /// (UnifyOptions::exec.max_intra_op_parallelism) — also steers the
    /// optimizer's makespan prediction. Values < 1 clamp to 1; 1
    /// reproduces the sequential single-stream model exactly, and
    /// answers are byte-identical for every setting.
    std::optional<int> max_intra_op_parallelism;
    /// Shadows UnifyOptions::graceful_degradation: when a transient LLM
    /// failure survives retries AND the executor's fallback strategies,
    /// surface a partial/empty answer with QueryPhase::kDegraded instead
    /// of failing the query.
    std::optional<bool> graceful_degradation;
    /// Shadows UnifyOptions::default_retry_budget_seconds (virtual
    /// seconds of backoff + retry work the query may spend recovering
    /// from transient LLM faults; see docs/resilience.md). The runtime
    /// additionally clamps the resolved value to `deadline_seconds`;
    /// 0 disables retrying for this query.
    std::optional<double> retry_budget_seconds;
    /// Shadows UnifyOptions::cache.enabled: route this query's cacheable
    /// per-document LLM calls through (true) or around (false) the
    /// shared answer cache (docs/caching.md).
    std::optional<bool> use_llm_cache;
    /// Shadow the system-wide mid-query re-optimization knobs
    /// (UnifyOptions::exec.reoptimize_qerror_threshold /
    /// max_reoptimizations; docs/replanning.md). A positive
    /// max_reoptimizations arms the q-error trigger for this query; 0
    /// disarms it.
    std::optional<double> reoptimize_qerror_threshold;
    std::optional<int> max_reoptimizations;
    /// Serving-layer scheduling class (default kNormal). Unlike the other
    /// overrides this shadows no UnifyOptions field — it is consumed by
    /// UnifyService's fair scheduler before the query reaches the runtime,
    /// so ResolveAgainst() ignores it (docs/api.md, "Scheduling & tenant
    /// isolation").
    std::optional<QueryPriority> priority;

    /// The one resolution rule: each set field wins over its system-wide
    /// counterpart in `defaults`; parallelism is clamped to >= 1.
    /// Defined in unify.cc (needs the full UnifyOptions type).
    ResolvedQueryOptions ResolveAgainst(const UnifyOptions& defaults) const;
  };
  Overrides overrides;

  /// Upper bound on the query's *virtual* total time (planning + execution
  /// including cross-query queueing), in seconds; 0 = no deadline. A query
  /// whose predicted or measured completion overruns it fails with
  /// kDeadlineExceeded — after planning the predicted makespan aborts
  /// execution early, saving the execution-side LLM spend.
  double deadline_seconds = 0;

  /// Virtual time at which the query becomes ready to execute. Negative
  /// (the default) means "now": a standalone Answer() uses 0, a
  /// UnifyService uses the shared pool's monotonic clock. Closed-loop
  /// benchmark clients set it to their previous query's completion time.
  double arrival_seconds = -1;

  /// Free-form caller identity, echoed into QueryResult and the
  /// serve.query span (multi-tenant attribution).
  std::string client_tag;

  /// Stable per-query id deriving the query's RNG streams
  /// (seed ⊕ query_id). 0 (the default) derives it from a stable hash of
  /// `text`, so identical queries behave identically regardless of
  /// submission order — the property that makes concurrent serving
  /// byte-identical to a sequential run.
  uint64_t query_id = 0;

  /// The id the query runs under: `query_id`, or the stable hash of
  /// `text` when it is 0. QueryResult::query_id and UnifyService's
  /// flight-recorder events both carry it. Defined in unify.cc.
  uint64_t ResolvedQueryId() const;
};

/// The outcome of one query: answer, status + phase taxonomy, virtual-time
/// accounting, and observability payloads.
struct QueryResult {
  Status status = Status::OK();
  /// Stage the query reached (kComplete on success).
  QueryPhase phase = QueryPhase::kComplete;
  corpus::Answer answer;

  /// The effective query id (request id, or the stable text hash).
  uint64_t query_id = 0;
  /// Echo of QueryRequest::client_tag.
  std::string client_tag;

  /// Planning time: logical plan generation + physical optimization
  /// (including SCE sampling), sequential LLM virtual time.
  double plan_seconds = 0;
  /// Execution time: plan makespan on the LLM server pool, measured from
  /// the moment the query's execution became ready. Under concurrent
  /// serving this includes waiting for servers occupied by other queries'
  /// streams (cross-query contention).
  double exec_seconds = 0;
  /// The optimizer's predicted makespan for the chosen plan (est_makespan,
  /// under the query's effective intra-operator parallelism) — compare
  /// with exec_seconds to judge cost-model accuracy.
  double predicted_exec_seconds = 0;
  /// The optimizer's predicted API spend for the chosen plan — compare
  /// with exec_dollars.
  double predicted_exec_dollars = 0;
  double total_seconds = 0;
  /// Virtual arrival (ready) time of the query and its absolute
  /// completion time on the serving clock: completion = arrival + total.
  double arrival_seconds = 0;
  double completion_seconds = 0;
  /// Wall-clock seconds the request spent queued in the serving layer
  /// before a worker picked it up (0 for standalone Answer() calls).
  double queue_wall_seconds = 0;

  /// API spend of plan execution (footnote-1 objective accounting).
  double exec_dollars = 0;
  /// Shared-LLM-cache attribution for THIS query (exact, via the
  /// per-query metrics sink): per-document items served from a cached
  /// entry, and items that coalesced onto another in-flight call's
  /// leader instead of re-paying the base call. Both are 0 when the
  /// cache is disabled for the query. See docs/caching.md.
  int64_t cache_item_hits = 0;
  int64_t cache_coalesced = 0;
  int num_candidate_plans = 0;
  bool used_fallback = false;
  bool adjusted = false;
  /// True iff phase == kDegraded; `degraded_detail` then names the
  /// transient failure graceful degradation absorbed.
  bool degraded = false;
  std::string degraded_detail;
  /// EXPLAIN rendering of the chosen physical plan.
  std::string plan_explain;
  /// Per-operator execution timeline (virtual start/finish + LLM usage).
  std::string timeline;
  /// Query-lifecycle trace (null when tracing is disabled). Render with
  /// Trace::ToText() or export with Trace::ToChromeJson() for
  /// chrome://tracing / Perfetto.
  std::shared_ptr<Trace> trace;
  /// This query's own metrics: every instrumented site records into a
  /// per-query registry (installed thread-locally on each thread that
  /// works on the query) alongside the process-wide one, so counters and
  /// histograms here are exact even under concurrent serving — they never
  /// absorb overlapping queries' activity (see docs/api.md).
  MetricsSnapshot metrics;

  /// EXPLAIN ANALYZE records: one entry per node of the chosen physical
  /// plan, in render order (plus a trailing synthetic record when the
  /// Section V-D fallback produced the answer). Empty when execution was
  /// never reached (planning/optimization failure, deadline pre-check
  /// abort).
  std::vector<PlanNodeAnalysis> plan_analysis;

  /// Mid-query re-optimizations this query considered, in trigger order
  /// (docs/replanning.md). Empty unless the query had a re-optimization
  /// budget (max_reoptimizations > 0) and a materialization point tripped
  /// the q-error threshold.
  std::vector<ReplanRecord> replans;

  /// Text rendering of `plan_analysis` in the style of
  /// `PhysicalPlan::Explain()`: header with predicted vs measured
  /// makespan/dollars, then one line per node with estimated vs actual
  /// cardinalities (q-error), seconds, dollars, morsels, and retries.
  /// Empty string when `plan_analysis` is empty.
  std::string explain_analyze() const;
};

}  // namespace unify::core

#endif  // UNIFY_CORE_RUNTIME_QUERY_H_
