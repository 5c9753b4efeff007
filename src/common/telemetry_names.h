#ifndef UNIFY_COMMON_TELEMETRY_NAMES_H_
#define UNIFY_COMMON_TELEMETRY_NAMES_H_

#include <string_view>

namespace unify::telemetry {

// The catalog of every span, metric and serving-event name the system
// emits, one row per name:
//
//   X(kind, constant, name, family, guide, help)
//
//   kind      Span, Counter, Gauge, Histogram or Event.
//   constant  the `inline constexpr char` call sites name it by.
//   name      the span, metric or event name.
//   family    empty for one series; for a family of `name.<suffix>`
//             series, the placeholder of its suffix (e.g. `<type>`).
//   guide     the docs/<guide>.md that documents the name besides
//             docs/observability.md, or empty.
//   help      one line: the `# HELP` text of its Prometheus series.
//
// scripts/check_docs.sh reads the rows: each `name` (`name.<family>` for a
// family) must appear in its kind's section of docs/observability.md and
// in its guide.
#define UNIFY_TELEMETRY_CATALOG(X)                                             \
  /* Spans (common/trace.h). */                                                \
  X(Span, kSpanQuery, "query", "", "",                                         \
    "Root span of one UnifySystem::Answer() call.")                            \
  X(Span, kSpanPlanLogical, "plan.logical", "", "",                            \
    "Logical plan generation (PlanGenerator::Generate, Section V).")           \
  X(Span, kSpanPlanReduce, "plan.reduce", "", "",                              \
    "One accepted reduction step of the logical-plan DFS.")                    \
  X(Span, kSpanPlanFallback, "plan.fallback", "", "",                          \
    "Fallback-plan construction when no reduction path succeeded.")            \
  X(Span, kSpanPlanPhysical, "plan.physical", "", "",                          \
    "Physical optimization and plan selection (Section VI).")                  \
  X(Span, kSpanOptimizeCandidate, "optimize.candidate", "", "",                \
    "Lowering and costing of one candidate logical plan.")                     \
  X(Span, kSpanSceEstimate, "sce.estimate", "", "",                            \
    "One semantic or numeric cardinality estimation.")                         \
  X(Span, kSpanExecute, "execute", "", "",                                     \
    "Plan execution (PlanExecutor, Section III-C).")                           \
  X(Span, kSpanExecNode, "exec.node", "", "",                                  \
    "One DAG node's operator execution.")                                      \
  X(Span, kSpanExecPartition, "exec.partition", "", "",                        \
    "One morsel of a split per-document LLM call.")                            \
  X(Span, kSpanExecFallback, "exec.fallback", "", "",                          \
    "Executor-level replanning after a terminal operator failure.")            \
  X(Span, kSpanExecReplan, "exec.replan", "", "replanning",                    \
    "One mid-query re-optimization pause.")                                    \
  X(Span, kSpanServeQuery, "serve.query", "", "",                              \
    "One query served through UnifyService.")                                  \
  /* Query pipeline stages (core/runtime/query_pipeline.h), every query. */    \
  X(Histogram, kMetricStageAdmit, "query.stage_seconds.admit", "", "",         \
    "Wall seconds of a query's admission stage.")                              \
  X(Histogram, kMetricStageParse, "query.stage_seconds.parse", "", "",         \
    "Wall seconds of a query's logical planning stage.")                       \
  X(Histogram, kMetricStageOptimize, "query.stage_seconds.optimize", "", "",   \
    "Wall seconds of a query's physical optimization stage.")                  \
  X(Histogram, kMetricStageExecute, "query.stage_seconds.execute", "", "",     \
    "Wall seconds of a query's execution stage.")                              \
  X(Histogram, kMetricStageAnalyze, "query.stage_seconds.analyze", "", "",     \
    "Wall seconds of a query's analysis stage.")                               \
  /* Planning and semantic cardinality estimation. */                          \
  X(Counter, kMetricPlanReductions, "plan.reductions", "", "",                 \
    "Accepted reduction steps of the logical-plan DFS.")                       \
  X(Counter, kMetricPlanBacktracks, "plan.backtracks", "", "",                 \
    "Reduction steps whose subtree produced no complete plan.")                \
  X(Counter, kMetricPlanWidenings, "plan.widenings", "", "",                   \
    "Candidate-set widenings after every top-k operator failed.")              \
  X(Counter, kMetricPlanUnresolved, "plan.unresolved", "", "",                 \
    "Query states no operator could reduce.")                                  \
  X(Counter, kMetricSceEstimates, "sce.estimates", "", "",                     \
    "Cardinality estimations run (misses of the per-query SCE cache).")        \
  X(Counter, kMetricSceSamples, "sce.samples", "", "",                         \
    "Documents sampled across all cardinality estimations.")                   \
  X(Counter, kMetricSceLlmSeconds, "sce.llm_seconds", "", "",                  \
    "Virtual LLM seconds spent on SCE sampling.")                              \
  /* Execution. */                                                             \
  X(Counter, kMetricExecNodes, "exec.nodes", "", "",                           \
    "Executed plan DAG nodes.")                                                \
  X(Counter, kMetricExecAdjustments, "exec.adjustments", "", "",               \
    "Operators retried with an alternative implementation.")                   \
  X(Histogram, kMetricExecQueueWait, "exec.queue_wait_seconds", "", "",        \
    "Virtual seconds a node waited for a free LLM server.")                    \
  X(Gauge, kMetricExecPoolOccupancy, "exec.pool.occupancy", "", "",            \
    "LLM-server busy fraction of the last executed plan.")                     \
  X(Counter, kMetricExecPartitions, "exec.partitions", "", "",                 \
    "Morsels executed by split per-document LLM calls.")                       \
  X(Histogram, kMetricExecPartitionMerge,                                      \
    "exec.partition.merge_seconds", "", "",                                    \
    "Wall seconds concatenating a split node's morsel outputs.")               \
  /* LLM layer (llm/tracing_client.h); <type> is a PromptTypeName. */          \
  X(Counter, kMetricLlmCalls, "llm.calls", "<type>", "",                       \
    "LLM calls per prompt type.")                                              \
  X(Counter, kMetricLlmInTokens, "llm.in_tokens", "<type>", "",                \
    "LLM prompt tokens per prompt type.")                                      \
  X(Counter, kMetricLlmOutTokens, "llm.out_tokens", "<type>", "",              \
    "LLM completion tokens per prompt type.")                                  \
  X(Counter, kMetricLlmSeconds, "llm.seconds", "<type>", "",                   \
    "Virtual LLM stream seconds per prompt type.")                             \
  X(Counter, kMetricLlmDollars, "llm.dollars", "<type>", "",                   \
    "LLM API dollars per prompt type.")                                        \
  X(Histogram, kMetricLlmCallSeconds, "llm.call_seconds", "", "",              \
    "Virtual seconds of individual LLM calls.")                                \
  /* Shared LLM answer cache (llm/shared_cache.h). */                          \
  X(Counter, kMetricLlmCacheHits, "llm.cache.item_hits", "", "caching",        \
    "Items served from a resident shared-cache entry.")                        \
  X(Counter, kMetricLlmCacheMisses, "llm.cache.item_misses", "", "caching",    \
    "Items that led a base-client call.")                                      \
  X(Counter, kMetricLlmCacheCoalesced, "llm.cache.coalesced", "", "caching",   \
    "Items that followed an identical call already in flight.")                \
  X(Counter, kMetricLlmCacheEvictions, "llm.cache.evictions", "", "caching",   \
    "Shared-cache entries its CLOCK sweep evicted for the capacity bounds.")   \
  X(Gauge, kMetricLlmCacheBytes, "llm.cache.bytes", "", "caching",             \
    "Approximate resident bytes of the shared cache.")                         \
  /* Fault injection and resilient execution (llm/fault_client.h,              \
   * llm/resilient_client.h); <tier> is planner or worker. */                  \
  X(Counter, kMetricLlmFaultAttempts,                                          \
    "llm.fault.attempts", "<type>", "resilience",                              \
    "Attempts that met an active fault injector per prompt type.")             \
  X(Counter, kMetricLlmFaultTimeouts,                                          \
    "llm.fault.timeouts", "<type>", "resilience",                              \
    "Injected provider timeouts per prompt type.")                             \
  X(Counter, kMetricLlmFaultRateLimits,                                        \
    "llm.fault.rate_limits", "<type>", "resilience",                           \
    "Injected rate-limit rejections per prompt type.")                         \
  X(Counter, kMetricLlmFaultMalformed,                                         \
    "llm.fault.malformed", "<type>", "resilience",                             \
    "Injected malformed completions per prompt type.")                         \
  X(Counter, kMetricLlmRetryAttempts, "llm.retry.attempts", "", "resilience",  \
    "Retry attempts beyond each call's first attempt.")                        \
  X(Counter, kMetricLlmRetryRecovered,                                         \
    "llm.retry.recovered", "", "resilience",                                   \
    "Calls that succeeded after at least one retry.")                          \
  X(Counter, kMetricLlmRetryExhausted,                                         \
    "llm.retry.exhausted", "", "resilience",                                   \
    "Calls that failed with their retries or budget exhausted.")               \
  X(Counter, kMetricLlmRetryBudgetExhausted,                                   \
    "llm.retry.budget_exhausted", "", "resilience",                            \
    "Retries refused because the query's retry budget ran out.")               \
  X(Counter, kMetricLlmRetryBackoffSeconds,                                    \
    "llm.retry.backoff_seconds", "", "resilience",                             \
    "Virtual seconds slept in retry backoff, jitter included.")                \
  X(Counter, kMetricLlmHedgeLaunched, "llm.hedge.launched", "", "resilience",  \
    "Hedged duplicate requests launched for stragglers.")                      \
  X(Counter, kMetricLlmHedgeWins, "llm.hedge.wins", "", "resilience",          \
    "Hedges that finished before their primary.")                              \
  X(Counter, kMetricLlmHedgeCancelledDollars,                                  \
    "llm.hedge.cancelled_dollars", "", "resilience",                           \
    "Dollars charged to cancelled hedge-race losers.")                         \
  X(Counter, kMetricBreakerOpens, "breaker.opens", "<tier>", "resilience",     \
    "Circuit-breaker trips per model tier.")                                   \
  X(Counter, kMetricBreakerRejected,                                           \
    "breaker.rejected", "<tier>", "resilience",                                \
    "Calls rejected while the tier's breaker was open.")                       \
  X(Counter, kMetricBreakerProbes, "breaker.probes", "<tier>", "resilience",   \
    "Half-open probe calls admitted per model tier.")                          \
  X(Counter, kMetricBreakerCloses, "breaker.closes", "<tier>", "resilience",   \
    "Breakers closed by a successful probe per model tier.")                   \
  /* Serving (core/runtime/service.h). */                                      \
  X(Counter, kMetricServeSubmitted, "serve.submitted", "", "",                 \
    "Requests accepted into the serving queue.")                               \
  X(Counter, kMetricServeRejected, "serve.rejected", "", "",                   \
    "Requests rejected by admission control (queue full).")                    \
  X(Counter, kMetricServeDeadlineExceeded, "serve.deadline_exceeded", "", "",  \
    "Served queries that failed their deadline.")                              \
  X(Histogram, kMetricServeQueueWait, "serve.queue_wait_seconds", "", "",      \
    "Wall seconds a served request waited for a worker.")                      \
  X(Gauge, kMetricServeInflight, "serve.inflight", "", "",                     \
    "Queries admitted and not yet completed.")                                 \
  X(Counter, kMetricServeReplans, "serve.replans", "", "replanning",           \
    "Served queries' plan adjustments, fallbacks and replans.")                \
  X(Counter, kMetricServeDegraded, "serve.degraded", "", "resilience",         \
    "Served queries that completed degraded.")                                 \
  X(Gauge, kMetricServeUptime, "serve.uptime_seconds", "", "",                 \
    "Wall seconds since the UnifyService was constructed.")                    \
  /* Scheduler (core/runtime/fair_scheduler.h); <class> is a                   \
   * QueryPriorityName. */                                                     \
  X(Counter, kMetricSchedDispatches, "serve.sched.dispatches", "", "",         \
    "Tasks handed to a worker by the scheduler.")                              \
  X(Counter, kMetricSchedTenantRejects, "serve.sched.tenant_rejects", "", "",  \
    "Requests rejected by their tenant's queue-depth cap.")                    \
  X(Counter, kMetricSchedSheds, "serve.sched.sheds", "", "",                   \
    "Queued requests shed because their deadline expired.")                    \
  X(Counter, kMetricSchedWheelRotations,                                       \
    "serve.sched.wheel_rotations", "", "",                                     \
    "Deficit-wheel passes that dispatched nothing.")                           \
  X(Gauge, kMetricSchedQueued, "serve.sched.queued", "", "",                   \
    "Tasks currently queued in the scheduler.")                                \
  X(Histogram, kMetricSchedQueueSeconds,                                       \
    "serve.sched.queue_seconds", "<class>", "",                                \
    "Wall seconds a dispatched task sat queued, per priority class.")          \
  /* SLO tracker (core/runtime/slo_tracker.h). */                              \
  X(Counter, kMetricSloGood, "serve.slo.good", "", "",                         \
    "Served queries that met the SLO.")                                        \
  X(Counter, kMetricSloBad, "serve.slo.bad", "", "",                           \
    "Served queries that missed the SLO.")                                     \
  X(Gauge, kMetricSloBurnRateFast, "serve.slo.burn_rate_fast", "", "",         \
    "Error-budget burn rate over the fast window.")                            \
  X(Gauge, kMetricSloBurnRateSlow, "serve.slo.burn_rate_slow", "", "",         \
    "Error-budget burn rate over the slow window.")                            \
  /* Per-tenant usage (core/runtime/tenant_ledger.h): labeled series           \
   * `name{tenant="..."}`, added to a snapshot by AnnotateSnapshot. */         \
  X(Counter, kMetricTenantQueries, "tenant.queries", "", "",                   \
    "Queries completed for the tenant.")                                       \
  X(Counter, kMetricTenantRejected, "tenant.rejected", "", "",                 \
    "The tenant's admission-control rejections.")                              \
  X(Counter, kMetricTenantFailed, "tenant.failed", "", "",                     \
    "The tenant's served queries that failed.")                                \
  X(Counter, kMetricTenantDeadlineMisses, "tenant.deadline_misses", "", "",    \
    "The tenant's deadline misses.")                                           \
  X(Counter, kMetricTenantDegraded, "tenant.degraded", "", "",                 \
    "The tenant's degraded completions.")                                      \
  X(Counter, kMetricTenantDollars, "tenant.dollars", "", "",                   \
    "LLM dollars attributed to the tenant.")                                   \
  X(Counter, kMetricTenantInTokens, "tenant.in_tokens", "", "",                \
    "LLM prompt tokens attributed to the tenant.")                             \
  X(Counter, kMetricTenantOutTokens, "tenant.out_tokens", "", "",              \
    "LLM completion tokens attributed to the tenant.")                         \
  X(Counter, kMetricTenantLlmCalls, "tenant.llm_calls", "", "",                \
    "LLM calls attributed to the tenant.")                                     \
  X(Counter, kMetricTenantCacheHits, "tenant.cache_item_hits", "", "",         \
    "The tenant's shared-cache item hits.")                                    \
  X(Counter, kMetricTenantCacheCoalesced, "tenant.cache_coalesced", "", "",    \
    "The tenant's items coalesced onto a call in flight.")                     \
  X(Histogram, kMetricTenantLatency, "tenant.latency_seconds", "", "",         \
    "Virtual latency of the tenant's completed queries.")                      \
  /* Prediction accuracy (common/accuracy.h renders these); <method> is an     \
   * SceMethodName, <impl> a PhysicalImplName. */                              \
  X(Histogram, kMetricSceQError, "sce.qerror", "<method>", "",                 \
    "SCE q-error against latent ground truth, per method.")                    \
  X(Histogram, kMetricCardQError, "card.qerror", "", "",                       \
    "Per-node q-error of the estimated output cardinality.")                   \
  X(Histogram, kMetricMakespanRelError, "plan.makespan_rel_error", "", "",     \
    "Relative error of the predicted execution makespan.")                     \
  X(Histogram, kMetricDollarsRelError, "plan.dollars_rel_error", "", "",       \
    "Relative error of the predicted execution dollars.")                      \
  X(Counter, kMetricImplChosen, "plan.impl_chosen", "<impl>", "",              \
    "Executed nodes per chosen physical implementation.")                      \
  X(Counter, kMetricImplChoiceOptimal, "plan.impl_choice.optimal", "", "",     \
    "Executed nodes whose impl is still the hindsight argmin.")                \
  X(Counter, kMetricImplChoiceSuboptimal,                                      \
    "plan.impl_choice.suboptimal", "", "",                                     \
    "Executed nodes where hindsight costing prefers another impl.")            \
  /* Mid-query re-optimization (docs/replanning.md). */                        \
  X(Counter, kMetricReplanConsidered,                                          \
    "plan.reoptimize.considered", "", "replanning",                            \
    "Replans considered: the q-error trigger fired within budget.")            \
  X(Counter, kMetricReplanTriggered,                                           \
    "plan.reoptimize.triggered", "", "replanning",                             \
    "Considered replans whose re-lowered suffix was adopted.")                 \
  X(Counter, kMetricReplanImproved,                                            \
    "plan.reoptimize.improved", "", "replanning",                              \
    "Adopted replans whose measured suffix beat the old estimate.")            \
  /* Serving flight-recorder events (core/runtime/flight_recorder.h). */       \
  X(Event, kEventAdmit, "admit", "", "", "Accepted into the serving queue.")   \
  X(Event, kEventStart, "start", "", "", "Picked up by a worker.")             \
  X(Event, kEventComplete, "complete", "", "",                                 \
    "Terminal: the query finished, successfully or not.")                      \
  X(Event, kEventReject, "reject", "", "",                                     \
    "Terminal: turned away by admission control (queue full).")                \
  X(Event, kEventDeadlineMiss, "deadline_miss", "", "",                        \
    "Finished past its deadline (alongside complete).")                        \
  X(Event, kEventReplan, "replan", "", "replanning",                           \
    "A plan adjustment, planning fallback or mid-query replan.")               \
  X(Event, kEventDegraded, "degraded", "", "resilience",                       \
    "Completed by graceful degradation (alongside complete).")                 \
  X(Event, kEventSloBreach, "slo_breach", "", "",                              \
    "The SLO burn rates crossed the breach threshold.")                        \
  X(Event, kEventShed, "shed", "", "api",                                      \
    "Terminal: shed from the queue once its deadline expired.")                \
  X(Event, kEventTenantReject, "tenant_reject", "", "api",                     \
    "Terminal: rejected by its tenant's queue-depth cap.")

#define UNIFY_TELEMETRY_CONSTANT(kind, constant, name, family, guide, help) \
  inline constexpr char constant[] = name;
UNIFY_TELEMETRY_CATALOG(UNIFY_TELEMETRY_CONSTANT)
#undef UNIFY_TELEMETRY_CONSTANT

enum class Kind { kSpan, kCounter, kGauge, kHistogram, kEvent };

/// One catalog row, as Find() returns it.
struct Entry {
  Kind kind;
  std::string_view name;
  /// Whether the row names a family of `name.<suffix>` series.
  bool family;
  std::string_view help;
};

/// The catalog row of a span, series or event name: its exact row, else
/// the family row of a `base.<suffix>` series; nullptr when neither
/// exists. A label block (`name{key="value"}`) is ignored. Looks the name
/// up in an index sorted at compile time, so it allocates nothing.
const Entry* Find(std::string_view series);

}  // namespace unify::telemetry

#endif  // UNIFY_COMMON_TELEMETRY_NAMES_H_
