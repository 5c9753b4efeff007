#ifndef UNIFY_COMMON_TELEMETRY_NAMES_H_
#define UNIFY_COMMON_TELEMETRY_NAMES_H_

namespace unify::telemetry {

// The complete catalog of span and metric names the system emits. Every
// instrumented call site names its span/metric through one of these
// constants, so this header is the single source of truth;
// scripts/check_docs.sh greps it and fails the build if any name here is
// missing from docs/observability.md.

// --- Span names (common/trace.h; taxonomy in docs/observability.md) ---

/// Root span of one UnifySystem::Answer() call.
inline constexpr char kSpanQuery[] = "query";
/// Logical plan generation (PlanGenerator::Generate, Section V).
inline constexpr char kSpanPlanLogical[] = "plan.logical";
/// One accepted reduction step of the DFS (child of plan.logical or of
/// the enclosing plan.reduce — the span tree mirrors the search tree).
inline constexpr char kSpanPlanReduce[] = "plan.reduce";
/// Fallback-plan construction when no reduction path succeeded (V-D).
inline constexpr char kSpanPlanFallback[] = "plan.fallback";
/// Physical optimization + plan selection (PhysicalOptimizer::SelectBest).
inline constexpr char kSpanPlanPhysical[] = "plan.physical";
/// Lowering/costing of one candidate logical plan (Optimize()).
inline constexpr char kSpanOptimizeCandidate[] = "optimize.candidate";
/// One semantic/numeric cardinality estimation (EstimateCondition).
inline constexpr char kSpanSceEstimate[] = "sce.estimate";
/// Plan execution (PlanExecutor::Execute, Section III-C).
inline constexpr char kSpanExecute[] = "execute";
/// One DAG node's operator execution (wall interval = real work; virtual
/// interval = its slot on the simulated schedule).
inline constexpr char kSpanExecNode[] = "exec.node";
/// One morsel of a partitioned operator (child of its exec.node): an
/// independent LLM stream over a whole-batch chunk of the node's input.
inline constexpr char kSpanExecPartition[] = "exec.partition";
/// Executor-level replanning after a terminal operator failure.
inline constexpr char kSpanExecFallback[] = "exec.fallback";
/// One mid-query re-optimization pause (docs/replanning.md).
inline constexpr char kSpanExecReplan[] = "exec.replan";
/// One query served through UnifyService (parent of its "query" span).
inline constexpr char kSpanServeQuery[] = "serve.query";

// --- Metric names (common/metrics.h; catalog in docs/observability.md) ---

// Query pipeline stages (core/runtime/query_pipeline.h), observed on every
// query past admission, traced or not.
/// Histograms: wall seconds of each QueryPipeline stage of one query.
inline constexpr char kMetricStageAdmit[] = "query.stage_seconds.admit";
inline constexpr char kMetricStageParse[] = "query.stage_seconds.parse";
inline constexpr char kMetricStageOptimize[] = "query.stage_seconds.optimize";
inline constexpr char kMetricStageExecute[] = "query.stage_seconds.execute";
inline constexpr char kMetricStageAnalyze[] = "query.stage_seconds.analyze";

// Planning (counters).
inline constexpr char kMetricPlanReductions[] = "plan.reductions";
inline constexpr char kMetricPlanBacktracks[] = "plan.backtracks";
inline constexpr char kMetricPlanWidenings[] = "plan.widenings";
inline constexpr char kMetricPlanUnresolved[] = "plan.unresolved";

// Semantic cardinality estimation (counters).
inline constexpr char kMetricSceEstimates[] = "sce.estimates";
inline constexpr char kMetricSceSamples[] = "sce.samples";
inline constexpr char kMetricSceLlmSeconds[] = "sce.llm_seconds";

// Execution.
inline constexpr char kMetricExecNodes[] = "exec.nodes";
inline constexpr char kMetricExecAdjustments[] = "exec.adjustments";
/// Histogram: per-node virtual seconds spent waiting for a free LLM
/// server (schedule finish - ready - cpu - llm stream).
inline constexpr char kMetricExecQueueWait[] = "exec.queue_wait_seconds";
/// Gauge: LLM-server busy fraction of the last executed plan
/// (llm_seconds_total / (num_servers * makespan)).
inline constexpr char kMetricExecPoolOccupancy[] = "exec.pool.occupancy";
/// Counter: morsels executed by partitioned operators (incremented by the
/// partition count of every node that actually split).
inline constexpr char kMetricExecPartitions[] = "exec.partitions";
/// Histogram: wall-clock seconds spent merging a partitioned node's
/// partial results into its output value.
inline constexpr char kMetricExecPartitionMerge[] =
    "exec.partition.merge_seconds";

// LLM layer. The per-type counters append "." + PromptTypeName(type)
// (e.g. "llm.seconds.eval_predicate"); TracingLlmClient emits them.
inline constexpr char kMetricLlmCalls[] = "llm.calls";
inline constexpr char kMetricLlmInTokens[] = "llm.in_tokens";
inline constexpr char kMetricLlmOutTokens[] = "llm.out_tokens";
inline constexpr char kMetricLlmSeconds[] = "llm.seconds";
inline constexpr char kMetricLlmDollars[] = "llm.dollars";
/// Histogram: virtual seconds of individual LLM calls.
inline constexpr char kMetricLlmCallSeconds[] = "llm.call_seconds";
// Per-document memoization (SharedLlmCache in llm/shared_cache.h; catalog
// in docs/caching.md).
inline constexpr char kMetricLlmCacheHits[] = "llm.cache.item_hits";
inline constexpr char kMetricLlmCacheMisses[] = "llm.cache.item_misses";
/// Counter: items that followed a concurrent identical call's leader
/// instead of re-paying the base call (singleflight coalescing).
inline constexpr char kMetricLlmCacheCoalesced[] = "llm.cache.coalesced";
/// Counter: entries dropped by the shared cache's LRU capacity bounds.
inline constexpr char kMetricLlmCacheEvictions[] = "llm.cache.evictions";
/// Gauge: approximate resident bytes of the shared cache.
inline constexpr char kMetricLlmCacheBytes[] = "llm.cache.bytes";

// Fault injection (FaultInjectingLlmClient in llm/fault_client.h; catalog
// in docs/resilience.md). The per-kind counters append "." +
// PromptTypeName(type) like the llm.* family.
/// Counter family: injected provider timeouts (kDeadlineExceeded).
inline constexpr char kMetricLlmFaultTimeouts[] = "llm.fault.timeouts";
/// Counter family: injected rate-limit rejections (kResourceExhausted).
inline constexpr char kMetricLlmFaultRateLimits[] = "llm.fault.rate_limits";
/// Counter family: injected malformed/truncated completions (kAborted).
inline constexpr char kMetricLlmFaultMalformed[] = "llm.fault.malformed";

// Resilient execution (ResilientLlmClient in llm/resilient_client.h;
// semantics in docs/resilience.md).
/// Counter: retry attempts issued (beyond each call's first attempt).
inline constexpr char kMetricLlmRetryAttempts[] = "llm.retry.attempts";
/// Counter: calls that ultimately succeeded after >= 1 retry.
inline constexpr char kMetricLlmRetryRecovered[] = "llm.retry.recovered";
/// Counter: calls that failed with retries/budget exhausted.
inline constexpr char kMetricLlmRetryExhausted[] = "llm.retry.exhausted";
/// Counter: virtual seconds spent sleeping in backoff (incl. jitter).
inline constexpr char kMetricLlmRetryBackoffSeconds[] =
    "llm.retry.backoff_seconds";
/// Counter: hedged (duplicate) requests launched for stragglers.
inline constexpr char kMetricLlmHedgeLaunched[] = "llm.hedge.launched";
/// Counter: hedges that finished before the primary and won the call.
inline constexpr char kMetricLlmHedgeWins[] = "llm.hedge.wins";
/// Counter: dollars charged to cancelled hedge losers (partial cost of
/// the abandoned attempt up to the winner's completion).
inline constexpr char kMetricLlmHedgeCancelledDollars[] =
    "llm.hedge.cancelled_dollars";

// Circuit breaker (per model tier; the counters append "." + "planner" or
// "." + "worker").
/// Counter family: breaker transitions into the open state.
inline constexpr char kMetricBreakerOpens[] = "breaker.opens";
/// Counter family: calls rejected fast-fail while the breaker was open.
inline constexpr char kMetricBreakerRejected[] = "breaker.rejected";
/// Counter family: half-open probe calls admitted.
inline constexpr char kMetricBreakerProbes[] = "breaker.probes";
/// Counter family: transitions back to closed after a successful probe.
inline constexpr char kMetricBreakerCloses[] = "breaker.closes";

// Serving layer (UnifyService).
/// Counter: requests accepted into the serving queue.
inline constexpr char kMetricServeSubmitted[] = "serve.submitted";
/// Counter: requests rejected by admission control (queue full).
inline constexpr char kMetricServeRejected[] = "serve.rejected";
/// Counter: served queries that failed their deadline.
inline constexpr char kMetricServeDeadlineExceeded[] =
    "serve.deadline_exceeded";
/// Histogram: wall-clock seconds a request waited for a free worker.
inline constexpr char kMetricServeQueueWait[] = "serve.queue_wait_seconds";
/// Gauge: queries currently being planned/executed by workers.
inline constexpr char kMetricServeInflight[] = "serve.inflight";
/// Counter: served queries whose execution replanned mid-flight (plan
/// adjustment or executor fallback).
inline constexpr char kMetricServeReplans[] = "serve.replans";
/// Counter: served queries that completed degraded (QueryPhase::kDegraded
/// — a partial/fallback answer surfaced instead of a hard failure).
inline constexpr char kMetricServeDegraded[] = "serve.degraded";
/// Gauge: wall-clock seconds since the UnifyService was constructed
/// (refreshed on every completion, stats() call, and /metrics scrape).
inline constexpr char kMetricServeUptime[] = "serve.uptime_seconds";

// Scheduler (core/runtime/fair_scheduler.h). Every UnifyService dispatches
// through it, so FIFO mode emits these too, for its one "(fifo)" queue.
/// Counter: tasks handed to a worker by the DRR wheel.
inline constexpr char kMetricSchedDispatches[] = "serve.sched.dispatches";
/// Counter: requests rejected by a tenant's queue-depth cap (before the
/// global max_queue_depth trips for everyone).
inline constexpr char kMetricSchedTenantRejects[] =
    "serve.sched.tenant_rejects";
/// Counter: queued requests shed because their deadline could no longer
/// be met (now >= arrival + deadline on the virtual clock).
inline constexpr char kMetricSchedSheds[] = "serve.sched.sheds";
/// Counter: full refill passes over a priority tier's DRR wheel that
/// dispatched nothing (fractional weights accumulating or every tenant at
/// its concurrency cap).
inline constexpr char kMetricSchedWheelRotations[] =
    "serve.sched.wheel_rotations";
/// Gauge: tasks currently queued in the scheduler (all tiers).
inline constexpr char kMetricSchedQueued[] = "serve.sched.queued";
/// Histogram family: wall-clock seconds a dispatched task sat queued, per
/// priority class — the full name appends "." + QueryPriorityName (e.g.
/// "serve.sched.queue_seconds.interactive").
inline constexpr char kMetricSchedQueueSeconds[] =
    "serve.sched.queue_seconds";

// SLO tracker (core/runtime/slo_tracker.h; "SLOs" in
// docs/observability.md). A served query is SLO-good when it succeeded
// AND finished within Options::slo_latency_seconds (latency objective
// 0 = availability only).
/// Counter: served queries that met the SLO.
inline constexpr char kMetricSloGood[] = "serve.slo.good";
/// Counter: served queries that missed the SLO.
inline constexpr char kMetricSloBad[] = "serve.slo.bad";
/// Gauge: error-budget burn rate over the fast (minutes) window —
/// bad fraction / (1 - slo_target); 1.0 = burning exactly the budget.
inline constexpr char kMetricSloBurnRateFast[] = "serve.slo.burn_rate_fast";
/// Gauge: burn rate over the slow (hour-scale) window.
inline constexpr char kMetricSloBurnRateSlow[] = "serve.slo.burn_rate_slow";

// Per-tenant usage ledger (core/runtime/tenant_ledger.h; "Per-tenant
// accounting" in docs/observability.md). Each base name below is exported
// from /metrics as a labeled series `unify_tenant_*{tenant="..."}` — one
// sample per QueryRequest::client_tag — via MetricsSnapshot's labeled-
// series support; they are not plain registry counters.
/// Counter series: queries completed for the tenant.
inline constexpr char kMetricTenantQueries[] = "tenant.queries";
/// Counter series: the tenant's admission-control rejections.
inline constexpr char kMetricTenantRejected[] = "tenant.rejected";
/// Counter series: the tenant's served queries that failed (non-OK
/// status, deadline misses included).
inline constexpr char kMetricTenantFailed[] = "tenant.failed";
/// Counter series: the tenant's deadline misses.
inline constexpr char kMetricTenantDeadlineMisses[] =
    "tenant.deadline_misses";
/// Counter series: the tenant's degraded completions.
inline constexpr char kMetricTenantDegraded[] = "tenant.degraded";
/// Counter series: LLM dollars attributed to the tenant (exact per-query
/// attribution, planning + execution + SCE).
inline constexpr char kMetricTenantDollars[] = "tenant.dollars";
/// Counter series: LLM input tokens attributed to the tenant.
inline constexpr char kMetricTenantInTokens[] = "tenant.in_tokens";
/// Counter series: LLM output tokens attributed to the tenant.
inline constexpr char kMetricTenantOutTokens[] = "tenant.out_tokens";
/// Counter series: LLM calls attributed to the tenant.
inline constexpr char kMetricTenantLlmCalls[] = "tenant.llm_calls";
/// Counter series: the tenant's shared-cache item hits.
inline constexpr char kMetricTenantCacheHits[] = "tenant.cache_item_hits";
/// Counter series: the tenant's singleflight-coalesced items.
inline constexpr char kMetricTenantCacheCoalesced[] =
    "tenant.cache_coalesced";
/// Summary series: the tenant's total (virtual) query latency.
inline constexpr char kMetricTenantLatency[] = "tenant.latency_seconds";

// Prediction accuracy (AccuracyLedger in common/accuracy.h mirrors these
// into the metrics registry; see "Prediction accuracy" in
// docs/observability.md).
/// Histogram family: SCE q-error per estimation method — the full name
/// appends "." + SceMethodName (e.g. "sce.qerror.importance"). Observed
/// against the simulated corpus's latent ground truth at estimation time.
inline constexpr char kMetricSceQError[] = "sce.qerror";
/// Histogram: per-executed-node q-error of the optimizer's output-
/// cardinality estimate vs the cardinality execution actually produced.
inline constexpr char kMetricCardQError[] = "card.qerror";
/// Histogram: |predicted - measured| / measured execution makespan.
inline constexpr char kMetricMakespanRelError[] = "plan.makespan_rel_error";
/// Histogram: |predicted - measured| / measured execution dollars.
inline constexpr char kMetricDollarsRelError[] = "plan.dollars_rel_error";
/// Counter family: physical implementation chosen per executed node — the
/// full name appends "." + PhysicalImplName.
inline constexpr char kMetricImplChosen[] = "plan.impl_chosen";
/// Counter: executed nodes whose chosen impl is still the cost-model
/// argmin when re-costed with the measured cardinalities (hindsight).
inline constexpr char kMetricImplChoiceOptimal[] = "plan.impl_choice.optimal";
/// Counter: executed nodes where hindsight re-costing prefers another impl.
inline constexpr char kMetricImplChoiceSuboptimal[] =
    "plan.impl_choice.suboptimal";

// Mid-query re-optimization (docs/replanning.md). The pipeline considers
// a replan whenever a materialized node's cardinality q-error reaches the
// configured threshold; a considered replan always pays the planner-tier
// decision call, whether or not the re-lowered suffix is adopted.
/// Counter: replans considered (q-error trigger fired and the replan
/// budget still had room).
inline constexpr char kMetricReplanConsidered[] = "plan.reoptimize.considered";
/// Counter: considered replans whose re-lowered suffix was adopted.
inline constexpr char kMetricReplanTriggered[] = "plan.reoptimize.triggered";
/// Counter: adopted replans whose measured suffix cost came in under the
/// pre-replan suffix estimate (audited at query completion).
inline constexpr char kMetricReplanImproved[] = "plan.reoptimize.improved";

// Serving flight-recorder event kinds (core/runtime/flight_recorder.h;
// rendered by ServeEventKindName and in the `kind` field of the JSONL
// export; see "Flight recorder" in docs/observability.md).
inline constexpr char kEventAdmit[] = "admit";
inline constexpr char kEventStart[] = "start";
inline constexpr char kEventComplete[] = "complete";
inline constexpr char kEventReject[] = "reject";
inline constexpr char kEventDeadlineMiss[] = "deadline_miss";
inline constexpr char kEventReplan[] = "replan";
inline constexpr char kEventDegraded[] = "degraded";
/// The SLO tracker's fast+slow burn rates crossed the breach threshold
/// (edge-triggered: recorded when the breach starts, not per query).
inline constexpr char kEventSloBreach[] = "slo_breach";
/// A queued request was shed by the fair scheduler because its deadline
/// could no longer be met (fair mode only).
inline constexpr char kEventShed[] = "shed";
/// A request was rejected by its tenant's queue-depth cap (fair mode
/// only; distinct from the global-queue "reject").
inline constexpr char kEventTenantReject[] = "tenant_reject";

}  // namespace unify::telemetry

#endif  // UNIFY_COMMON_TELEMETRY_NAMES_H_
