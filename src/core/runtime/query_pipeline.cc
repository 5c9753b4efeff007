#include "core/runtime/query_pipeline.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/string_util.h"
#include "common/telemetry_names.h"
#include "core/runtime/plan_analysis.h"
#include "core/runtime/unify.h"
#include "llm/llm_client.h"

namespace unify::core {

QueryPipeline::QueryPipeline(const UnifySystem& system,
                             const QueryRequest& request,
                             exec::VirtualLlmPool* shared_pool,
                             std::shared_ptr<Trace> trace, SpanId parent)
    : system_(system),
      request_(request),
      shared_pool_(shared_pool),
      parent_(parent) {
  ctx_.trace = std::move(trace);
}

QueryResult QueryPipeline::Run() {
  stage_start_ = std::chrono::steady_clock::now();
  // Admission failures return bare: no trace, no metrics — the query never
  // entered the system.
  if (!Admit()) return std::move(ctx_.result);
  EndStage(telemetry::kMetricStageAdmit);
  bool ok = Parse();
  EndStage(telemetry::kMetricStageParse);
  if (ok) {
    ok = Optimize();
    EndStage(telemetry::kMetricStageOptimize);
  }
  if (ok) ExecutePlan();  // ends the execute and analyze stages
  Finalize();
  return std::move(ctx_.result);
}

void QueryPipeline::EndStage(const char* stage_metric) {
  const auto now = std::chrono::steady_clock::now();
  MetricObserve(stage_metric,
                std::chrono::duration<double>(now - stage_start_).count());
  stage_start_ = now;
}

bool QueryPipeline::Admit() {
  QueryResult& result = ctx_.result;
  result.client_tag = request_.client_tag;
  result.query_id = request_.query_id != 0 ? request_.query_id
                                           : StableHash64(request_.text);
  if (!system_.ready_) {
    result.status = Status::FailedPrecondition("Setup() not called");
    result.phase = QueryPhase::kAdmission;
    return false;
  }
  if (request_.text.empty()) {
    result.status = Status::InvalidArgument("empty query text");
    result.phase = QueryPhase::kAdmission;
    return false;
  }

  // The one per-query options resolution: every request override is
  // folded against the system-wide defaults here, and the rest of the
  // pipeline reads only the resolved values.
  ctx_.resolved = request_.overrides.ResolveAgainst(system_.options_);
  if (ctx_.trace == nullptr && ctx_.resolved.collect_trace) {
    ctx_.trace = std::make_shared<Trace>();
  }
  // Virtual arrival: explicit request time (closed-loop clients), else the
  // serving clock, else 0 for a standalone call.
  result.arrival_seconds =
      request_.arrival_seconds >= 0
          ? request_.arrival_seconds
          : (shared_pool_ != nullptr ? shared_pool_->Now() : 0.0);

  // Per-query metrics: a local registry installed as this thread's sink
  // (the executor merges what each morsel records into it, in morsel
  // order). Instrumented sites record counters and histograms into
  // the installed sink only, so result.metrics is exact even when other
  // queries run concurrently in the process; Finalize merges it into the
  // global registry once.
  metrics_scope_.emplace(&ctx_.query_metrics);

  // Retry budget: one shared pool of virtual backoff/retry seconds per
  // query, drained by every thread that retries on its behalf. The
  // resolved request value, clamped so retrying can never spend past an
  // explicit deadline.
  double budget_seconds = ctx_.resolved.retry_budget_seconds;
  if (request_.deadline_seconds > 0) {
    budget_seconds = std::min(budget_seconds, request_.deadline_seconds);
  }
  ctx_.retry_budget.emplace(budget_seconds);
  // Covers planning, SCE and plan nodes on this thread; PlanExecutor
  // copies it onto its morsel workers.
  budget_scope_.emplace(&*ctx_.retry_budget);

  // Shared-cache routing for this query's calls on this thread; the
  // executor copies it onto its morsel workers.
  cache_scope_.emplace(ctx_.resolved.use_llm_cache);

  root_ = std::make_unique<ScopedSpan>(ctx_.trace.get(),
                                       telemetry::kSpanQuery, parent_);
  root_->AddAttr("query", request_.text);
  if (!request_.client_tag.empty()) {
    root_->AddAttr("client", request_.client_tag);
  }
  return true;
}

bool QueryPipeline::Parse() {
  QueryResult& result = ctx_.result;
  // Logical plan generation (Section V).
  auto generated =
      system_.generator_->Generate(request_.text, ctx_.trace.get(),
                                   root_->id());
  if (!generated.ok()) {
    result.status = generated.status();
    result.phase = QueryPhase::kPlanning;
    return false;
  }
  result.plan_seconds += generated->planning_seconds;
  result.num_candidate_plans = static_cast<int>(generated->plans.size());
  result.used_fallback = generated->used_fallback;
  ctx_.generated = std::move(*generated);
  return true;
}

bool QueryPipeline::Optimize() {
  QueryResult& result = ctx_.result;
  // Physical plan generation + plan selection (Section VI), under the
  // request's per-query objective / mode overrides. The same oopts later
  // parameterize every mid-query Reoptimize call, so replans honor the
  // overrides too.
  ctx_.oopts = system_.optimizer_->options();
  ctx_.oopts.objective = ctx_.resolved.objective;
  ctx_.oopts.mode = ctx_.resolved.physical_mode;
  // The optimizer predicts and the executor runs under the same
  // intra-operator parallelism.
  ctx_.oopts.max_intra_op_parallelism = ctx_.resolved.max_intra_op_parallelism;
  auto physical = system_.optimizer_->SelectBest(ctx_.generated->plans,
                                                 ctx_.oopts, ctx_.trace.get(),
                                                 root_->id());
  if (!physical.ok()) {
    result.status = physical.status();
    result.phase = QueryPhase::kOptimization;
    return false;
  }
  result.plan_seconds += physical->optimize_llm_seconds;
  result.plan_debug = physical->DebugString();
  result.plan_explain = physical->Explain();
  result.predicted_exec_seconds = physical->est_makespan;
  result.predicted_exec_dollars = physical->est_total_dollars;

  // Deadline pre-check: if planning plus the *predicted* makespan already
  // overruns the budget, abort before spending execution-side LLM calls.
  if (request_.deadline_seconds > 0 &&
      result.plan_seconds + physical->est_makespan >
          request_.deadline_seconds) {
    result.status = Status::DeadlineExceeded(
        "predicted completion " +
        std::to_string(result.plan_seconds + physical->est_makespan) +
        "s exceeds deadline " + std::to_string(request_.deadline_seconds) +
        "s");
    result.phase = QueryPhase::kOptimization;
    return false;
  }
  ctx_.physical = std::move(*physical);
  return true;
}

void QueryPipeline::ExecutePlan() {
  QueryResult& result = ctx_.result;
  // Execution (Section III-C).
  ExecContext ectx;
  ectx.corpus = system_.corpus_;
  ectx.llm = system_.traced_llm_.get();
  ectx.numeric_stats = &system_.numeric_stats_;
  ectx.phrase_probes = system_.phrase_probes_.get();
  ectx.custom_ops = system_.options_.custom_ops;
  ectx.llm_batch_size = system_.options_.llm_batch_size;
  PlanExecutor::Options eopts = system_.options_.exec;
  eopts.max_intra_op_parallelism = ctx_.resolved.max_intra_op_parallelism;
  eopts.reoptimize_qerror_threshold =
      ctx_.resolved.reoptimize_qerror_threshold;
  eopts.max_reoptimizations = ctx_.resolved.max_reoptimizations;
  PlanExecutor executor(ectx, eopts);

  // Execute one node at a time in virtual dispatch order, ready once
  // planning finishes on the virtual clock (planning runs on the planner
  // tier, not the worker pool); while the query's re-optimization budget
  // lasts, the engine pauses at materialization points whose observed
  // cardinality diverges from the estimate and the un-executed suffix is
  // re-optimized there (docs/replanning.md).
  PlanExecutor::ExecutionState state;
  executor.Begin(*ctx_.physical, state, ctx_.trace.get(), root_->id(),
                 shared_pool_, result.arrival_seconds + result.plan_seconds);
  while (auto request = executor.Run(state)) {
    ConsiderReplan(*request, executor, state);
  }
  ExecutionResult exec = executor.Finish(state);
  result.replans = state.replans;
  result.exec_seconds = exec.virtual_seconds;
  result.exec_dollars = exec.llm_dollars_total;
  result.timeline = exec.timeline;
  result.adjusted = exec.adjusted;
  result.answer = exec.answer;
  result.status = exec.status;
  // Graceful degradation, the last line of defense: a *transient* LLM
  // failure that survived retries, plan adjustment AND the executor's
  // fallback replan becomes an empty answer instead of a failed query,
  // when the request opted in.
  if (ctx_.resolved.graceful_degradation &&
      llm::IsTransientLlmFailure(result.status)) {
    result.degraded = true;
    result.degraded_detail =
        "graceful degradation absorbed: " + result.status.ToString();
    result.status = Status::OK();
  }
  if (!result.status.ok()) {
    result.phase = QueryPhase::kExecution;
  } else if (request_.deadline_seconds > 0 &&
             result.plan_seconds + result.exec_seconds >
                 request_.deadline_seconds) {
    // Deadline post-check on the measured virtual completion (the answer
    // stays attached for diagnostics).
    result.status = Status::DeadlineExceeded(
        "completed at " +
        std::to_string(result.plan_seconds + result.exec_seconds) +
        "s, after the " + std::to_string(request_.deadline_seconds) +
        "s deadline");
    result.phase = QueryPhase::kExecution;
    // A degraded answer that also missed its deadline reports the miss.
    result.degraded = false;
    result.degraded_detail.clear();
  }
  EndStage(telemetry::kMetricStageExecute);
  Analyze(executor, state);
  EndStage(telemetry::kMetricStageAnalyze);
}

void QueryPipeline::ConsiderReplan(const ReplanRequest& request,
                                   PlanExecutor& executor,
                                   PlanExecutor::ExecutionState& state) {
  MetricAddCounter(telemetry::kMetricReplanConsidered);
  ReplanRecord record;
  record.trigger_node = request.node;
  record.trigger_var = request.output_var;
  record.observed_card = request.observed_card;
  record.estimated_card = request.estimated_card;
  record.qerror = request.qerror;
  record.elapsed_seconds = request.elapsed_seconds;

  // The planner-tier sanity check (PromptType::kReplanDecision), charged
  // to the query: its virtual seconds become the replan barrier's length
  // and its dollars join the query's execution spend.
  llm::LlmCall call;
  call.type = llm::PromptType::kReplanDecision;
  call.tier = llm::ModelTier::kPlanner;
  call.fields["query"] = request_.text;
  call.fields["node"] = request.output_var;
  call.fields["observed_card"] = FormatDouble(request.observed_card, 0);
  llm::LlmResult verdict = system_.traced_llm_->Call(call);
  record.decision_seconds = verdict.seconds;
  record.decision_dollars = verdict.dollars;

  // Suffix re-lowering under the measured cardinalities, costed from the
  // pause's end (trigger finish + decision time) — deterministic, keyed
  // on the observations only.
  const PhysicalPlan* adopt_plan = nullptr;
  StatusOr<ReoptimizeResult> reopt = system_.optimizer_->Reoptimize(
      state.plan, request.executed,
      CardinalityOverrides{request.observed_cards}, ctx_.oopts,
      request.elapsed_seconds + verdict.seconds);
  const bool endorsed =
      verdict.status.ok() && verdict.Get("verdict") == "reoptimize";
  if (endorsed && reopt.ok()) {
    record.nodes_rechosen = reopt->nodes_rechosen;
    record.est_bias = reopt->est_bias;
    if (ctx_.oopts.objective == OptimizeObjective::kDollars) {
      record.old_suffix_cost = reopt->old_suffix_dollars;
      record.new_suffix_cost = reopt->new_suffix_dollars;
    } else {
      record.old_suffix_cost = reopt->old_suffix_makespan;
      record.new_suffix_cost = reopt->new_suffix_makespan;
    }
    // Adopt only a strictly better predicted cost-to-go: ties keep the
    // plan in flight (re-lowering for free buys nothing but churn).
    if (reopt->changed &&
        record.new_suffix_cost < record.old_suffix_cost * (1 - 1e-9)) {
      adopt_plan = &reopt->plan;
    }
  }
  if (adopt_plan != nullptr) {
    MetricAddCounter(telemetry::kMetricReplanTriggered);
  }

  std::ostringstream detail;
  detail << "replan @ t=" << FormatDouble(request.elapsed_seconds, 1)
         << "s: " << request.output_var << " observed "
         << FormatDouble(request.observed_card, 0) << " vs est "
         << FormatDouble(request.estimated_card, 0) << " (q-err "
         << FormatDouble(request.qerror, 2) << ") -> ";
  if (adopt_plan != nullptr) {
    detail << "adopted (" << record.nodes_rechosen
           << " nodes re-lowered, suffix est "
           << FormatDouble(record.old_suffix_cost, 3) << " -> "
           << FormatDouble(record.new_suffix_cost, 3) << ")";
  } else {
    detail << "kept plan";
  }
  record.detail = detail.str();

  executor.ApplyReplan(state, std::move(record), adopt_plan);
}

void QueryPipeline::Analyze(PlanExecutor& executor,
                            const PlanExecutor::ExecutionState& state) {
  QueryResult& result = ctx_.result;
  // The plan that actually ran: the optimizer's choice, or — after an
  // adopted mid-query replan — the re-lowered plan. Analysis and
  // cost-model feedback must see this one, while plan_debug /
  // plan_explain / predicted_* keep reporting the original optimization.
  const PhysicalPlan& executed_plan = state.plan;
  // EXPLAIN ANALYZE + prediction accuracy: the optimizer's estimates
  // next to what execution measured, per node and plan-wide.
  result.plan_analysis =
      BuildPlanAnalysis(executed_plan, executor, system_.cost_model_,
                        ctx_.oopts.objective, result.replans);
  if (!result.replans.empty()) {
    // Lift the executor's query-relative node times onto the absolute
    // clock the replan predictions used: the schedule's start.
    AuditReplanOutcomes(result.replans, executor, ctx_.oopts.objective,
                        state.schedule->base());
  }
  if (result.exec_seconds > 0) {
    MetricObserve(
        telemetry::kMetricMakespanRelError,
        std::abs(result.predicted_exec_seconds - result.exec_seconds) /
            result.exec_seconds);
  }
  if (result.exec_dollars > 0) {
    MetricObserve(
        telemetry::kMetricDollarsRelError,
        std::abs(result.predicted_exec_dollars - result.exec_dollars) /
            result.exec_dollars);
  }

  // Feed measured costs back into the model (running calibration), against
  // the plan that actually ran — after an adopted replan the suffix nodes'
  // impls are the re-lowered ones. Off when cost_feedback is disabled,
  // keeping plan choice independent of which queries ran earlier.
  if (system_.options_.cost_feedback) {
    const auto& stats = executor.node_stats();
    for (size_t i = 0; i < stats.size() && i < executed_plan.nodes.size();
         ++i) {
      if (stats[i].llm_calls == 0) continue;
      size_t card = static_cast<size_t>(
          std::max(1.0, executed_plan.nodes[i].est_in_card));
      system_.cost_model_.Record(executed_plan.nodes[i].logical.op_name,
                                 executed_plan.nodes[i].impl, card,
                                 stats[i].llm_seconds, stats[i].cpu_seconds,
                                 stats[i].llm_dollars);
    }
  }
}

void QueryPipeline::Finalize() {
  QueryResult& result = ctx_.result;
  result.total_seconds = result.plan_seconds + result.exec_seconds;
  result.completion_seconds = result.arrival_seconds + result.total_seconds;
  if (result.status.ok()) {
    result.phase =
        result.degraded ? QueryPhase::kDegraded : QueryPhase::kComplete;
  }
  // The query's counters and histograms reach the process-wide registry
  // here, once, whichever stage stopped it. The sink comes off this
  // thread first, so nothing recorded later is left out of the merge.
  metrics_scope_.reset();
  result.metrics = ctx_.query_metrics.Snapshot();
  MetricsRegistry::Global().Merge(result.metrics);
  // Exact per-query cache attribution: the llm.cache.* counters were
  // recorded into this query's sink by every thread that worked on it,
  // so these are this query's items alone.
  auto cache_counter = [&](const char* name) -> int64_t {
    auto it = result.metrics.counters.find(name);
    return it == result.metrics.counters.end()
               ? 0
               : static_cast<int64_t>(it->second + 0.5);
  };
  result.cache_item_hits = cache_counter(telemetry::kMetricLlmCacheHits);
  result.cache_coalesced = cache_counter(telemetry::kMetricLlmCacheCoalesced);
  // Attach the trace and this query's metrics delta; the llm.*, plan.*,
  // sce.* and exec.* counter deltas become root-span attributes so they
  // survive into the exported Chrome JSON.
  if (ctx_.trace != nullptr) {
    root_->AddAttr("status", result.status.ok()
                                 ? std::string("ok")
                                 : result.status.ToString());
    root_->AddAttr("phase", QueryPhaseName(result.phase));
    root_->AddAttr("plan_seconds", result.plan_seconds);
    root_->AddAttr("exec_seconds", result.exec_seconds);
    root_->AddAttr("total_seconds", result.total_seconds);
    root_->AddAttr("exec_dollars", result.exec_dollars);
    if (!result.replans.empty()) {
      root_->AddAttr("replans", static_cast<double>(result.replans.size()));
    }
    root_->SetVirtualInterval(0, result.total_seconds);
    for (const auto& [name, value] : result.metrics.counters) {
      root_->AddAttr(name, value);
    }
  }
  result.trace = ctx_.trace;
}

}  // namespace unify::core
