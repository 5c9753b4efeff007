#include "core/runtime/executor.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <optional>

#include "common/metrics.h"
#include "common/query_scope.h"
#include "common/stats.h"
#include "common/telemetry_names.h"
#include "common/thread_pool.h"
#include "core/operators/custom_ops.h"
#include "core/runtime/plan_analysis.h"

namespace unify::core {
namespace {

/// Retries per failing operator during plan adjustment.
constexpr int kMaxAdjustments = 2;

/// The executor's MorselRunner for one node: runs the morsels on up to
/// `threads` wall-clock workers (one after another on the calling thread
/// when threads <= 1), each under the dispatching thread's query scope,
/// with one exec.partition span per morsel. Each morsel's scope puts a
/// registry of its own in the metrics field, merged into the dispatching
/// thread's sink in morsel order once they all finish, so the sink's sums
/// do not depend on which worker finished first. Keeps each
/// morsel's LLM seconds, in morsel order, for the node's parallel stream
/// on the server pool.
class NodeMorselRunner : public MorselRunner {
 public:
  NodeMorselRunner(int max_morsels, int threads, Trace* trace,
                   ScopedSpan& node_span)
      : max_morsels_(max_morsels),
        threads_(threads),
        trace_(trace),
        node_span_(node_span) {}

  int max_morsels() const override { return max_morsels_; }

  StatusOr<std::vector<OpStats>> Run(
      const std::vector<DocList>& chunks,
      const std::function<StatusOr<OpStats>(size_t)>& run,
      const std::function<void()>& merge) override {
    const size_t n = chunks.size();
    MetricAddCounter(telemetry::kMetricExecPartitions,
                     static_cast<double>(n));
    node_span_.AddAttr("partitions", static_cast<int64_t>(n));
    const QueryScope caller = QueryScope::Current();
    MetricsRegistry* const sink = caller.metrics;
    std::vector<StatusOr<OpStats>> parts(n,
                                         Status::Internal("morsel not run"));
    std::vector<MetricsRegistry> part_metrics(n);
    auto run_one = [&](size_t i) {
      QueryScope part_scope = caller;
      part_scope.metrics = &part_metrics[i];
      QueryScope::Installer install(part_scope);
      // Slot i is written only by the worker running morsel i.
      ScopedSpan part_span(trace_, telemetry::kSpanExecPartition,
                           node_span_.id());
      if (trace_ != nullptr) {
        part_span.AddAttr("partition", static_cast<int64_t>(i));
        part_span.AddAttr("docs", static_cast<int64_t>(chunks[i].size()));
      }
      parts[i] = run(i);
      if (trace_ != nullptr) {
        if (parts[i].ok()) {
          part_span.AddAttr("llm_seconds", parts[i]->llm_seconds);
          part_span.AddAttr("llm_calls", parts[i]->llm_calls);
        } else {
          part_span.AddAttr("status", parts[i].status().ToString());
        }
      }
    };
    if (threads_ > 1) {
      ThreadPool pool(std::min(static_cast<size_t>(threads_), n));
      for (size_t i = 0; i < n; ++i) {
        pool.Schedule([&run_one, i] { run_one(i); });
      }
      pool.Wait();
    } else {
      for (size_t i = 0; i < n; ++i) run_one(i);
    }
    MetricsRegistry& target =
        sink != nullptr ? *sink : MetricsRegistry::Global();
    for (const MetricsRegistry& part : part_metrics) {
      const MetricsSnapshot snapshot = part.Snapshot();
      target.Merge(snapshot);
      // Merge skips gauges: they were written through to Global(), which
      // holds the latest level, and the query's sink takes it from there.
      if (sink == nullptr) continue;
      for (const auto& gauge : snapshot.gauges) {
        sink->SetGauge(gauge.first,
                       MetricsRegistry::Global().gauge(gauge.first));
      }
    }
    std::vector<OpStats> stats;
    stats.reserve(n);
    for (StatusOr<OpStats>& part : parts) {
      if (!part.ok()) return part.status();
      stats.push_back(*part);
    }
    const auto merge_start = std::chrono::steady_clock::now();
    merge();
    const double merge_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      merge_start)
            .count();
    MetricObserve(telemetry::kMetricExecPartitionMerge, merge_seconds);
    node_span_.AddAttr("merge_seconds", merge_seconds);
    for (const OpStats& s : stats) llm_seconds_.push_back(s.llm_seconds);
    return stats;
  }

  /// Each successful morsel's LLM seconds, in morsel order.
  std::vector<double>& llm_seconds() { return llm_seconds_; }

 private:
  const int max_morsels_;
  const int threads_;
  Trace* const trace_;
  ScopedSpan& node_span_;
  std::vector<double> llm_seconds_;
};

}  // namespace

void PlanExecutor::Begin(const PhysicalPlan& plan, ExecutionState& state,
                         Trace* trace, SpanId parent,
                         exec::VirtualLlmPool* shared_pool,
                         double start_seconds) {
  const size_t n = plan.nodes.size();
  state.plan = plan;
  state.trace = trace;
  state.exec_span =
      std::make_unique<ScopedSpan>(trace, telemetry::kSpanExecute, parent);
  state.node_spans.assign(n, kNoSpan);
  state.nodes.assign(n, PlanNodeAnalysis{});
  exec::VirtualLlmPool* pool = shared_pool;
  if (pool == nullptr) {
    state.local_pool = std::make_unique<exec::VirtualLlmPool>(
        std::max(1, options_.num_servers));
    pool = state.local_pool.get();
    start_seconds = 0;
  }
  state.schedule.emplace(state.plan.dag, pool,
                         /*sequential=*/!options_.parallel, start_seconds);
  // A cycle is rejected before any node runs (and pays for LLM calls).
  state.run_status = state.schedule->status();
}

StatusOr<exec::NodeCost> PlanExecutor::RunNode(ExecutionState& state,
                                               int u) {
  const PhysicalNode& node = state.plan.nodes[u];
  Trace* trace = state.trace;
  PlanNodeAnalysis& row = state.nodes[u];
  ScopedSpan node_span(trace, telemetry::kSpanExecNode,
                       state.exec_span->id());
  state.node_spans[u] = node_span.id();
  MetricAddCounter(telemetry::kMetricExecNodes);
  if (trace != nullptr) {
    node_span.AddAttr("op", node.logical.op_name);
    node_span.AddAttr("impl", PhysicalImplName(node.impl));
    node_span.AddAttr("output_var", node.logical.output_var);
  }
  std::vector<Value> inputs;
  for (const auto& in : node.logical.input_vars) {
    if (in.empty()) continue;
    auto it = state.vars.find(in);
    if (it == state.vars.end()) {
      return Status::FailedPrecondition("missing input variable " + in +
                                        " for " + node.logical.op_name);
    }
    inputs.push_back(it->second);
  }
  for (const Value& in : inputs) {
    row.actual_in_card = std::max(row.actual_in_card,
                                  static_cast<double>(in.Cardinality()));
  }

  ExecContext ctx = ctx_;  // per-node copy (cheap; pointers only)

  // Morsel-driven intra-operator parallelism: a per-document LLM impl
  // over a flat document list lets its batched helper split into morsels
  // that the runner spreads over the worker threads. Only the first
  // attempt splits; grouped inputs, custom ops and plan-adjustment
  // alternatives run whole.
  std::optional<NodeMorselRunner> morsels;
  if (options_.max_intra_op_parallelism > 1 && ImplSplitsPerDoc(node.impl) &&
      !inputs.empty() && inputs[0].is<DocList>() &&
      (ctx.custom_ops == nullptr ||
       ctx.custom_ops->Find(node.logical.op_name) == nullptr)) {
    morsels.emplace(options_.max_intra_op_parallelism, options_.threads,
                    trace, node_span);
    ctx.morsels = &*morsels;
  }
  auto output = ExecuteOp(node.logical.op_name, node.impl, node.logical.args,
                          inputs, ctx);
  ctx.morsels = nullptr;
  exec::NodeCost cost;
  cost.max_parallelism = options_.max_intra_op_parallelism;
  if (output.ok() && morsels.has_value()) {
    cost.llm_partitions = std::move(morsels->llm_seconds());
  }

  // Plan adjustment (Section III-C): when an operator fails to produce
  // the expected result, retry with alternative physical
  // implementations instead of restarting the whole plan.
  if (!output.ok()) {
    node_span.AddAttr("adjusted", true);
    row.adjusted = true;
    MetricAddCounter(telemetry::kMetricExecAdjustments);
    for (int attempt = 0; attempt < kMaxAdjustments && !output.ok();
         ++attempt) {
      bool retried = false;
      for (PhysicalImpl alt :
           CandidateImpls(node.logical.op_name, node.logical.args)) {
        if (alt == node.impl) continue;
        if (node.logical.requires_semantics && !ImplSemanticCapable(alt)) {
          continue;
        }
        ++row.retries;
        auto retry = ExecuteOp(node.logical.op_name, alt,
                               node.logical.args, inputs, ctx);
        if (retry.ok()) {
          output = std::move(retry);
          retried = true;
          break;
        }
      }
      if (!retried) break;
    }
  }

  if (!output.ok()) {
    node_span.AddAttr("status", output.status().ToString());
    return output.status();
  }
  const OpStats& stats = output->stats;
  if (trace != nullptr) {
    node_span.AddAttr("llm_seconds", stats.llm_seconds);
    node_span.AddAttr("llm_calls", stats.llm_calls);
    node_span.AddAttr("cpu_seconds", stats.cpu_seconds);
    node_span.AddAttr("dollars", stats.llm_dollars);
  }
  row.executed = true;
  row.actual_out_card = static_cast<double>(output->value.Cardinality());
  row.actual_seconds = stats.cpu_seconds + stats.llm_seconds;
  row.llm_seconds = stats.llm_seconds;
  row.actual_dollars = stats.llm_dollars;
  row.llm_calls = stats.llm_calls;
  row.partitions = std::max(1, static_cast<int>(cost.llm_partitions.size()));
  cost.cpu_seconds = stats.cpu_seconds;
  cost.llm_seconds = stats.llm_seconds;
  if (!node.logical.output_var.empty()) {
    state.vars[node.logical.output_var] = output->value;
  }
  return cost;
}

std::optional<ReplanRecord> PlanExecutor::Run(ExecutionState& state) {
  while (state.run_status.ok()) {
    // Begin() checked the DAG is acyclic, so an exhausted schedule means
    // every node ran.
    const std::optional<exec::Dispatch> next = state.schedule->Next();
    if (!next.has_value()) return std::nullopt;
    const int u = next->node;
    StatusOr<exec::NodeCost> cost = RunNode(state, u);
    state.run_status = cost.status();
    if (!cost.ok()) return std::nullopt;
    const double finish = state.schedule->Complete(*next, *cost);

    // Materialization-point trigger: while the re-optimization budget
    // lasts, pause when the node's observed cardinality diverges from the
    // optimizer's estimate and un-executed nodes remain that a replan
    // could still improve.
    const PhysicalNode& node = state.plan.nodes[u];
    const double observed = state.nodes[u].actual_out_card;
    if (state.replan_yields >= options_.max_reoptimizations ||
        node.logical.output_var.empty() ||
        std::all_of(state.nodes.begin(), state.nodes.end(),
                    [](const PlanNodeAnalysis& row) { return row.executed; })) {
      continue;
    }
    const double qerr = QError(node.est_out_card, observed);
    if (qerr < options_.reoptimize_qerror_threshold) continue;
    ++state.replan_yields;
    ReplanRecord trigger;
    trigger.trigger_node = u;
    trigger.trigger_var = node.logical.output_var;
    trigger.observed_card = observed;
    trigger.estimated_card = node.est_out_card;
    trigger.qerror = qerr;
    trigger.elapsed_seconds = finish;
    return trigger;
  }
  return std::nullopt;
}

void PlanExecutor::ApplyReplan(ExecutionState& state, ReplanRecord record,
                               const PhysicalPlan* new_plan) {
  // The decision call is charged to the query whether or not the suffix
  // is adopted (Finish adds it to the totals), and the pause is a
  // barrier: nothing resumes before the planner's verdict lands on the
  // virtual clock.
  state.schedule->Floor(record.elapsed_seconds + record.decision_seconds);
  record.adopted = new_plan != nullptr;
  for (size_t i = 0; i < state.plan.nodes.size(); ++i) {
    if (!state.nodes[i].executed) {
      record.suffix_nodes.push_back(static_cast<int>(i));
    }
  }
  if (new_plan != nullptr) state.plan = *new_plan;
  ScopedSpan replan_span(state.trace, telemetry::kSpanExecReplan,
                         state.exec_span->id());
  if (state.trace != nullptr) {
    replan_span.AddAttr("trigger_node", static_cast<int64_t>(
                                            record.trigger_node));
    replan_span.AddAttr("trigger_var", record.trigger_var);
    replan_span.AddAttr("qerror", record.qerror);
    replan_span.AddAttr("adopted", record.adopted);
    replan_span.AddAttr("nodes_rechosen",
                        static_cast<int64_t>(record.nodes_rechosen));
    replan_span.AddAttr("decision_seconds", record.decision_seconds);
    replan_span.AddAttr("old_suffix_cost", record.old_suffix_cost);
    replan_span.AddAttr("new_suffix_cost", record.new_suffix_cost);
  }
  state.replans.push_back(std::move(record));
}

ExecutionResult PlanExecutor::Finish(ExecutionState& state) {
  ExecutionResult result;
  ScopedSpan& exec_span = *state.exec_span;
  Trace* trace = state.trace;
  std::vector<PlanNodeAnalysis>& rows = state.nodes;
  const size_t n = state.plan.nodes.size();
  for (size_t i = 0; i < n; ++i) {
    result.llm_seconds_total += rows[i].llm_seconds;
    result.llm_dollars_total += rows[i].actual_dollars;
    result.llm_calls += rows[i].llm_calls;
    result.adjusted |= rows[i].adjusted;
  }
  // Replan decision calls are execution-side spend: their virtual time is
  // already modeled by the resume barrier, their dollars/calls land here.
  double replan_seconds = 0;
  double replan_dollars = 0;
  for (const ReplanRecord& rec : state.replans) {
    replan_seconds += rec.decision_seconds;
    replan_dollars += rec.decision_dollars;
  }
  result.llm_seconds_total += replan_seconds;
  result.llm_dollars_total += replan_dollars;
  result.llm_calls += static_cast<int64_t>(state.replans.size());

  // Report times relative to the query's own ready time, so standalone
  // and served queries read the same way; contention shows up as a
  // longer makespan and per-node queue waits.
  const exec::ScheduleResult& sched = state.schedule->result();
  const double base = state.schedule->base();
  result.virtual_seconds = sched.makespan - base;
  // The estimated side of each row comes from the plan that ran. Each
  // node span is annotated with the node's virtual interval on the
  // server pool, plus the time it spent waiting for a free server.
  for (size_t i = 0; i < n; ++i) {
    const PhysicalNode& node = state.plan.nodes[i];
    PlanNodeAnalysis& row = rows[i];
    row.node = static_cast<int>(i);
    row.op_name = node.logical.op_name;
    row.impl = PhysicalImplName(node.impl);
    row.output_var = node.logical.output_var;
    row.est_in_card = node.est_in_card;
    row.est_out_card = node.est_out_card;
    row.est_seconds = node.est_seconds;
    row.est_dollars = node.est_dollars;
    row.est_partitions = node.est_partitions;
    row.virt_start = sched.start[i] - base;
    row.virt_finish = sched.finish[i] - base;
    row.queue_wait_seconds = std::max(
        0.0, sched.finish[i] - sched.start[i] - row.actual_seconds);
    MetricObserve(telemetry::kMetricExecQueueWait, row.queue_wait_seconds);
    if (trace != nullptr && state.node_spans[i] != kNoSpan) {
      trace->SetVirtualInterval(state.node_spans[i], row.virt_start,
                                row.virt_finish);
      trace->AddAttr(state.node_spans[i], "queue_wait_seconds",
                     row.queue_wait_seconds);
    }
  }
  // Fraction of the pool's capacity the plan actually kept busy.
  if (result.virtual_seconds > 0) {
    const double capacity =
        static_cast<double>(state.schedule->pool()->num_servers()) *
        result.virtual_seconds;
    const double occupancy = result.llm_seconds_total / capacity;
    MetricSetGauge(telemetry::kMetricExecPoolOccupancy, occupancy);
    exec_span.AddAttr("pool_occupancy", occupancy);
  }
  exec_span.SetVirtualInterval(0, result.virtual_seconds);
  auto finalize = [&]() {
    result.timeline = RenderTimeline(rows, state.replans, base);
    result.nodes = std::move(rows);
    if (trace == nullptr) return;
    exec_span.AddAttr("virtual_seconds", result.virtual_seconds);
    exec_span.AddAttr("llm_seconds", result.llm_seconds_total);
    exec_span.AddAttr("llm_calls", result.llm_calls);
    exec_span.AddAttr("dollars", result.llm_dollars_total);
    exec_span.AddAttr("adjusted", result.adjusted);
    if (!result.status.ok()) {
      exec_span.AddAttr("status", result.status.ToString());
    }
  };
  if (!state.run_status.ok()) {
    // Plan adjustment, stage 2 (Section III-C): an operator failed with
    // every implementation (e.g. a zero-denominator ratio, an empty
    // aggregate). Instead of restarting from scratch, replan the query
    // through the Section V-D fallback strategies.
    if (ctx_.llm != nullptr && !state.plan.query_text.empty()) {
      ScopedSpan fallback_span(trace, telemetry::kSpanExecFallback,
                               exec_span.id());
      fallback_span.AddAttr("failed_status", state.run_status.ToString());
      llm::LlmCall choose;
      choose.type = llm::PromptType::kChooseFallbackStrategy;
      choose.tier = llm::ModelTier::kPlanner;
      choose.fields["query"] = state.plan.query_text;
      llm::LlmResult strategy = ctx_.llm->Call(choose);
      result.llm_seconds_total += strategy.seconds;
      result.llm_dollars_total += strategy.dollars;
      result.llm_calls += 1;
      // Status contract: a failed strategy choice must not be mistaken for
      // a completion. Fall back to the default RAG strategy explicitly
      // (the call's time/dollars are already charged above).
      const std::string chosen =
          strategy.status.ok() ? strategy.Get("strategy", "rag") : "rag";
      if (!strategy.status.ok()) {
        fallback_span.AddAttr("choose_status", strategy.status.ToString());
      }

      OpArgs args{{"query", state.plan.query_text},
                  {"strategy", chosen},
                  {"retrieve_k", "100"}};
      fallback_span.AddAttr("strategy", chosen);
      DocList all;
      all.reserve(ctx_.corpus->size());
      for (uint64_t id = 0; id < ctx_.corpus->size(); ++id) {
        all.push_back(id);
      }
      ExecContext ctx = ctx_;
      auto fallback = ExecuteOp("Generate", PhysicalImpl::kLlmGenerate,
                                args, {Value::Docs(std::move(all))}, ctx);
      if (fallback.ok()) {
        const OpStats& stats = fallback->stats;
        result.llm_seconds_total += stats.llm_seconds;
        result.llm_dollars_total += stats.llm_dollars;
        result.llm_calls += stats.llm_calls;
        // The fallback generation is one more stream on the server pool,
        // ready once the strategy call has returned and the generation's
        // CPU work is done.
        const double failed_at = result.virtual_seconds;
        const double fb_ready =
            base + failed_at + strategy.seconds + stats.cpu_seconds;
        result.virtual_seconds =
            state.schedule->pool()->ScheduleStream(fb_ready,
                                                   stats.llm_seconds) -
            base;
        // A synthetic row for the fallback generation, strategy call
        // included — it has no plan node, but EXPLAIN ANALYZE should
        // still show what actually produced the answer
        // (docs/observability.md, "EXPLAIN ANALYZE").
        PlanNodeAnalysis& row = rows.emplace_back();
        row.op_name = "Generate";
        row.impl = PhysicalImplName(PhysicalImpl::kLlmGenerate);
        row.output_var = "(fallback)";
        row.executed = true;
        row.synthetic_fallback = true;
        row.adjusted = true;
        row.actual_in_card = static_cast<double>(ctx_.corpus->size());
        row.actual_out_card =
            static_cast<double>(fallback->value.Cardinality());
        row.llm_seconds = stats.llm_seconds + strategy.seconds;
        row.actual_seconds = stats.cpu_seconds + row.llm_seconds;
        row.actual_dollars = stats.llm_dollars + strategy.dollars;
        row.llm_calls = stats.llm_calls + 1;
        row.virt_start = failed_at;
        row.virt_finish = result.virtual_seconds;
        row.queue_wait_seconds = std::max(
            0.0, row.virt_finish - row.virt_start - row.actual_seconds);
        result.answer = fallback->value.ToAnswer();
        result.adjusted = true;
        finalize();
        return result;
      }
    }
    result.status = state.run_status;
    result.answer = corpus::Answer::None();
    finalize();
    return result;
  }
  auto it = state.vars.find(state.plan.answer_var);
  if (it == state.vars.end()) {
    result.status = Status::NotFound("answer variable " +
                                     state.plan.answer_var + " not bound");
    result.answer = corpus::Answer::None();
    finalize();
    return result;
  }
  result.answer = it->second.ToAnswer();
  finalize();
  return result;
}

ExecutionResult PlanExecutor::Execute(const PhysicalPlan& plan, Trace* trace,
                                      SpanId parent) {
  ExecutionState state;
  Begin(plan, state, trace, parent);
  while (Run(state)) {
    // No re-optimizer to consult: resume with the plan kept.
  }
  return Finish(state);
}

}  // namespace unify::core
