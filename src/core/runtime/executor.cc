#include "core/runtime/executor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <optional>

#include "common/metrics.h"
#include "common/stats.h"
#include "common/telemetry_names.h"
#include "common/thread_pool.h"
#include "core/operators/custom_ops.h"

namespace unify::core {
namespace {

/// Retries per failing operator during plan adjustment.
constexpr int kMaxAdjustments = 2;

/// The executor's MorselRunner for one node: runs the morsels on up to
/// `threads` wall-clock workers (one after another on the calling thread
/// when threads <= 1), each under the dispatching thread's retry budget
/// and cache routing, with one exec.partition span per morsel. Each
/// morsel records its metrics into a registry of its own, merged into the
/// dispatching thread's sink in morsel order once they all finish, so the
/// sink's sums do not depend on which worker finished first. Keeps each
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
    MetricsRegistry* const sink = MetricsRegistry::ThreadSink();
    llm::RetryBudget* const budget = llm::RetryBudget::Current();
    const std::optional<bool> use_cache =
        llm::SharedCacheLlmClient::ThreadRouting();
    std::vector<StatusOr<OpStats>> parts(n,
                                         Status::Internal("morsel not run"));
    std::vector<MetricsRegistry> part_metrics(n);
    auto run_one = [&](size_t i) {
      MetricsRegistry::ScopedSink part_sink(&part_metrics[i]);
      llm::RetryBudget::ScopedUse part_budget(budget);
      std::optional<llm::SharedCacheLlmClient::ScopedUse> part_cache;
      if (use_cache.has_value()) part_cache.emplace(*use_cache);
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
  node_stats_.assign(n, OpStats{});
  node_executions_.assign(n, NodeExecution{});
  fallback_execution_.reset();
  fallback_stats_ = OpStats{};
  state.node_spans.assign(n, kNoSpan);
  state.done.assign(n, false);
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
  NodeExecution& record = node_executions_[u];
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
    record.actual_in_card =
        std::max(record.actual_in_card,
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
    state.adjusted = true;
    node_span.AddAttr("adjusted", true);
    record.adjusted = true;
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
        ++record.retries;
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
  if (trace != nullptr) {
    node_span.AddAttr("llm_seconds", output->stats.llm_seconds);
    node_span.AddAttr("llm_calls", output->stats.llm_calls);
    node_span.AddAttr("cpu_seconds", output->stats.cpu_seconds);
    node_span.AddAttr("dollars", output->stats.llm_dollars);
  }
  node_stats_[u] = output->stats;
  record.executed = true;
  record.actual_out_card = static_cast<double>(output->value.Cardinality());
  record.partitions = std::max(1, static_cast<int>(cost.llm_partitions.size()));
  state.done[u] = true;
  if (!node.logical.output_var.empty()) {
    state.vars[node.logical.output_var] = output->value;
  }
  cost.cpu_seconds = output->stats.cpu_seconds;
  cost.llm_seconds = output->stats.llm_seconds;
  return cost;
}

std::optional<ReplanRequest> PlanExecutor::Run(ExecutionState& state) {
  const size_t n = state.plan.nodes.size();
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
    const double observed = node_executions_[u].actual_out_card;
    if (state.replan_yields >= options_.max_reoptimizations ||
        node.logical.output_var.empty() ||
        std::count(state.done.begin(), state.done.end(), true) ==
            static_cast<std::ptrdiff_t>(n)) {
      continue;
    }
    const double qerr = QError(node.est_out_card, observed);
    if (qerr < options_.reoptimize_qerror_threshold) continue;
    ++state.replan_yields;
    ReplanRequest req;
    req.node = u;
    req.output_var = node.logical.output_var;
    req.observed_card = observed;
    req.estimated_card = node.est_out_card;
    req.qerror = qerr;
    req.elapsed_seconds = finish;
    req.executed = state.done;
    for (size_t i = 0; i < n; ++i) {
      const std::string& var = state.plan.nodes[i].logical.output_var;
      if (state.done[i] && !var.empty()) {
        req.observed_cards[var] = node_executions_[i].actual_out_card;
      }
    }
    return req;
  }
  return std::nullopt;
}

void PlanExecutor::ApplyReplan(ExecutionState& state, ReplanRecord record,
                               const PhysicalPlan* new_plan) {
  // The decision call is charged to the query whether or not the suffix
  // is adopted, and the pause is a barrier: nothing resumes before the
  // planner's verdict lands on the virtual clock.
  state.replan_seconds += record.decision_seconds;
  state.replan_dollars += record.decision_dollars;
  state.replan_calls += 1;
  state.schedule->Floor(record.elapsed_seconds + record.decision_seconds);
  record.adopted = new_plan != nullptr;
  for (size_t i = 0; i < state.plan.nodes.size(); ++i) {
    if (!state.done[i]) record.suffix_nodes.push_back(static_cast<int>(i));
  }
  if (new_plan != nullptr) {
    for (int i : record.suffix_nodes) {
      const PhysicalNode& before = state.plan.nodes[i];
      const PhysicalNode& after = new_plan->nodes[i];
      if (before.impl != after.impl ||
          before.logical.args != after.logical.args) {
        record.relowered_nodes.push_back(i);
      }
    }
    state.plan = *new_plan;
  }
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
  for (size_t i = 0; i < node_stats_.size(); ++i) {
    const OpStats& stats = node_stats_[i];
    result.llm_seconds_total += stats.llm_seconds;
    result.llm_dollars_total += stats.llm_dollars;
    result.llm_calls += stats.llm_calls;
  }
  // Replan decision calls are execution-side spend: their virtual time is
  // already modeled by the resume barrier, their dollars/calls land here.
  result.llm_seconds_total += state.replan_seconds;
  result.llm_dollars_total += state.replan_dollars;
  result.llm_calls += state.replan_calls;

  // Report times relative to the query's own ready time, so standalone
  // and served queries read the same way; contention shows up as a
  // longer makespan and per-node queue waits.
  const exec::ScheduleResult& sched = state.schedule->result();
  const double base = state.schedule->base();
  result.virtual_seconds = sched.makespan - base;
  // Annotate each node span with its virtual interval on the server
  // pool, plus the time it spent waiting for a free server.
  for (size_t i = 0; i < state.plan.nodes.size(); ++i) {
    const double busy = node_stats_[i].cpu_seconds + node_stats_[i].llm_seconds;
    const double queue_wait =
        std::max(0.0, sched.finish[i] - sched.start[i] - busy);
    MetricObserve(telemetry::kMetricExecQueueWait, queue_wait);
    NodeExecution& record = node_executions_[i];
    record.virt_start = sched.start[i] - base;
    record.virt_finish = sched.finish[i] - base;
    record.queue_wait_seconds = queue_wait;
    if (trace != nullptr && state.node_spans[i] != kNoSpan) {
      trace->SetVirtualInterval(state.node_spans[i], record.virt_start,
                                record.virt_finish);
      trace->AddAttr(state.node_spans[i], "queue_wait_seconds", queue_wait);
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
  // Execution timeline for observability.
  std::string timeline;
  char line[256];
  for (size_t i = 0; i < state.plan.nodes.size(); ++i) {
    std::snprintf(line, sizeof(line),
                  "t=%8.2fs..%8.2fs  %-10s <%s> -> %s  (llm %.2fs, %lld "
                  "calls)\n",
                  node_executions_[i].virt_start,
                  node_executions_[i].virt_finish,
                  state.plan.nodes[i].logical.op_name.c_str(),
                  PhysicalImplName(state.plan.nodes[i].impl),
                  state.plan.nodes[i].logical.output_var.c_str(),
                  node_stats_[i].llm_seconds,
                  static_cast<long long>(node_stats_[i].llm_calls));
    timeline += line;
  }
  for (size_t r = 0; r < state.replans.size(); ++r) {
    const ReplanRecord& rec = state.replans[r];
    std::snprintf(line, sizeof(line),
                  "t=%8.2fs  -- replan #%zu after %s: observed %.0f vs "
                  "est %.0f (q-err %.1f) -> %s\n",
                  rec.elapsed_seconds - base, r + 1,
                  rec.trigger_var.c_str(), rec.observed_card,
                  rec.estimated_card, rec.qerror,
                  rec.adopted ? "suffix re-lowered" : "kept plan");
    timeline += line;
  }
  result.timeline = std::move(timeline);

  result.adjusted = state.adjusted;
  auto finalize = [&]() {
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
        result.llm_seconds_total += fallback->stats.llm_seconds;
        result.llm_dollars_total += fallback->stats.llm_dollars;
        result.llm_calls += fallback->stats.llm_calls;
        // The fallback generation is one more stream on the server pool.
        const double fb_ready =
            base + result.virtual_seconds + fallback->stats.cpu_seconds;
        result.virtual_seconds =
            state.schedule->pool()->ScheduleStream(
                fb_ready, fallback->stats.llm_seconds) -
            base;
        // A synthetic execution record for the fallback generation — it
        // has no plan node, but EXPLAIN ANALYZE should still show what
        // actually produced the answer (docs/replanning.md).
        fallback_stats_ = fallback->stats;
        fallback_stats_.llm_seconds += strategy.seconds;
        fallback_stats_.llm_dollars += strategy.dollars;
        fallback_stats_.llm_calls += 1;
        NodeExecution fb;
        fb.executed = true;
        fb.adjusted = true;
        fb.actual_in_card = static_cast<double>(ctx_.corpus->size());
        fb.actual_out_card =
            static_cast<double>(fallback->value.Cardinality());
        fb.virt_start = fb_ready - base;
        fb.virt_finish = result.virtual_seconds;
        fb.queue_wait_seconds =
            std::max(0.0, fb.virt_finish - fb.virt_start -
                              fallback->stats.llm_seconds);
        fallback_execution_ = fb;
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
