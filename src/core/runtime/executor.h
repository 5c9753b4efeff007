#ifndef UNIFY_CORE_RUNTIME_EXECUTOR_H_
#define UNIFY_CORE_RUNTIME_EXECUTOR_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/physical/physical_plan.h"
#include "corpus/answer.h"
#include "exec/virtual_pool.h"
#include "llm/resilient_client.h"
#include "llm/shared_cache.h"

namespace unify::core {

/// The outcome of executing one physical plan.
struct ExecutionResult {
  Status status = Status::OK();
  corpus::Answer answer;
  /// Virtual end-to-end execution time: operator streams scheduled on the
  /// LLM server pool respecting plan dependencies (Section III-C).
  double virtual_seconds = 0;
  /// Total LLM stream time across all operators (resource usage).
  double llm_seconds_total = 0;
  /// Total API spend across all operators.
  double llm_dollars_total = 0;
  int64_t llm_calls = 0;
  /// True when plan adjustment fired (an operator failed and was retried
  /// with a different implementation).
  bool adjusted = false;
  /// True when graceful degradation absorbed a terminal transient failure:
  /// `status` is OK, the answer is partial/empty, and `degraded_detail`
  /// names the failure (Options::graceful_degradation must be set).
  bool degraded = false;
  std::string degraded_detail;
  /// Human-readable execution timeline: one line per operator with its
  /// virtual start/finish on the server pool and measured LLM usage,
  /// followed by one marker line per mid-query replan (when any fired).
  std::string timeline;
};

/// What execution actually measured for one DAG node — the "actual" side
/// of EXPLAIN ANALYZE (the "estimated" side lives on PhysicalNode).
/// Indexed like PhysicalPlan::nodes / PlanExecutor::node_stats().
struct NodeExecution {
  /// False when the node never ran (an upstream failure aborted the DAG).
  bool executed = false;
  /// Measured input cardinality (max over input values, the same
  /// convention the optimizer uses for est_in_card).
  double actual_in_card = 0;
  /// Measured output cardinality of the value the node produced.
  double actual_out_card = 0;
  /// Morsels the node actually ran as (1 = sequential single stream).
  int partitions = 1;
  /// True when plan adjustment fired on this node (its first impl failed).
  bool adjusted = false;
  /// Alternative implementations tried during adjustment.
  int retries = 0;
  /// Virtual interval on the server pool, relative to the query's ready
  /// time, and the wait for a free server inside it.
  double virt_start = 0;
  double virt_finish = 0;
  double queue_wait_seconds = 0;
};

/// A materialization point at which the engine paused: node
/// `node` just finished with a cardinality q-error at or above the
/// configured threshold, and un-executed nodes remain that a replan could
/// still improve. The pipeline answers with ApplyReplan (adopting a
/// re-lowered suffix or not) and calls Run again to resume.
struct ReplanRequest {
  int node = -1;
  std::string output_var;
  double observed_card = 0;
  double estimated_card = 0;
  /// QError(estimated_card, observed_card) — the trigger value.
  double qerror = 0;
  /// Absolute virtual time on the execution pool at which the trigger
  /// node finished (private pools start at 0, shared pools at the query's
  /// execution-ready time). Re-optimization costs its suffix from here.
  double elapsed_seconds = 0;
  /// Which plan nodes have finished executing (indexed like plan.nodes).
  std::vector<bool> executed;
  /// Every cardinality execution has materialized so far, keyed by the
  /// producing node's output variable — the facts handed to
  /// PhysicalOptimizer::Reoptimize as CardinalityOverrides.
  std::map<std::string, double> observed_cards;
};

/// One mid-query re-optimization, adopted or not (docs/replanning.md).
/// Produced by the query pipeline's replan loop, retained on QueryResult
/// for EXPLAIN ANALYZE, the flight recorder, and the \replan shell view.
struct ReplanRecord {
  /// The materialization point that fired the trigger.
  int trigger_node = -1;
  std::string trigger_var;
  double observed_card = 0;
  double estimated_card = 0;
  double qerror = 0;
  /// Absolute virtual time at which the trigger node finished.
  double elapsed_seconds = 0;
  /// The planner-tier replan decision call, charged to the query.
  double decision_seconds = 0;
  double decision_dollars = 0;
  /// Whether the re-lowered suffix was adopted (strictly better predicted
  /// cost-to-go under the query's objective) and what changed.
  bool adopted = false;
  int nodes_rechosen = 0;
  /// Geometric-mean observed/estimated cardinality bias the re-optimizer
  /// measured over executed nodes.
  double est_bias = 1.0;
  /// Predicted cost-to-go of the un-executed suffix under the measured
  /// cardinalities, in the query's objective (virtual seconds under
  /// kTime, dollars under kDollars): keeping the old impls vs the
  /// re-lowered ones.
  double old_suffix_cost = 0;
  double new_suffix_cost = 0;
  /// Plan nodes whose impl or args the adopted replan changed.
  std::vector<int> relowered_nodes;
  /// Every plan node still un-executed when the trigger fired (the
  /// suffix the predicted costs above cover) — the basis of the
  /// completion-time improved/not-improved audit.
  std::vector<int> suffix_nodes;
  /// Human-readable one-line summary (flight recorder detail).
  std::string detail;
};

/// The execution module (paper Section III-C): runs a physical plan with
/// parallel topological execution, dynamic plan adjustment on operator
/// failure, and virtual-time accounting on the simulated LLM server pool.
///
/// One engine, driven by Begin()/Run()/ApplyReplan()/Finish(): Run()
/// materializes one node at a time on the calling thread, in the order
/// the list scheduler (exec::ScheduleDag) would dispatch them, and
/// schedules each node's measured stream on the pool the moment it
/// finishes. While the query's re-optimization budget
/// (`max_reoptimizations`) lasts, Run() also pauses at materialization
/// points whose observed cardinality diverges from the optimizer's
/// estimate, so the query pipeline can re-optimize the un-executed
/// suffix mid-flight (docs/replanning.md). Execute() drives the same
/// calls to completion for callers without a re-optimizer.
class PlanExecutor {
 public:
  struct Options {
    /// LLM servers (paper: 4 local Llamas).
    int num_servers = 4;
    /// Disable DAG parallelism (the Unify–noLO ablation, Section VII-D).
    bool parallel = true;
    /// Wall-clock worker threads for a node's morsels; 0 or 1 runs them
    /// one after another on the calling thread. Each worker inherits the
    /// calling thread's metrics sink, retry budget and cache routing.
    /// Virtual time is unaffected.
    int threads = 0;
    /// Retries per failing operator during plan adjustment.
    int max_adjustments = 2;
    /// Morsel-driven intra-operator parallelism: a per-document LLM impl
    /// (ImplSplitsPerDoc) splits its batches into up to this many
    /// whole-batch morsels that occupy distinct virtual servers
    /// concurrently (and run on `threads` wall-clock workers when set).
    /// Answers are byte-identical for every setting; 1 reproduces the
    /// sequential single-stream model exactly.
    int max_intra_op_parallelism = 1;
    /// Observed-vs-estimated cardinality q-error at or above which a
    /// materialization point yields a ReplanRequest.
    double reoptimize_qerror_threshold = 3.0;
    /// Mid-query re-optimization budget (docs/replanning.md): replan
    /// pauses per query, each costing one planner-tier decision call.
    /// 0 never pauses; any positive value arms the q-error trigger.
    int max_reoptimizations = 0;
    /// Shared virtual LLM server pool (a UnifyService serving session):
    /// this plan's operator streams compete with every other in-flight
    /// query's streams, so the reported virtual times include cross-query
    /// queueing. Null = a fresh private pool of `num_servers` (the
    /// standalone one-query-at-a-time model). Must outlive the executor.
    exec::VirtualLlmPool* shared_pool = nullptr;
    /// Absolute virtual time at which the plan becomes ready on
    /// `shared_pool` (the query's arrival + planning time). Ignored for a
    /// private pool, which always starts at 0.
    double start_seconds = 0;
    /// When the DAG fails with a *transient* LLM failure
    /// (llm::IsTransientLlmFailure) that even the Section V-D fallback
    /// replan could not cure, finish with ExecutionResult::degraded and an
    /// empty answer instead of a failed status (docs/resilience.md).
    bool graceful_degradation = false;
  };

  /// Everything one plan execution carries across the engine's pauses:
  /// the (possibly replanned) plan, the DAG frontier, bound variable
  /// values, the virtual-time schedule so far, and the replans applied so
  /// far. Created by Begin(), advanced by Run(), finalized by Finish().
  struct ExecutionState {
    /// The plan being executed. ApplyReplan swaps in the re-lowered plan;
    /// executed nodes are pinned verbatim by the Reoptimize contract.
    PhysicalPlan plan;
    Trace* trace = nullptr;
    std::unique_ptr<ScopedSpan> exec_span;
    std::map<std::string, Value> vars;
    bool adjusted = false;
    Status run_status = Status::OK();
    /// Span of each DAG node, for post-hoc virtual-interval annotation.
    std::vector<SpanId> node_spans;
    /// Per-partition LLM stream seconds of nodes that actually split.
    std::vector<std::vector<double>> node_partitions;
    /// Which nodes have finished executing.
    std::vector<bool> done;

    /// Virtual-time accounting: each node's stream is scheduled the
    /// moment it materializes, so elapsed time is known at pause points.
    /// `base` is the plan's ready time on `pool` (0 on a private pool).
    double base = 0;
    std::unique_ptr<exec::VirtualLlmPool> local_pool;
    exec::VirtualLlmPool* pool = nullptr;
    /// Absolute start/finish of each node on the pool.
    std::vector<double> sched_start;
    std::vector<double> sched_finish;
    /// Absolute completion time of everything scheduled so far.
    double makespan = 0;
    /// Dispatch frontier: nodes whose dependencies finished, with their
    /// ready times (absolute), and remaining parent counts. In sequential
    /// mode the frontier is the whole topological order and
    /// `frontier_pos` walks it; in parallel mode Run() pops the
    /// earliest-ready entry (ties to the lower node index), mirroring the
    /// list scheduler exactly.
    std::vector<std::pair<double, int>> frontier;
    size_t frontier_pos = 0;
    std::vector<int> pending_parents;
    /// Sequential-mode (parallel=false) virtual clock.
    double seq_clock = 0;
    /// Barrier: no node may start before this absolute time (a replan
    /// pause floors the un-executed suffix to trigger finish + decision
    /// time).
    double resume_floor = 0;

    /// Replans applied so far and their charged decision costs.
    std::vector<ReplanRecord> replans;
    int replan_yields = 0;
    double replan_seconds = 0;
    double replan_dollars = 0;
    int64_t replan_calls = 0;
  };

  PlanExecutor(ExecContext ctx, Options options)
      : ctx_(ctx), options_(options) {}

  /// Executes `plan` to completion (Begin, Run until done, Finish) and
  /// converts the answer variable to an Answer. There is no re-optimizer
  /// to consult, so a replan pause, if `max_reoptimizations` arms one,
  /// resumes with the plan kept.
  ExecutionResult Execute(const PhysicalPlan& plan, Trace* trace = nullptr,
                          SpanId parent = kNoSpan);

  /// Initializes `state` for executing `plan`. When `trace` is non-null a
  /// telemetry::kSpanExecute span (child of `parent`) is recorded with one
  /// kSpanExecNode span per DAG node, annotated by Finish() with the node's
  /// virtual-time interval on the simulated server pool. A plan whose DAG
  /// has a cycle fails here, before any node runs.
  void Begin(const PhysicalPlan& plan, ExecutionState& state,
             Trace* trace = nullptr, SpanId parent = kNoSpan);

  /// Executes nodes one at a time in virtual dispatch order (the order
  /// the list scheduler would dispatch them) until either a
  /// materialization point trips the replan trigger — returning the
  /// ReplanRequest to answer with ApplyReplan before calling Run again —
  /// or the DAG completes or fails (returns nullopt; call Finish). A
  /// failing node stops the run: no further node executes.
  std::optional<ReplanRequest> Run(ExecutionState& state);

  /// Records the outcome of one replan consideration. `new_plan` non-null
  /// adopts the re-lowered plan for the un-executed suffix (executed
  /// nodes must be pinned verbatim, the Reoptimize contract); null keeps
  /// the current plan. Either way the decision call's cost is charged to
  /// the query and the suffix is floored to the pause's end (the barrier
  /// models execution waiting for the planner's verdict).
  void ApplyReplan(ExecutionState& state, ReplanRecord record,
                   const PhysicalPlan* new_plan);

  /// Assembles the ExecutionResult: totals (including replan decision
  /// charges), the timeline with replan markers, the Section V-D fallback
  /// and graceful degradation, and the answer.
  ExecutionResult Finish(ExecutionState& state);

  /// After execution, per-node measured stats (for cost-model feedback).
  const std::vector<OpStats>& node_stats() const { return node_stats_; }

  /// After execution, what each node actually did (EXPLAIN ANALYZE).
  const std::vector<NodeExecution>& node_executions() const {
    return node_executions_;
  }

  /// When the Section V-D fallback produced the answer, a synthetic
  /// execution record + stats for the fallback generation (it has no plan
  /// node), so EXPLAIN ANALYZE can show what actually answered the query.
  const std::optional<NodeExecution>& fallback_execution() const {
    return fallback_execution_;
  }
  const OpStats& fallback_stats() const { return fallback_stats_; }

 private:
  /// Executes one DAG node: through ExecuteOp with a morsel runner armed
  /// when the node may split, plan adjustment on failure, stats +
  /// execution-record bookkeeping.
  Status RunNode(ExecutionState& state, int u);

  /// Schedules one measured stream — a node's, or the Section V-D fallback
  /// generation's — on the pool at `ready` (absolute): `stats.cpu_seconds`
  /// first, then the LLM work, fanned across servers when it ran as more
  /// than one morsel (`partitions`). The only place execution touches the
  /// virtual clock. Returns the finish time.
  double ScheduleNode(ExecutionState& state, const OpStats& stats,
                      const std::vector<double>& partitions, double ready);

  /// Pushes the children of completed node `u` whose dependencies are all
  /// met onto the dispatch frontier.
  void AdvanceFrontier(ExecutionState& state, int u);

  ExecContext ctx_;
  Options options_;
  std::vector<OpStats> node_stats_;
  std::vector<NodeExecution> node_executions_;
  std::optional<NodeExecution> fallback_execution_;
  OpStats fallback_stats_;
};

}  // namespace unify::core

#endif  // UNIFY_CORE_RUNTIME_EXECUTOR_H_
