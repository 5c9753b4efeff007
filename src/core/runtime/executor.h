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
#include "exec/schedule.h"

namespace unify::core {

/// One plan node's EXPLAIN ANALYZE row: the optimizer's estimates next to
/// what execution measured. The executor keeps one per plan node (indexed
/// like PhysicalPlan::nodes) plus a trailing row when the Section V-D
/// fallback answers; QueryResult::plan_analysis holds them in the plan's
/// topological render order.
struct PlanNodeAnalysis {
  /// The plan node this row describes (index into PhysicalPlan::nodes);
  /// -1 for the synthetic fallback row.
  int node = -1;
  std::string op_name;
  /// Chosen physical implementation (PhysicalImplName).
  std::string impl;
  std::string output_var;
  /// Indentation depth in the plan DAG render (longest path from a root).
  int depth = 0;
  /// False when the node never ran (upstream failure aborted the DAG).
  bool executed = false;

  /// Cardinalities: the optimizer's estimates vs the values execution
  /// measured, and their q-error (max of the two ratios, clamped ≥ 1).
  /// The measured input is the largest input value, the convention the
  /// optimizer uses for est_in_card.
  double est_in_card = 0;
  double est_out_card = 0;
  double actual_in_card = 0;
  double actual_out_card = 0;
  double card_qerror = 0;

  /// Virtual seconds: the cost model's sequential-work estimate vs the
  /// measured operator stream (cpu + llm) and its LLM part, plus the
  /// node's interval on the server pool, relative to the query's ready
  /// time, and its wait for a free server inside it.
  double est_seconds = 0;
  double actual_seconds = 0;
  double llm_seconds = 0;
  double virt_start = 0;
  double virt_finish = 0;
  double queue_wait_seconds = 0;

  /// API spend: predicted vs measured.
  double est_dollars = 0;
  double actual_dollars = 0;
  int64_t llm_calls = 0;

  /// Morsels: predicted vs actually run (1 = sequential stream).
  int est_partitions = 1;
  int partitions = 1;

  /// Plan adjustment on this node: its chosen impl failed and `retries`
  /// alternatives were attempted.
  bool adjusted = false;
  int retries = 0;

  /// Ordinal (1-based) of the mid-query replan that re-lowered this node
  /// (docs/replanning.md); 0 = the node ran as originally planned.
  int replanned_by = 0;
  /// True for the synthetic record of the Section V-D fallback
  /// generation, which answers the query but has no plan node.
  bool synthetic_fallback = false;
};

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
  /// Human-readable execution timeline (RenderTimeline over `nodes`):
  /// one line per row with its virtual start/finish on the server pool
  /// and measured LLM usage, `[not executed]` for a node that never ran,
  /// then one marker line per mid-query replan (when any fired).
  std::string timeline;
  /// One row per plan node, indexed like PhysicalPlan::nodes, plus a
  /// trailing synthetic row when the Section V-D fallback answered.
  /// BuildPlanAnalysis turns them into EXPLAIN ANALYZE.
  std::vector<PlanNodeAnalysis> nodes;
};

/// One mid-query re-optimization, adopted or not (docs/replanning.md).
/// PlanExecutor::Run yields it with the trigger fields set when a
/// materialization point trips the q-error threshold; the query
/// pipeline's replan loop fills in the decision and hands it to
/// ApplyReplan. Retained on QueryResult for EXPLAIN ANALYZE, the flight
/// recorder, and the \replan shell view.
struct ReplanRecord {
  /// The materialization point that fired the trigger: node `trigger_node`
  /// just finished with a cardinality q-error at or above the configured
  /// threshold, and un-executed nodes remain that a replan could still
  /// improve.
  int trigger_node = -1;
  std::string trigger_var;
  double observed_card = 0;
  double estimated_card = 0;
  /// QError(estimated_card, observed_card) — the trigger value.
  double qerror = 0;
  /// Absolute virtual time on the execution pool at which the trigger
  /// node finished (private pools start at 0, shared pools at the query's
  /// execution-ready time). Re-optimization costs its suffix from here.
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
  /// Plan nodes whose impl or args the adopted replan changed, in plan
  /// order (ReoptimizeResult::relowered_nodes); empty when the plan was
  /// kept.
  std::vector<int> relowered_nodes;
  /// Every plan node still un-executed when the trigger fired (the
  /// suffix the predicted costs above cover) — the basis of the
  /// completion-time improved/not-improved audit.
  std::vector<int> suffix_nodes;

  /// The one-line summary of the trigger and the verdict: "replan @ t=…"
  /// for the flight recorder and \replan, "replan #<ordinal> @ t=…" in
  /// EXPLAIN ANALYZE when `ordinal` > 0.
  std::string Sentence(int ordinal = 0) const;
};

/// The execution module (paper Section III-C): runs a physical plan with
/// parallel topological execution, dynamic plan adjustment on operator
/// failure, and virtual-time accounting on the simulated LLM server pool.
///
/// One engine, driven by Begin()/Run()/ApplyReplan()/Finish(): Run()
/// materializes one node at a time on the calling thread, in the order an
/// exec::ListSchedule hands them out, and completes each node on that
/// schedule with its measured cost the moment it finishes — the same
/// scheduler the optimizer predicts makespans with. While the query's
/// re-optimization budget (`max_reoptimizations`) lasts, Run() also
/// pauses at materialization points whose observed cardinality diverges
/// from the optimizer's estimate, so the query pipeline can re-optimize
/// the un-executed suffix mid-flight (docs/replanning.md). Execute()
/// drives the same calls to completion for callers without a
/// re-optimizer.
class PlanExecutor {
 public:
  struct Options {
    /// LLM servers (paper: 4 local Llamas).
    int num_servers = 4;
    /// Disable DAG parallelism (the Unify–noLO ablation, Section VII-D).
    bool parallel = true;
    /// Wall-clock worker threads for a node's morsels; 0 or 1 runs them
    /// one after another on the calling thread. Each worker inherits the
    /// calling thread's retry budget and cache routing, and records its
    /// metrics into a registry of its own that is merged into the
    /// calling thread's sink in morsel order. Virtual time is unaffected.
    int threads = 0;
    /// Morsel-driven intra-operator parallelism: a per-document LLM impl
    /// (ImplSplitsPerDoc) splits its batches into up to this many
    /// whole-batch morsels that occupy distinct virtual servers
    /// concurrently (and run on `threads` wall-clock workers when set).
    /// Answers are byte-identical for every setting; 1 reproduces the
    /// sequential single-stream model exactly.
    int max_intra_op_parallelism = 1;
    /// Observed-vs-estimated cardinality q-error at or above which a
    /// materialization point yields a ReplanRecord.
    double reoptimize_qerror_threshold = 3.0;
    /// Mid-query re-optimization budget (docs/replanning.md): replan
    /// pauses per query, each costing one planner-tier decision call.
    /// 0 never pauses; any positive value arms the q-error trigger.
    int max_reoptimizations = 0;
  };

  /// Everything one plan execution carries across the engine's pauses:
  /// the (possibly replanned) plan, bound variable values, one row per
  /// plan node, the virtual-time schedule so far, and the replans applied
  /// so far. Created by Begin(), advanced by Run(), finalized by Finish().
  struct ExecutionState {
    /// The plan being executed. ApplyReplan swaps in the re-lowered plan;
    /// executed nodes are pinned verbatim by the Reoptimize contract.
    PhysicalPlan plan;
    Trace* trace = nullptr;
    std::unique_ptr<ScopedSpan> exec_span;
    std::map<std::string, Value> vars;
    Status run_status = Status::OK();
    /// Span of each DAG node, for post-hoc virtual-interval annotation.
    std::vector<SpanId> node_spans;
    /// One row per plan node, indexed like plan.nodes: RunNode fills the
    /// measured side, Finish the estimated side and the virtual interval,
    /// and Finish appends the fallback's row when the V-D fallback
    /// answers. Finish moves them into ExecutionResult::nodes.
    std::vector<PlanNodeAnalysis> nodes;

    /// The pool a query without a shared one runs on.
    std::unique_ptr<exec::VirtualLlmPool> local_pool;
    /// Dispatch order and virtual time: each node's measured cost is
    /// completed on the schedule the moment the node materializes, so
    /// elapsed time is known at pause points. It reads `plan.dag` in
    /// place, so a begun state is not moved.
    std::optional<exec::ListSchedule> schedule;

    /// Replans applied so far, each with its charged decision cost.
    std::vector<ReplanRecord> replans;
    int replan_yields = 0;
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
  ///
  /// `shared_pool` non-null (a UnifyService serving session; must outlive
  /// the execution) makes this plan's streams compete with every other
  /// in-flight query's, from absolute virtual time `start_seconds` (the
  /// query's arrival + planning time), so reported times include
  /// cross-query queueing. Null runs on a fresh private pool of
  /// `num_servers` from time 0.
  void Begin(const PhysicalPlan& plan, ExecutionState& state,
             Trace* trace = nullptr, SpanId parent = kNoSpan,
             exec::VirtualLlmPool* shared_pool = nullptr,
             double start_seconds = 0);

  /// Executes nodes one at a time in the order the list schedule hands
  /// them out until either a materialization point trips the replan
  /// trigger — returning a ReplanRecord with its trigger fields set, to
  /// answer with ApplyReplan before calling Run again — or the DAG
  /// completes or fails (returns nullopt; call Finish). A failing node
  /// stops the run: no further node executes.
  std::optional<ReplanRecord> Run(ExecutionState& state);

  /// Records the outcome of one replan consideration. `new_plan` non-null
  /// adopts the re-lowered plan for the un-executed suffix (executed
  /// nodes must be pinned verbatim, the Reoptimize contract); null keeps
  /// the current plan. Either way the decision call's cost is charged to
  /// the query and the suffix is floored to the pause's end (the barrier
  /// models execution waiting for the planner's verdict).
  void ApplyReplan(ExecutionState& state, ReplanRecord record,
                   const PhysicalPlan* new_plan);

  /// Assembles the ExecutionResult from the state's rows: totals
  /// (including replan decision charges), the timeline with replan
  /// markers, the Section V-D fallback (a trailing synthetic row, since
  /// the fallback generation has no plan node), the answer, and the rows.
  ExecutionResult Finish(ExecutionState& state);

 private:
  /// Executes one DAG node: through ExecuteOp with a morsel runner armed
  /// when the node may split, plan adjustment on failure, and the
  /// measured side of the node's row. Returns the node's measured cost for
  /// the schedule: its CPU time, then its LLM stream, split into the
  /// morsels' streams when it ran as more than one.
  StatusOr<exec::NodeCost> RunNode(ExecutionState& state, int u);

  ExecContext ctx_;
  Options options_;
};

}  // namespace unify::core

#endif  // UNIFY_CORE_RUNTIME_EXECUTOR_H_
