#ifndef UNIFY_CORE_PHYSICAL_PHYSICAL_PLAN_H_
#define UNIFY_CORE_PHYSICAL_PHYSICAL_PLAN_H_

#include <string>
#include <vector>

#include "core/logical/logical_plan.h"
#include "core/operators/physical.h"
#include "exec/dag.h"

namespace unify::core {

/// One operator of a physical plan: the logical node plus its chosen
/// physical implementation and the optimizer's estimates.
struct PhysicalNode {
  LogicalNode logical;
  PhysicalImpl impl = PhysicalImpl::kIdentity;
  double est_in_card = 0;
  double est_out_card = 0;
  /// Total operator work (sequential-stream seconds); intra-operator
  /// parallelism shortens the node's *span*, not its total work.
  double est_seconds = 0;
  /// Morsels the optimizer expects the executor to split this node into
  /// (1 = unpartitioned), bounded by max_intra_op_parallelism and the
  /// node's whole-batch count.
  int est_partitions = 1;
  /// Predicted API spend of this node (cost model, chosen impl).
  double est_dollars = 0;
};

/// An executable physical plan (paper Section VI): DAG-shaped, with a
/// concrete implementation per operator and a cost estimate used for plan
/// selection.
struct PhysicalPlan {
  std::vector<PhysicalNode> nodes;
  exec::Dag dag;
  std::string answer_var;
  std::string query_text;

  /// Predicted end-to-end execution time on the LLM server pool, under
  /// the effective max_intra_op_parallelism (partitioned nodes fan their
  /// morsels across servers).
  double est_makespan = 0;
  /// The same prediction with every node as one sequential stream
  /// (parallelism 1). Plan *selection* ranks by this key so the chosen
  /// plan — and therefore the answer — is byte-identical across
  /// parallelism settings; est_makespan is the honest prediction.
  double est_seq_makespan = 0;
  /// Predicted total API spend (the alternative objective).
  double est_total_dollars = 0;
  /// Structural red flag from the optimizer: the answer variable still
  /// carries a grouped (non-terminal) value, so the plan probably misses
  /// its final step. Plan selection avoids such candidates when a clean
  /// alternative exists.
  bool likely_incomplete = false;
  /// Cost of optimization itself (semantic cardinality estimation calls),
  /// charged to planning time.
  double optimize_llm_seconds = 0;
  int64_t optimize_llm_calls = 0;

  /// Multi-line, indented rendering of the plan DAG with per-node
  /// implementation choices and estimates — EXPLAIN output.
  std::string Explain() const;
};

}  // namespace unify::core

#endif  // UNIFY_CORE_PHYSICAL_PHYSICAL_PLAN_H_
