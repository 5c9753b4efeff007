#ifndef UNIFY_EXEC_SCHEDULE_H_
#define UNIFY_EXEC_SCHEDULE_H_

#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "common/status.h"
#include "exec/dag.h"
#include "exec/virtual_pool.h"

namespace unify::exec {

/// Virtual-time cost of one plan node.
struct NodeCost {
  /// CPU-side (pre-programmed) work: runs on an uncontended resource.
  double cpu_seconds = 0;
  /// LLM-side work: a sequential stream of batched calls occupying one
  /// simulated server.
  double llm_seconds = 0;
  /// Morsel-driven intra-operator parallelism: when non-empty AND
  /// `max_parallelism` > 1, the node's LLM work is issued as these
  /// independent partition streams (they should sum to `llm_seconds`)
  /// instead of one sequential stream, with at most `max_parallelism`
  /// partitions in flight at once. Empty = unpartitioned (the default).
  std::vector<double> llm_partitions;
  int max_parallelism = 1;
};

/// A computed execution timeline. All times are absolute virtual seconds
/// on the pool the schedule ran against (for a fresh pool and base 0 they
/// coincide with query-relative times).
struct ScheduleResult {
  std::vector<double> start;
  std::vector<double> finish;
  /// When the whole plan completes (absolute).
  double makespan = 0;
};

/// A node the list scheduler hands out, and the absolute virtual time at
/// which it may start.
struct Dispatch {
  int node = -1;
  double ready = 0;
};

/// The list scheduler, one node at a time: the single dispatch rule behind
/// both the optimizer's makespan prediction (ScheduleDag over estimated
/// costs) and the executor's reported timeline (each node's measured cost,
/// completed as the node finishes).
///
/// Parallel mode is the paper's "Parallel Topological Execution" (Section
/// III-C): a node becomes ready the moment its last parent finishes, and
/// Next() hands out the earliest-ready node, ties to the lower index.
/// Sequential mode is the Unify–noLO ablation (Section VII-D): Next()
/// walks Dag::TopologicalOrder() one node after another at the running
/// clock. Either way a node's LLM stream, or its morsel streams, compete
/// for the servers of `pool`, which other schedules may share (a
/// UnifyService serving session).
class ListSchedule {
 public:
  /// Every root of `dag` becomes ready at absolute time `base` on `pool`
  /// (non-null). Both must outlive the schedule, which reads `dag` in
  /// place. A cyclic `dag` sets status() to kFailedPrecondition and Next()
  /// dispatches nothing.
  ListSchedule(const Dag& dag, VirtualLlmPool* pool, bool sequential,
               double base = 0);

  const Status& status() const { return status_; }

  /// The next node to run, started no earlier than the Floor(); nullopt
  /// once every node has been handed out, or while no ready node remains
  /// because a dispatched one was never completed.
  std::optional<Dispatch> Next();

  /// Reserves the dispatched node's `cost` on the pool: its CPU time from
  /// `dispatch.ready`, then its LLM stream, fanned out as morsel streams
  /// when the cost carries partitions. Records the node's interval,
  /// releases its children and returns its finish time. A dispatched
  /// node that is never completed keeps start == finish == base.
  double Complete(const Dispatch& dispatch, const NodeCost& cost);

  /// Replan barrier: no node dispatched from now on starts before `t`,
  /// and the makespan is at least `t`.
  void Floor(double t);

  /// Per-node intervals and the makespan so far.
  const ScheduleResult& result() const { return result_; }
  ScheduleResult TakeResult() && { return std::move(result_); }
  double base() const { return base_; }
  VirtualLlmPool* pool() const { return pool_; }

 private:
  struct Ready {
    double time;
    int node;
    bool operator>(const Ready& other) const {
      if (time != other.time) return time > other.time;
      return node > other.node;
    }
  };

  const Dag& dag_;
  VirtualLlmPool* pool_;
  bool sequential_;
  double base_;
  Status status_;
  ScheduleResult result_;
  double floor_;
  /// Sequential mode: the topological order and the next position in it.
  std::vector<int> order_;
  size_t next_in_order_ = 0;
  /// Parallel mode: uncompleted parents per node, and the ready nodes.
  std::vector<int> pending_parents_;
  std::priority_queue<Ready, std::vector<Ready>, std::greater<Ready>> ready_;
};

/// Computes the virtual-time timeline of executing `dag` with per-node
/// `costs` on the LLM servers of `pool`, with every root node becoming
/// ready at absolute time `base`: a ListSchedule driven to completion.
/// The pool may be shared with other concurrent schedules (a UnifyService
/// serving session), in which case the returned intervals include
/// cross-query queueing for servers.
StatusOr<ScheduleResult> ScheduleDag(const Dag& dag,
                                     const std::vector<NodeCost>& costs,
                                     VirtualLlmPool* pool, bool sequential,
                                     double base = 0);

/// Convenience overload: schedules on a fresh private pool of
/// `num_servers` servers starting at time 0 (the standalone,
/// one-query-at-a-time model).
StatusOr<ScheduleResult> ScheduleDag(const Dag& dag,
                                     const std::vector<NodeCost>& costs,
                                     int num_servers, bool sequential);

}  // namespace unify::exec

#endif  // UNIFY_EXEC_SCHEDULE_H_
