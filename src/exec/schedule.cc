#include "exec/schedule.h"

#include <algorithm>

namespace unify::exec {

ListSchedule::ListSchedule(const Dag& dag, VirtualLlmPool* pool,
                           bool sequential, double base)
    : dag_(dag),
      pool_(pool),
      sequential_(sequential),
      base_(base),
      floor_(base) {
  result_.start.assign(dag.size(), base);
  result_.finish.assign(dag.size(), base);
  result_.makespan = base;
  StatusOr<std::vector<int>> order = dag.TopologicalOrder();
  if (!order.ok()) {
    status_ = order.status();
    return;
  }
  if (sequential) {
    order_ = std::move(*order);
    return;
  }
  pending_parents_.assign(dag.size(), 0);
  for (size_t u = 0; u < dag.size(); ++u) {
    pending_parents_[u] =
        static_cast<int>(dag.parents(static_cast<int>(u)).size());
    if (pending_parents_[u] == 0) ready_.push({base, static_cast<int>(u)});
  }
}

std::optional<Dispatch> ListSchedule::Next() {
  Dispatch dispatch;
  if (sequential_) {
    // One node after another: finishes only grow, so the makespan so far
    // is when the previous node finished.
    if (next_in_order_ == order_.size()) return std::nullopt;
    dispatch = {order_[next_in_order_++], result_.makespan};
  } else {
    if (ready_.empty()) return std::nullopt;
    dispatch = {ready_.top().node, ready_.top().time};
    ready_.pop();
  }
  dispatch.ready = std::max(dispatch.ready, floor_);
  return dispatch;
}

double ListSchedule::Complete(const Dispatch& dispatch, const NodeCost& cost) {
  const int u = dispatch.node;
  const double at = dispatch.ready + cost.cpu_seconds;
  const double finish =
      cost.max_parallelism > 1 && cost.llm_partitions.size() > 1
          ? pool_->ScheduleParallelStream(at, cost.llm_partitions,
                                          cost.max_parallelism)
          : pool_->ScheduleStream(at, cost.llm_seconds);
  result_.start[u] = dispatch.ready;
  result_.finish[u] = finish;
  result_.makespan = std::max(result_.makespan, finish);
  if (!sequential_) {
    for (int v : dag_.children(u)) {
      if (--pending_parents_[v] > 0) continue;
      double ready = base_;
      for (int p : dag_.parents(v)) ready = std::max(ready, result_.finish[p]);
      ready_.push({ready, v});
    }
  }
  return finish;
}

void ListSchedule::Floor(double t) {
  floor_ = std::max(floor_, t);
  result_.makespan = std::max(result_.makespan, floor_);
}

StatusOr<ScheduleResult> ScheduleDag(const Dag& dag,
                                     const std::vector<NodeCost>& costs,
                                     VirtualLlmPool* pool, bool sequential,
                                     double base) {
  if (pool == nullptr) {
    return Status::InvalidArgument("ScheduleDag: null pool");
  }
  if (costs.size() != dag.size()) {
    return Status::InvalidArgument("costs/DAG size mismatch");
  }
  ListSchedule schedule(dag, pool, sequential, base);
  UNIFY_RETURN_IF_ERROR(schedule.status());
  while (std::optional<Dispatch> next = schedule.Next()) {
    schedule.Complete(*next, costs[next->node]);
  }
  return std::move(schedule).TakeResult();
}

StatusOr<ScheduleResult> ScheduleDag(const Dag& dag,
                                     const std::vector<NodeCost>& costs,
                                     int num_servers, bool sequential) {
  VirtualLlmPool pool(num_servers);
  return ScheduleDag(dag, costs, &pool, sequential, /*base=*/0);
}

}  // namespace unify::exec
