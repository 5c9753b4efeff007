#ifndef UNIFY_CORE_RUNTIME_FAIR_SCHEDULER_H_
#define UNIFY_CORE_RUNTIME_FAIR_SCHEDULER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/runtime/query.h"

namespace unify::core {

/// Multi-tenant fair dispatch queue between UnifyService::Submit() and the
/// worker pool (docs/api.md, "Scheduling & tenant isolation").
///
/// Structure: one FIFO queue per (priority class, tenant), where the
/// tenant key is Task::tenant ("" buckets as "(untagged)"). UnifyService
/// passes the request's TenantLedger bucket in fair mode, and one shared
/// key in FIFO mode.
/// The three QueryPriority classes are strict tiers — a queued interactive
/// task always dispatches before any normal one, and normal before batch,
/// unless the higher tier has no dispatchable tenant (every tenant with
/// queued work is at its concurrency cap). Within a tier, tenants share
/// the workers via deficit-weighted round-robin: each visit of the wheel
/// grants a tenant `weight` units of deficit, each dispatch costs one
/// unit, so over a backlogged stretch tenants dispatch in proportion to
/// their weights (fractional weights accumulate across rotations).
///
/// Per-tenant isolation: `per_tenant_queue_depth` bounds how much queue a
/// single tenant may occupy (Enqueue() returns kResourceExhausted for the
/// overflow — the tenant is rejected before the service's global
/// max_queue_depth trips for everyone), and `per_tenant_max_concurrency`
/// bounds how many of a tenant's requests run at once (excess stays queued
/// and the wheel skips the tenant without burning its deficit).
///
/// Queue-age shedding: a queued task carrying an explicit virtual arrival
/// time and a deadline is failed via its `shed` callback — instead of
/// wasting a worker on it — once the scheduler clock says the deadline can
/// no longer be met (now >= arrival + deadline). Tasks without an explicit
/// arrival start their deadline window at dispatch and are never shed.
///
/// Determinism: given a fixed arrival order, dispatch order is a pure
/// function of the queue/wheel state — per-tenant queues are FIFO (tasks
/// carry a monotone enqueue seq as the tie-break), the wheel visits
/// tenants in activation order, and nothing consults wall time except the
/// queue-age histograms. With one worker the dispatch sequence and every
/// scheduler counter replay byte-identically.
///
/// Locking: `mu_` is a leaf lock — the scheduler never calls back into
/// user code while holding it. `shed` callbacks fire on the dequeuing
/// worker thread after `mu_` is released, so they may take service-level
/// locks freely (see the lock-order note in service.cc).
class FairScheduler {
 public:
  static constexpr int kNumPriorities = 3;
  /// Weights are clamped into [kMinWeight, kMaxWeight].
  static constexpr double kMinWeight = 1.0 / 64;
  static constexpr double kMaxWeight = 64.0;

  /// One schedulable unit of work plus the metadata dispatch decisions
  /// read. `run` executes on the worker that dequeued it; `shed` fires
  /// instead (never both) when the deadline became unmeetable in queue.
  struct Task {
    std::string tenant;
    QueryPriority priority = QueryPriority::kNormal;
    /// Virtual deadline (0 = none) and explicit virtual arrival
    /// (< 0 = "starts at dispatch"); both in Options::now units.
    double deadline_seconds = 0;
    double arrival_seconds = -1;
    std::function<void()> run;
    /// Receives the wall-clock seconds the task sat queued.
    std::function<void(double queue_wall_seconds)> shed;
    /// Monotone enqueue sequence number, assigned by Enqueue() — the
    /// deterministic tie-break within a tenant queue.
    uint64_t seq = 0;
    std::chrono::steady_clock::time_point enqueued_at{};
  };

  struct Options {
    /// DRR weight for tenants absent from `tenant_weights`.
    double default_weight = 1.0;
    /// Per-tenant DRR weights, keyed by client_tag ("(untagged)" for the
    /// empty tag).
    std::map<std::string, double> tenant_weights;
    /// Max queued (not yet dispatched) tasks per tenant; 0 = unbounded.
    int per_tenant_queue_depth = 0;
    /// Max concurrently running tasks per tenant; 0 = unbounded.
    int per_tenant_max_concurrency = 0;
    /// The virtual clock shedding compares deadlines against (a serving
    /// session passes the shared pool's Now). Null disables shedding.
    std::function<double()> now;
    /// Testing seam: invoked under the scheduler lock at the instant of
    /// each dispatch with the chosen task and whether any strictly higher
    /// priority tier still had a dispatchable tenant (queued work below
    /// its concurrency cap) — which must never be true.
    std::function<void(const Task& task, bool higher_tier_dispatchable)>
        dispatch_probe;
  };

  /// Cumulative per-tenant scheduler counters (queue state + outcomes).
  struct TenantSched {
    double weight = 1.0;
    int64_t queued = 0;
    int64_t running = 0;
    int64_t dispatched = 0;
    int64_t sheds = 0;
    int64_t rejected = 0;
  };

  struct Stats {
    int64_t enqueued = 0;
    int64_t dispatched = 0;
    int64_t tenant_rejects = 0;
    int64_t sheds = 0;
    /// Full refill passes over a priority wheel (the DRR "rotation").
    int64_t wheel_rotations = 0;
    int64_t queued = 0;
    int64_t running = 0;
    /// Current queue depth per priority class (indexed by QueryPriority).
    int64_t queued_by_class[kNumPriorities] = {0, 0, 0};
    std::map<std::string, TenantSched> tenants;
  };

  explicit FairScheduler(Options options);
  FairScheduler(const FairScheduler&) = delete;
  FairScheduler& operator=(const FairScheduler&) = delete;

  /// Queues `task` for dispatch. Fails with kResourceExhausted when the
  /// tenant is at its queue-depth cap (the caller owns the reject path —
  /// neither `run` nor `shed` fires for a rejected task). Thread-safe.
  Status Enqueue(Task task);

  /// Blocks until a task is dispatchable, moves it into `*out`, and
  /// returns true; the caller runs it and then calls OnComplete() with the
  /// task's tenant. Expired tasks encountered while scanning are shed
  /// (their `shed` callbacks fire on this thread, outside the scheduler
  /// lock) and never returned. Returns false once Shutdown() was called
  /// and every queued task has been dispatched or shed.
  bool Dequeue(Task* out);

  /// Releases one unit of `tenant`'s concurrency cap; call exactly once
  /// after a dequeued task's `run` finishes.
  void OnComplete(const std::string& tenant);

  /// Begins draining: Dequeue() keeps handing out queued work until the
  /// queues are empty, then returns false on every worker.
  void Shutdown();

  Stats stats() const;

  /// The effective (clamped) weight of `tenant`.
  double WeightOf(const std::string& tenant) const;

  /// The bucket key a client_tag schedules under ("(untagged)" for "").
  static std::string TenantKey(const std::string& client_tag);

 private:
  /// One tenant's FIFO at one priority tier plus its DRR wheel state.
  struct TenantQueue {
    std::deque<Task> tasks;
    double deficit = 0;
    /// True when the tenant (re-)entered the wheel since it last refilled
    /// — each wheel visit refills the deficit at most once.
    bool fresh = true;
    bool in_wheel = false;
  };

  struct TenantInfo {
    int64_t queued = 0;
    int64_t running = 0;
    int64_t dispatched = 0;
    int64_t sheds = 0;
    int64_t rejected = 0;
  };

  /// One full scan under mu_: sheds expired heads into `to_shed` and, when
  /// possible, moves the next dispatchable task into `*out`. Returns true
  /// iff a task was dispatched.
  bool ScanLocked(Task* out, std::vector<Task>* to_shed);
  /// One refill pass over tier `pri`'s wheel. Sets `*refilled` when any
  /// tenant gained deficit (another pass could make progress).
  bool ScanTierLocked(int pri, Task* out, std::vector<Task>* to_shed,
                      bool* refilled);
  /// Whether any tenant in a tier strictly above `pri` has queued work and
  /// spare concurrency (used by the dispatch probe).
  bool HigherTierDispatchableLocked(int pri) const;
  bool ExpiredLocked(const Task& task, double now) const;
  double WeightOfLocked(const std::string& tenant) const;

  Options options_;
  /// `serve.sched.queue_seconds.<class>` per priority, built once.
  std::string queue_seconds_series_[kNumPriorities];
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  bool shutdown_ = false;
  uint64_t next_seq_ = 0;
  /// queues_[priority][tenant]; wheels_ hold the active tenants of each
  /// tier in activation order.
  std::map<std::string, TenantQueue> queues_[kNumPriorities];
  std::deque<std::string> wheels_[kNumPriorities];
  std::map<std::string, TenantInfo> tenants_;
  int64_t queued_ = 0;
  int64_t queued_by_class_[kNumPriorities] = {0, 0, 0};
  int64_t running_ = 0;
  int64_t enqueued_ = 0;
  int64_t dispatched_ = 0;
  int64_t tenant_rejects_ = 0;
  int64_t sheds_ = 0;
  int64_t wheel_rotations_ = 0;
};

}  // namespace unify::core

#endif  // UNIFY_CORE_RUNTIME_FAIR_SCHEDULER_H_
