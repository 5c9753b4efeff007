#include "core/runtime/fair_scheduler.h"

#include <algorithm>
#include <utility>

#include "common/metrics.h"
#include "common/telemetry_names.h"
#include "core/runtime/tenant_ledger.h"

namespace unify::core {

const char* QueryPriorityName(QueryPriority priority) {
  switch (priority) {
    case QueryPriority::kBatch:
      return "batch";
    case QueryPriority::kNormal:
      return "normal";
    case QueryPriority::kInteractive:
      return "interactive";
  }
  return "unknown";
}

namespace {

double WallSecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

FairScheduler::FairScheduler(Options options)
    : options_(std::move(options)) {
  for (int pri = 0; pri < kNumPriorities; ++pri) {
    queue_seconds_series_[pri] =
        std::string(telemetry::kMetricSchedQueueSeconds) + "." +
        QueryPriorityName(static_cast<QueryPriority>(pri));
  }
}

std::string FairScheduler::TenantKey(const std::string& client_tag) {
  return client_tag.empty() ? std::string(TenantLedger::kUntagged)
                            : client_tag;
}

double FairScheduler::WeightOfLocked(const std::string& tenant) const {
  auto it = options_.tenant_weights.find(tenant);
  const double weight =
      it != options_.tenant_weights.end() ? it->second
                                          : options_.default_weight;
  return std::clamp(weight, kMinWeight, kMaxWeight);
}

double FairScheduler::WeightOf(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  return WeightOfLocked(TenantKey(tenant));
}

Status FairScheduler::Enqueue(Task task) {
  task.tenant = TenantKey(task.tenant);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return Status::FailedPrecondition("scheduler is shutting down");
    }
    TenantInfo& info = tenants_[task.tenant];
    if (options_.per_tenant_queue_depth > 0 &&
        info.queued >= options_.per_tenant_queue_depth) {
      info.rejected += 1;
      tenant_rejects_ += 1;
      MetricAddCounter(telemetry::kMetricSchedTenantRejects);
      return Status::ResourceExhausted(
          "tenant '" + task.tenant + "' queue full (" +
          std::to_string(info.queued) + " queued, per_tenant_queue_depth " +
          std::to_string(options_.per_tenant_queue_depth) + ")");
    }
    task.seq = next_seq_++;
    task.enqueued_at = std::chrono::steady_clock::now();
    const int pri = static_cast<int>(task.priority);
    TenantQueue& tq = queues_[pri][task.tenant];
    tq.tasks.push_back(std::move(task));
    if (!tq.in_wheel) {
      wheels_[pri].push_back(tq.tasks.back().tenant);
      tq.in_wheel = true;
      tq.fresh = true;
    }
    info.queued += 1;
    queued_ += 1;
    queued_by_class_[pri] += 1;
    enqueued_ += 1;
    MetricSetGauge(telemetry::kMetricSchedQueued,
                   static_cast<double>(queued_));
  }
  work_cv_.notify_one();
  return Status::OK();
}

bool FairScheduler::ExpiredLocked(const Task& task, double now) const {
  return now >= 0 && task.deadline_seconds > 0 && task.arrival_seconds >= 0 &&
         now - task.arrival_seconds >= task.deadline_seconds;
}

bool FairScheduler::HigherTierDispatchableLocked(int pri) const {
  for (int higher = pri + 1; higher < kNumPriorities; ++higher) {
    for (const auto& [tenant, tq] : queues_[higher]) {
      if (tq.tasks.empty()) continue;
      auto it = tenants_.find(tenant);
      const int64_t running = it != tenants_.end() ? it->second.running : 0;
      if (options_.per_tenant_max_concurrency <= 0 ||
          running < options_.per_tenant_max_concurrency) {
        return true;
      }
    }
  }
  return false;
}

bool FairScheduler::ScanTierLocked(int pri, Task* out,
                                   std::vector<Task>* to_shed,
                                   bool* refilled) {
  std::deque<std::string>& wheel = wheels_[pri];
  const double now = options_.now ? options_.now() : -1;
  // Each original wheel member is visited exactly once: every visit pops
  // the front and either retires the tenant or rotates it to the back.
  size_t visits = wheel.size();
  while (visits-- > 0 && !wheel.empty()) {
    const std::string tenant = wheel.front();
    TenantQueue& tq = queues_[pri][tenant];
    TenantInfo& info = tenants_[tenant];
    // Expired heads are shed instead of occupying a worker; per-tenant
    // FIFO means anything behind an unexpired head is checked once it
    // surfaces.
    while (!tq.tasks.empty() && ExpiredLocked(tq.tasks.front(), now)) {
      to_shed->push_back(std::move(tq.tasks.front()));
      tq.tasks.pop_front();
      info.queued -= 1;
      info.sheds += 1;
      queued_ -= 1;
      queued_by_class_[pri] -= 1;
      sheds_ += 1;
      MetricAddCounter(telemetry::kMetricSchedSheds);
    }
    if (tq.tasks.empty()) {
      wheel.pop_front();
      tq.in_wheel = false;
      tq.fresh = true;
      tq.deficit = 0;
      continue;
    }
    if (options_.per_tenant_max_concurrency > 0 &&
        info.running >= options_.per_tenant_max_concurrency) {
      // At the concurrency cap: rotate past without granting deficit, so
      // a blocked tenant does not bank credit it could burst later.
      wheel.pop_front();
      wheel.push_back(tenant);
      tq.fresh = true;
      continue;
    }
    if (tq.fresh) {
      const double weight = WeightOfLocked(tenant);
      tq.deficit = std::min(tq.deficit + weight, weight + 1.0);
      tq.fresh = false;
      *refilled = true;
    }
    if (tq.deficit < 1.0) {
      // Fractional weight still accumulating; costs this visit.
      wheel.pop_front();
      wheel.push_back(tenant);
      tq.fresh = true;
      continue;
    }
    // Dispatch the tenant's head.
    tq.deficit -= 1.0;
    *out = std::move(tq.tasks.front());
    tq.tasks.pop_front();
    info.queued -= 1;
    info.running += 1;
    info.dispatched += 1;
    queued_ -= 1;
    queued_by_class_[pri] -= 1;
    running_ += 1;
    dispatched_ += 1;
    MetricAddCounter(telemetry::kMetricSchedDispatches);
    MetricSetGauge(telemetry::kMetricSchedQueued,
                   static_cast<double>(queued_));
    MetricObserve(queue_seconds_series_[pri],
                  WallSecondsSince(out->enqueued_at));
    if (tq.tasks.empty()) {
      wheel.pop_front();
      tq.in_wheel = false;
      tq.fresh = true;
      tq.deficit = 0;
    } else if (tq.deficit < 1.0) {
      wheel.pop_front();
      wheel.push_back(tenant);
      tq.fresh = true;
    }
    if (options_.dispatch_probe) {
      options_.dispatch_probe(*out, HigherTierDispatchableLocked(pri));
    }
    return true;
  }
  return false;
}

bool FairScheduler::ScanLocked(Task* out, std::vector<Task>* to_shed) {
  for (int pri = kNumPriorities - 1; pri >= 0; --pri) {
    // Refill passes strictly grow some unblocked tenant's deficit, so this
    // loop dispatches within ceil(1 / kMinWeight) passes or proves the
    // tier has no dispatchable tenant and falls through to the next one.
    while (true) {
      bool refilled = false;
      if (ScanTierLocked(pri, out, to_shed, &refilled)) return true;
      if (!refilled) break;
      wheel_rotations_ += 1;
      MetricAddCounter(telemetry::kMetricSchedWheelRotations);
    }
  }
  return false;
}

bool FairScheduler::Dequeue(Task* out) {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    std::vector<Task> to_shed;
    const bool got = ScanLocked(out, &to_shed);
    if (got || !to_shed.empty()) {
      // Shed callbacks (and the caller's run) execute with mu_ released:
      // they take service-level locks, which must never nest inside the
      // scheduler's.
      lock.unlock();
      for (Task& task : to_shed) {
        if (task.shed) task.shed(WallSecondsSince(task.enqueued_at));
      }
      if (got) return true;
      lock.lock();
      continue;  // shedding changed queue state; rescan before sleeping
    }
    if (shutdown_ && queued_ == 0) return false;
    work_cv_.wait(lock);
  }
}

void FairScheduler::OnComplete(const std::string& tenant) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    TenantInfo& info = tenants_[TenantKey(tenant)];
    info.running -= 1;
    running_ -= 1;
  }
  // A freed concurrency slot (or shutdown drain) may unblock any waiter.
  work_cv_.notify_all();
}

void FairScheduler::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
}

FairScheduler::Stats FairScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.enqueued = enqueued_;
  s.dispatched = dispatched_;
  s.tenant_rejects = tenant_rejects_;
  s.sheds = sheds_;
  s.wheel_rotations = wheel_rotations_;
  s.queued = queued_;
  s.running = running_;
  for (int pri = 0; pri < kNumPriorities; ++pri) {
    s.queued_by_class[pri] = queued_by_class_[pri];
  }
  for (const auto& [tenant, info] : tenants_) {
    TenantSched t;
    t.weight = WeightOfLocked(tenant);
    t.queued = info.queued;
    t.running = info.running;
    t.dispatched = info.dispatched;
    t.sheds = info.sheds;
    t.rejected = info.rejected;
    s.tenants[tenant] = t;
  }
  return s;
}

}  // namespace unify::core
