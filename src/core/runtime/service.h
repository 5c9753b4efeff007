#ifndef UNIFY_CORE_RUNTIME_SERVICE_H_
#define UNIFY_CORE_RUNTIME_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/runtime/fair_scheduler.h"
#include "core/runtime/flight_recorder.h"
#include "core/runtime/query.h"
#include "core/runtime/slo_tracker.h"
#include "core/runtime/tenant_ledger.h"
#include "core/runtime/unify.h"
#include "exec/virtual_pool.h"
#include "serving/http_endpoint.h"

namespace unify::core {

/// The concurrent serving layer: a thread-safe facade over a UnifySystem
/// that accepts Submit() calls from any number of client threads, plans
/// and executes them on a bounded worker pool, and schedules every
/// in-flight query's operator streams on ONE shared virtual LLM server
/// pool — so the virtual times in each QueryResult reflect cross-query
/// queueing for the paper's 4 simulated servers, not a private pool per
/// query.
///
/// Every request takes one dispatch path: Submit() enqueues it into a
/// FairScheduler, and Options::num_workers threads dequeue and serve it.
/// The Scheduler option only configures that scheduler.
///
/// Admission control keeps the service responsive under overload: when
/// queued + running requests reach Options::max_queue_depth, Submit()
/// resolves immediately with kResourceExhausted (phase kAdmission)
/// instead of growing the queue without bound. Per-query deadlines
/// (QueryRequest::deadline_seconds, with an optional service-wide
/// default) bound each query's virtual completion.
///
/// Operator-facing observability (docs/observability.md): each request
/// ends in one outcome (reject, tenant reject, shed or completion) that
/// one function hands to the serving counters, a per-tenant usage ledger
/// (keyed by QueryRequest::client_tag), an SLO burn-rate tracker and the
/// flight recorder, and Options::http_port starts an embedded HTTP
/// endpoint serving /metrics, health/readiness probes, and the postmortem
/// surfaces to an external monitoring stack.
class UnifyService {
 public:
  /// How the FairScheduler between Submit() and the workers is
  /// configured.
  enum class Scheduler {
    /// One shared queue, every request at QueryPriority::kNormal, no
    /// weights, caps or shedding: dispatch in arrival order.
    kFifo,
    /// Per-tenant DRR queues with priority tiers, per-tenant caps, and
    /// queue-age shedding (docs/api.md, "Scheduling & tenant isolation").
    kFair,
  };

  struct Options {
    /// Worker threads planning/executing queries concurrently.
    int num_workers = 4;
    /// Queued + running requests beyond which Submit() rejects with
    /// kResourceExhausted.
    int max_queue_depth = 64;
    /// Dispatch policy between Submit() and the workers (default kFifo).
    Scheduler scheduler = Scheduler::kFifo;
    /// Fair mode: DRR weight for tenants absent from `tenant_weights`
    /// (clamped into [FairScheduler::kMinWeight, kMaxWeight]).
    double default_tenant_weight = 1.0;
    /// Fair mode: per-tenant DRR weights keyed by client_tag.
    std::map<std::string, double> tenant_weights;
    /// Fair mode: max queued requests per tenant; beyond it Submit()
    /// rejects the tenant with kResourceExhausted before the global
    /// max_queue_depth trips for everyone. 0 = unbounded.
    int per_tenant_queue_depth = 0;
    /// Fair mode: max concurrently served requests per tenant (excess
    /// stays queued). 0 = unbounded.
    int per_tenant_max_concurrency = 0;
    /// Deadline applied to requests that carry none (0 = unlimited).
    double default_deadline_seconds = 0;
    /// Flight-recorder event ring size (postmortem window).
    size_t flight_recorder_capacity = 256;
    /// Slowest queries the flight recorder retains with their traces.
    size_t slow_query_capacity = 8;
    /// Embedded HTTP observability endpoint (loopback only): 0 = off
    /// (the default — byte-identical to a service without the endpoint),
    /// > 0 = bind that port, -1 = bind an OS-picked free port (tests;
    /// read it back from http_port()). Routes are listed in
    /// docs/observability.md, "HTTP endpoint".
    int http_port = 0;
    /// SLO latency objective for served queries (virtual total_seconds);
    /// 0 = availability-only SLO (any OK completion is good).
    double slo_latency_seconds = 0;
    /// SLO target good-fraction (error budget = 1 - slo_target).
    double slo_target = 0.999;
  };

  /// Serving counters (wall-clock process state, not virtual time).
  struct Stats {
    int64_t submitted = 0;
    int64_t rejected = 0;
    int64_t completed = 0;
    int64_t deadline_exceeded = 0;
    /// Served queries that finished with QueryPhase::kDegraded.
    int64_t degraded = 0;
    /// Queued requests failed by the fair scheduler because their
    /// deadline could no longer be met (fair mode only; these count in
    /// neither `completed` nor `deadline_exceeded`).
    int64_t shed = 0;
    /// Requests currently queued or being served.
    int64_t inflight = 0;
    /// Wall-clock seconds since the service was constructed.
    double uptime_seconds = 0;
    /// The shared pool's monotonic virtual clock.
    double pool_now = 0;
    /// Total virtual busy seconds across the pool's servers.
    double pool_busy_seconds = 0;
    /// The system's shared cross-query LLM answer cache (all queries
    /// served through this service share one instance; docs/caching.md).
    llm::CacheStats cache;
    /// SLO burn-rate state as of now (docs/observability.md, "SLOs").
    SloTracker::State slo;
    /// Per-tenant usage, keyed by client_tag ("(untagged)" for requests
    /// without one).
    std::map<std::string, TenantUsage> tenants;
    /// Scheduler queue state and counters (per-tenant queue depths,
    /// dispatches, sheds, tenant rejects, wheel rotations). Fair mode
    /// keys tenants by their `tenants` bucket; FIFO mode has one
    /// "(fifo)" queue.
    FairScheduler::Stats sched;
  };

  /// `system` must have completed Setup() and outlive the service. The
  /// shared virtual pool is sized from the system's exec.num_servers.
  UnifyService(const UnifySystem* system, Options options);

  /// Stops the HTTP endpoint (joining all of its connections), then
  /// drains in-flight queries before returning.
  ~UnifyService();

  UnifyService(const UnifyService&) = delete;
  UnifyService& operator=(const UnifyService&) = delete;

  /// Enqueues one query; the future resolves when it completes (or
  /// immediately, with phase kAdmission, when admission control rejects
  /// it). Thread-safe.
  std::future<QueryResult> Submit(QueryRequest request);

  /// Synchronous convenience: Submit() and wait.
  QueryResult Answer(QueryRequest request);
  QueryResult Answer(const std::string& text);

  Stats stats() const;

  /// The shared virtual LLM server pool (its Now() is the serving clock).
  const exec::VirtualLlmPool& pool() const { return pool_; }

  /// The serving flight recorder: bounded event ring (admission, start,
  /// completion, rejection, deadline-miss, replan, SLO breach) plus the
  /// retained top-K slow queries. Thread-safe to read while serving.
  const FlightRecorder& flight_recorder() const { return recorder_; }

  /// The per-tenant usage ledger (thread-safe to read while serving).
  const TenantLedger& tenant_ledger() const { return tenant_ledger_; }

  /// The SLO burn-rate tracker; read its state via stats().slo.
  const SloTracker& slo_tracker() const { return slo_; }

  /// The bound port of the embedded HTTP endpoint; 0 when disabled (or
  /// when binding failed — a warning is logged and serving continues
  /// without the endpoint).
  int http_port() const {
    return http_ != nullptr && http_->running() ? http_->port() : 0;
  }

  const UnifySystem& system() const { return *system_; }
  const Options& options() const { return options_; }

 private:
  /// A request's terminal outcome: the event kind that ends its serving
  /// lifecycle (kReject, kTenantReject, kShed or kComplete) and the
  /// result its future resolves with.
  struct QueryOutcome {
    ServeEventKind kind = ServeEventKind::kComplete;
    QueryResult result;
  };

  /// Runs one admitted request on a worker thread.
  QueryResult Serve(const QueryRequest& request, double queue_wall_seconds);

  /// The one place an outcome reaches the serving counters, the tenant
  /// ledger, the SLO tracker, the flight recorder's terminal events and
  /// the slow log. Called exactly once per submitted request; returns the
  /// result for its future.
  QueryResult Finish(const QueryRequest& request, QueryOutcome outcome);

  /// One worker's Dequeue/run/OnComplete loop.
  void WorkerLoop();

  /// Wall-clock seconds since construction (the SLO/uptime clock).
  double UptimeSeconds() const;

  /// Registers the route handlers and starts the endpoint.
  void StartHttpEndpoint();
  serving::HttpResponse HandleMetrics() const;
  serving::HttpResponse HandleReadyz() const;
  serving::HttpResponse HandleStatusz() const;

  const UnifySystem* system_;
  Options options_;
  exec::VirtualLlmPool pool_;
  FlightRecorder recorder_;
  TenantLedger tenant_ledger_;
  SloTracker slo_;
  std::chrono::steady_clock::time_point epoch_;

  /// Lock order: `mu_` is the service's root lock; the TenantLedger,
  /// FairScheduler, FlightRecorder, SloTracker, and metrics-registry locks
  /// are leaves that may be acquired WHILE holding `mu_` but never hold
  /// `mu_` themselves (none of them calls back into the service). Counter
  /// updates and their matching ledger/scheduler mutations happen under
  /// one `mu_` critical section, and stats() samples under the same
  /// section, so a Stats snapshot is internally consistent (counters
  /// never disagree with the tenant map). Submit() records `admit` under
  /// `mu_`, and a worker takes `mu_` before its first event for a
  /// request, so `admit` precedes that request's every other event.
  mutable std::mutex mu_;
  int64_t submitted_ = 0;
  int64_t rejected_ = 0;
  int64_t completed_ = 0;
  int64_t deadline_exceeded_ = 0;
  int64_t degraded_ = 0;
  int64_t shed_ = 0;
  int64_t inflight_ = 0;

  /// Explicitly stopped FIRST in the destructor: its handlers read the
  /// members above, so no connection may be in flight once member
  /// destruction begins.
  std::unique_ptr<serving::HttpServer> http_;

  /// The destructor calls Shutdown() and joins workers_ before member
  /// destruction begins.
  FairScheduler sched_;
  /// Options::num_workers threads, each running WorkerLoop() until the
  /// scheduler drains.
  std::vector<std::thread> workers_;
};

}  // namespace unify::core

#endif  // UNIFY_CORE_RUNTIME_SERVICE_H_
