#include "core/runtime/service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <utility>

#include "common/accuracy.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/telemetry_names.h"

namespace unify::core {

namespace {

/// The one queue key FIFO mode schedules every request under.
constexpr char kFifoQueue[] = "(fifo)";

double WallSecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The result of a request that never reached a worker.
QueryResult AdmissionFailure(const QueryRequest& request, Status status,
                             double queue_wall_seconds) {
  QueryResult result;
  result.status = std::move(status);
  result.phase = QueryPhase::kAdmission;
  result.client_tag = request.client_tag;
  result.query_id = request.ResolvedQueryId();
  result.queue_wall_seconds = queue_wall_seconds;
  return result;
}

}  // namespace

UnifyService::UnifyService(const UnifySystem* system, Options options)
    : system_(system),
      options_(options),
      pool_(std::max(1, system->options().exec.num_servers)),
      recorder_(FlightRecorder::Options{options.flight_recorder_capacity,
                                        options.slow_query_capacity}),
      slo_([&options] {
        SloTracker::Options slo;
        slo.latency_objective_seconds = options.slo_latency_seconds;
        slo.target = options.slo_target;
        return slo;
      }()),
      epoch_(std::chrono::steady_clock::now()),
      sched_([this, &options] {
        // FIFO mode keeps the defaults: no weights, caps or shedding.
        FairScheduler::Options fopts;
        if (options.scheduler == Scheduler::kFair) {
          fopts.default_weight = options.default_tenant_weight;
          fopts.tenant_weights = options.tenant_weights;
          fopts.per_tenant_queue_depth = options.per_tenant_queue_depth;
          fopts.per_tenant_max_concurrency =
              options.per_tenant_max_concurrency;
          // The serving clock: queue-age shedding compares request
          // deadlines against the shared pool's virtual time, the same
          // clock execution charges deadlines against.
          fopts.now = [this] { return pool_.Now(); };
        }
        return fopts;
      }()) {
  const int n = std::max(1, options_.num_workers);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  if (options_.http_port != 0) StartHttpEndpoint();
}

UnifyService::~UnifyService() {
  // Stop the endpoint before any member is destroyed: its handlers read
  // the counters, recorder, ledger, and pool. Stop() joins every
  // in-flight connection.
  if (http_ != nullptr) http_->Stop();
  // Drain, don't drop: Dequeue() keeps handing out (or shedding) queued
  // tasks after Shutdown() until the queues empty, so every submitted
  // future resolves before the workers exit.
  sched_.Shutdown();
  for (std::thread& t : workers_) t.join();
}

void UnifyService::WorkerLoop() {
  FairScheduler::Task task;
  while (sched_.Dequeue(&task)) {
    task.run();
    sched_.OnComplete(task.tenant);
    // Release the closures (promise, request) before blocking in Dequeue.
    task = FairScheduler::Task();
  }
}

double UnifyService::UptimeSeconds() const {
  return WallSecondsSince(epoch_);
}

std::future<QueryResult> UnifyService::Submit(QueryRequest request) {
  auto promise = std::make_shared<std::promise<QueryResult>>();
  std::future<QueryResult> future = promise->get_future();
  // The service defaults resolve once, here: shedding, the shed message
  // and the pipeline all read the same deadline.
  if (request.deadline_seconds <= 0) {
    request.deadline_seconds = options_.default_deadline_seconds;
  }
  auto req = std::make_shared<const QueryRequest>(std::move(request));

  FairScheduler::Task task;
  if (options_.scheduler == Scheduler::kFair) {
    // The ledger maps the tag to its bounded bucket, so the scheduler's
    // tenants are the ledger's.
    task.tenant = tenant_ledger_.BucketKey(req->client_tag);
    task.priority = req->overrides.priority.value_or(QueryPriority::kNormal);
  } else {
    task.tenant = kFifoQueue;
  }
  task.deadline_seconds = req->deadline_seconds;
  task.arrival_seconds = req->arrival_seconds;
  const auto enqueued = std::chrono::steady_clock::now();
  task.run = [this, promise, req, enqueued] {
    QueryOutcome outcome{ServeEventKind::kComplete,
                         Serve(*req, WallSecondsSince(enqueued))};
    promise->set_value(Finish(*req, std::move(outcome)));
  };
  task.shed = [this, promise, req](double queue_wall_seconds) {
    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  "shed while queued: deadline %gs after virtual arrival %g "
                  "already passed before dispatch",
                  req->deadline_seconds, req->arrival_seconds);
    QueryOutcome outcome{
        ServeEventKind::kShed,
        AdmissionFailure(*req, Status::DeadlineExceeded(detail),
                         queue_wall_seconds)};
    promise->set_value(Finish(*req, std::move(outcome)));
  };

  QueryOutcome rejected;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Status admission;
    if (inflight_ >= options_.max_queue_depth) {
      rejected.kind = ServeEventKind::kReject;
      admission = Status::ResourceExhausted(
          "serving queue full (" + std::to_string(inflight_) + " in flight, "
          "max_queue_depth " + std::to_string(options_.max_queue_depth) +
          ")");
    } else {
      // Enqueue under mu_ (mu_ -> sched.mu_; the scheduler never calls
      // out while holding its lock, so the order cannot invert): the
      // tenant-cap check and the admission counters commit atomically.
      rejected.kind = ServeEventKind::kTenantReject;
      admission = sched_.Enqueue(std::move(task));
    }
    if (admission.ok()) {
      submitted_ += 1;
      inflight_ += 1;
      MetricAddCounter(telemetry::kMetricServeSubmitted);
      MetricSetGauge(telemetry::kMetricServeInflight,
                     static_cast<double>(inflight_));
      ServeEvent admit;
      admit.kind = ServeEventKind::kAdmit;
      admit.query_id = req->ResolvedQueryId();
      admit.client_tag = req->client_tag;
      recorder_.Record(std::move(admit));
      return future;
    }
    rejected.result = AdmissionFailure(*req, std::move(admission), 0);
  }
  promise->set_value(Finish(*req, std::move(rejected)));
  return future;
}

QueryResult UnifyService::Serve(const QueryRequest& request,
                                double queue_wall_seconds) {
  MetricObserve(telemetry::kMetricServeQueueWait, queue_wall_seconds);
  {
    ServeEvent start;
    start.kind = ServeEventKind::kStart;
    start.query_id = request.ResolvedQueryId();
    start.client_tag = request.client_tag;
    start.queue_wall_seconds = queue_wall_seconds;
    // Under mu_, so this start follows the admit Submit() records under
    // mu_ after Enqueue (lock-order note in service.h).
    std::lock_guard<std::mutex> lock(mu_);
    recorder_.Record(std::move(start));
  }

  // The serve.query span parents the query's own span tree, so a served
  // trace shows the serving layer on top of the usual lifecycle.
  std::shared_ptr<Trace> trace;
  if (request.overrides.ResolveAgainst(system_->options()).collect_trace) {
    trace = std::make_shared<Trace>();
  }
  QueryResult result;
  {
    // Null-trace ScopedSpan is a no-op, so the flow stays unconditional.
    ScopedSpan serve_span(trace.get(), telemetry::kSpanServeQuery, kNoSpan);
    if (!request.client_tag.empty()) {
      serve_span.AddAttr("client", request.client_tag);
    }
    serve_span.AddAttr("queue_wall_seconds", queue_wall_seconds);
    result = system_->AnswerInternal(request, &pool_, trace,
                                     serve_span.id());
    serve_span.AddAttr("status", result.status.ok()
                                     ? std::string("ok")
                                     : result.status.ToString());
    serve_span.SetVirtualInterval(result.arrival_seconds,
                                  result.completion_seconds);
  }
  result.queue_wall_seconds = queue_wall_seconds;
  return result;
}

QueryResult UnifyService::Finish(const QueryRequest& request,
                                 QueryOutcome outcome) {
  const QueryResult& result = outcome.result;
  const bool served = outcome.kind == ServeEventKind::kComplete;
  const bool admitted = served || outcome.kind == ServeEventKind::kShed;
  {
    // Each counter moves in the same mu_ section as its tenant
    // attribution, and stats() samples both under mu_, so a snapshot's
    // tenant sums always equal its counters (lock-order note in
    // service.h).
    std::lock_guard<std::mutex> lock(mu_);
    if (!admitted) {
      rejected_ += 1;
      MetricAddCounter(telemetry::kMetricServeRejected);
      tenant_ledger_.RecordRejection(result.client_tag);
    } else {
      inflight_ -= 1;
      MetricSetGauge(telemetry::kMetricServeInflight,
                     static_cast<double>(inflight_));
      if (served) {
        completed_ += 1;
        if (result.status.code() == StatusCode::kDeadlineExceeded) {
          deadline_exceeded_ += 1;
          MetricAddCounter(telemetry::kMetricServeDeadlineExceeded);
        }
        if (result.phase == QueryPhase::kDegraded) {
          degraded_ += 1;
          MetricAddCounter(telemetry::kMetricServeDegraded);
        }
      } else {
        // A shed counts for the tenant as a failed query with a deadline
        // miss, but in neither completed_ nor deadline_exceeded_ (those
        // are for served queries): stats().shed carries it.
        shed_ += 1;
      }
      tenant_ledger_.RecordCompletion(result);
    }
  }

  // Postmortem events: SLO-breach, replan, deadline-miss and degraded
  // markers first, then the one terminal event carrying phase + timings.
  ServeEvent event;
  event.query_id = result.query_id;
  event.client_tag = result.client_tag;
  event.phase = QueryPhaseName(result.phase);
  event.queue_wall_seconds = result.queue_wall_seconds;
  event.plan_seconds = result.plan_seconds;
  event.exec_seconds = result.exec_seconds;
  event.total_seconds = result.total_seconds;
  auto record = [this, &event](ServeEventKind kind, std::string detail) {
    ServeEvent e = event;
    e.kind = kind;
    e.detail = std::move(detail);
    recorder_.Record(std::move(e));
  };
  if (admitted) {
    // A shed is a user-visible failure: it burns SLO error budget exactly
    // like a served failure does. The SLO ledger runs outside any
    // per-query metrics sink, so the serve.slo.* telemetry never leaks
    // into QueryResult::metrics.
    const double now_uptime = UptimeSeconds();
    const bool slo_good =
        slo_.IsGood(result.status.ok(), result.total_seconds);
    const SloTracker::Outcome slo = slo_.Record(now_uptime, slo_good);
    MetricAddCounter(slo_good ? telemetry::kMetricSloGood
                              : telemetry::kMetricSloBad);
    MetricSetGauge(telemetry::kMetricSloBurnRateFast, slo.burn_rate_fast);
    MetricSetGauge(telemetry::kMetricSloBurnRateSlow, slo.burn_rate_slow);
    MetricSetGauge(telemetry::kMetricServeUptime, now_uptime);
    if (slo.breach_started) {
      char detail[160];
      std::snprintf(detail, sizeof(detail),
                    "burn rate fast %.2f / slow %.2f over threshold %.2f "
                    "(target %g)",
                    slo.burn_rate_fast, slo.burn_rate_slow,
                    slo_.options().breach_burn_rate, slo_.options().target);
      record(ServeEventKind::kSloBreach, detail);
    }
  }
  if (!served) {
    record(outcome.kind, result.status.message());
    return std::move(outcome.result);
  }

  if (result.adjusted || result.used_fallback) {
    MetricAddCounter(telemetry::kMetricServeReplans);
    record(ServeEventKind::kReplan,
           result.adjusted ? "plan adjustment" : "planning fallback");
  }
  // One event per mid-query re-optimization (docs/replanning.md), carrying
  // the record's one-line summary of the trigger and the verdict.
  for (const ReplanRecord& rec : result.replans) {
    MetricAddCounter(telemetry::kMetricServeReplans);
    record(ServeEventKind::kReplan, rec.Sentence());
  }
  if (result.status.code() == StatusCode::kDeadlineExceeded) {
    record(ServeEventKind::kDeadlineMiss, result.status.message());
  }
  if (result.phase == QueryPhase::kDegraded) {
    record(ServeEventKind::kDegraded, result.degraded_detail);
  }
  record(ServeEventKind::kComplete,
         result.status.ok() ? std::string("ok") : result.status.ToString());

  SlowQuery slow;
  slow.query_id = result.query_id;
  slow.client_tag = result.client_tag;
  slow.text = request.text;
  slow.total_seconds = result.total_seconds;
  slow.plan_seconds = result.plan_seconds;
  slow.exec_seconds = result.exec_seconds;
  slow.trace = result.trace;
  recorder_.RecordSlow(std::move(slow));
  return std::move(outcome.result);
}

QueryResult UnifyService::Answer(QueryRequest request) {
  return Submit(std::move(request)).get();
}

QueryResult UnifyService::Answer(const std::string& text) {
  QueryRequest request;
  request.text = text;
  return Answer(std::move(request));
}

UnifyService::Stats UnifyService::stats() const {
  Stats s;
  {
    // One mu_ section for the counters AND the tenant/scheduler state
    // they must agree with — the update paths (Submit, Finish) mutate
    // both under the same lock, so this snapshot is consistent.
    std::lock_guard<std::mutex> lock(mu_);
    s.submitted = submitted_;
    s.rejected = rejected_;
    s.completed = completed_;
    s.deadline_exceeded = deadline_exceeded_;
    s.degraded = degraded_;
    s.shed = shed_;
    s.inflight = inflight_;
    s.tenants = tenant_ledger_.snapshot();
    s.sched = sched_.stats();
  }
  s.uptime_seconds = UptimeSeconds();
  MetricSetGauge(telemetry::kMetricServeUptime, s.uptime_seconds);
  s.pool_now = pool_.Now();
  s.pool_busy_seconds = pool_.TotalBusySeconds();
  if (system_->llm_cache() != nullptr) {
    s.cache = system_->llm_cache()->stats();
  }
  s.slo = slo_.state(s.uptime_seconds);
  return s;
}

// --- embedded HTTP endpoint ------------------------------------------------

void UnifyService::StartHttpEndpoint() {
  http_ = std::make_unique<serving::HttpServer>();
  http_->Handle(serving::kRouteMetrics,
                [this](const serving::HttpRequest&) {
                  return HandleMetrics();
                });
  http_->Handle(serving::kRouteHealthz, [](const serving::HttpRequest&) {
    serving::HttpResponse response;
    response.body = "ok\n";
    return response;
  });
  http_->Handle(serving::kRouteReadyz, [this](const serving::HttpRequest&) {
    return HandleReadyz();
  });
  http_->Handle(serving::kRouteStatusz,
                [this](const serving::HttpRequest&) {
                  return HandleStatusz();
                });
  http_->Handle(serving::kRouteEvents, [this](const serving::HttpRequest&) {
    serving::HttpResponse response;
    response.content_type = "application/x-ndjson";
    response.body = recorder_.ToJsonl();
    return response;
  });
  http_->Handle(serving::kRouteSlow, [this](const serving::HttpRequest&) {
    serving::HttpResponse response;
    response.content_type = "application/x-ndjson";
    response.body = recorder_.SlowQueriesToJsonl();
    return response;
  });
  http_->Handle(serving::kRouteAccuracy,
                [](const serving::HttpRequest&) {
                  serving::HttpResponse response;
                  response.body =
                      AccuracyReport(MetricsRegistry::Global().Snapshot()).text;
                  return response;
                });
  http_->Handle(serving::kRouteTenants,
                [this](const serving::HttpRequest&) {
                  serving::HttpResponse response;
                  response.content_type = "application/json";
                  // The ledger plus live queue state:
                  // {"usage": <ledger>, "sched": {tenant: {...}}}.
                  std::string usage = tenant_ledger_.ToJson();
                  while (!usage.empty() && usage.back() == '\n') {
                    usage.pop_back();
                  }
                  const FairScheduler::Stats st = sched_.stats();
                  char buf[64];
                  std::ostringstream os;
                  os << "{\"usage\":" << usage << ",\"sched\":{";
                  bool first = true;
                  for (const auto& [tenant, t] : st.tenants) {
                    if (!first) os << ",";
                    first = false;
                    std::snprintf(buf, sizeof(buf), "%.9g", t.weight);
                    os << "\"" << JsonEscape(tenant)
                       << "\":{\"weight\":" << buf
                       << ",\"queued\":" << t.queued
                       << ",\"running\":" << t.running
                       << ",\"dispatched\":" << t.dispatched
                       << ",\"shed\":" << t.sheds
                       << ",\"rejected\":" << t.rejected << "}";
                  }
                  os << "}}\n";
                  response.body = os.str();
                  return response;
                });

  serving::HttpServer::Options hopts;
  hopts.port = options_.http_port < 0 ? 0 : options_.http_port;
  if (Status st = http_->Start(hopts); !st.ok()) {
    UNIFY_LOG(Warning) << "HTTP endpoint disabled: " << st;
    http_.reset();
  }
}

serving::HttpResponse UnifyService::HandleMetrics() const {
  MetricSetGauge(telemetry::kMetricServeUptime, UptimeSeconds());
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  tenant_ledger_.AnnotateSnapshot(&snap);
  serving::HttpResponse response;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = snap.ToPrometheusText();
  return response;
}

serving::HttpResponse UnifyService::HandleReadyz() const {
  int64_t inflight;
  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight = inflight_;
  }
  serving::HttpResponse response;
  if (inflight < options_.max_queue_depth) {
    response.body = "ready\n";
    return response;
  }
  // Tell the load balancer *why* the replica is not ready, not just that
  // it is not: it is at admission-control pressure with `serve.inflight`
  // requests queued or running against the configured depth.
  response.status = 503;
  response.content_type = "application/json";
  std::ostringstream os;
  os << "{\"ready\":false,\"reason\":\"admission-control pressure\","
     << "\"serve.inflight\":" << inflight
     << ",\"queue_depth\":" << inflight
     << ",\"max_queue_depth\":" << options_.max_queue_depth << "}\n";
  response.body = os.str();
  return response;
}

serving::HttpResponse UnifyService::HandleStatusz() const {
  const Stats s = stats();
  const int num_servers = std::max(1, system_->options().exec.num_servers);
  const double occupancy =
      s.pool_now > 0 ? s.pool_busy_seconds / (num_servers * s.pool_now) : 0;
  char buf[64];
  auto num = [&buf](double v) {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return std::string(buf);
  };
  std::ostringstream os;
  os << "{\"uptime_seconds\":" << num(s.uptime_seconds)
     << ",\"stats\":{\"submitted\":" << s.submitted
     << ",\"rejected\":" << s.rejected << ",\"completed\":" << s.completed
     << ",\"deadline_exceeded\":" << s.deadline_exceeded
     << ",\"degraded\":" << s.degraded << ",\"inflight\":" << s.inflight
     << "},\"pool\":{\"now\":" << num(s.pool_now)
     << ",\"busy_seconds\":" << num(s.pool_busy_seconds)
     << ",\"num_servers\":" << num_servers
     << ",\"occupancy\":" << num(occupancy)
     << "},\"cache\":{\"entries\":" << s.cache.entries
     << ",\"bytes\":" << s.cache.bytes
     << ",\"item_hits\":" << s.cache.item_hits
     << ",\"item_misses\":" << s.cache.item_misses
     << ",\"coalesced\":" << s.cache.coalesced
     << ",\"evictions\":" << s.cache.evictions
     << ",\"saved_dollars\":" << num(s.cache.saved_dollars)
     << "},\"slo\":{\"good\":" << s.slo.good << ",\"bad\":" << s.slo.bad
     << ",\"burn_rate_fast\":" << num(s.slo.burn_rate_fast)
     << ",\"burn_rate_slow\":" << num(s.slo.burn_rate_slow)
     << ",\"in_breach\":" << (s.slo.in_breach ? "true" : "false")
     << ",\"latency_objective_seconds\":"
     << num(slo_.options().latency_objective_seconds)
     << ",\"target\":" << num(slo_.options().target)
     << "},\"tenants\":" << s.tenants.size()
     << ",\"workers\":" << options_.num_workers
     << ",\"max_queue_depth\":" << options_.max_queue_depth
     << ",\"sched\":{\"queued\":" << s.sched.queued
     << ",\"running\":" << s.sched.running
     << ",\"dispatched\":" << s.sched.dispatched
     << ",\"shed\":" << s.sched.sheds
     << ",\"tenant_rejects\":" << s.sched.tenant_rejects
     << ",\"wheel_rotations\":" << s.sched.wheel_rotations
     << ",\"queued_by_class\":{\"batch\":" << s.sched.queued_by_class[0]
     << ",\"normal\":" << s.sched.queued_by_class[1]
     << ",\"interactive\":" << s.sched.queued_by_class[2] << "}}}\n";
  serving::HttpResponse response;
  response.content_type = "application/json";
  response.body = os.str();
  return response;
}

}  // namespace unify::core
