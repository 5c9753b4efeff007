#include "serving/http_endpoint.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/telemetry_names.h"
#include "core/runtime/service.h"
#include "core/runtime/slo_tracker.h"
#include "core/runtime/tenant_ledger.h"
#include "corpus/dataset_profile.h"
#include "corpus/workload.h"
#include "llm/sim_llm.h"

#include "catalog_util.h"

namespace unify {
namespace {

/// A deliberately primitive HTTP client: one blocking socket, one
/// request, read to EOF. The endpoint must be scrapeable by exactly this
/// kind of plain client (curl, a Prometheus scraper) with no framing
/// cleverness.
struct RawHttpReply {
  bool ok = false;       // transport-level success (connect/send/recv)
  int status = 0;        // parsed from the status line
  std::string headers;   // raw header block
  std::string body;      // everything after the first CRLFCRLF
};

RawHttpReply RawHttpRequest(int port, const std::string& request_text) {
  RawHttpReply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return reply;
  }
  size_t sent = 0;
  while (sent < request_text.size()) {
    const ssize_t n = ::send(fd, request_text.data() + sent,
                             request_text.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return reply;
    }
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);

  const size_t split = raw.find("\r\n\r\n");
  if (split == std::string::npos || raw.rfind("HTTP/1.1 ", 0) != 0) {
    return reply;
  }
  reply.ok = true;
  reply.status = std::atoi(raw.c_str() + std::strlen("HTTP/1.1 "));
  reply.headers = raw.substr(0, split);
  reply.body = raw.substr(split + 4);
  return reply;
}

RawHttpReply HttpGet(int port, const std::string& path) {
  return RawHttpRequest(port, "GET " + path +
                                  " HTTP/1.1\r\nHost: localhost\r\n"
                                  "Connection: close\r\n\r\n");
}

// --- HttpServer on its own -------------------------------------------------

TEST(HttpServerTest, RoutesServesAndStops) {
  serving::HttpServer server;
  server.Handle("/ping", [](const serving::HttpRequest& request) {
    serving::HttpResponse response;
    response.body = "pong " + request.query + "\n";
    return response;
  });
  serving::HttpServer::Options opts;  // port 0: OS picks
  ASSERT_TRUE(server.Start(opts).ok());
  ASSERT_TRUE(server.running());
  ASSERT_GT(server.port(), 0);

  RawHttpReply reply = HttpGet(server.port(), "/ping?x=1");
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(reply.body, "pong x=1\n");
  EXPECT_NE(reply.headers.find("Connection: close"), std::string::npos);

  // Unknown path: 404, and the body names the registered routes.
  reply = HttpGet(server.port(), "/nope");
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, 404);
  EXPECT_NE(reply.body.find("/ping"), std::string::npos);

  // Non-GET/HEAD: 405. Unparseable request line: 400.
  reply = RawHttpRequest(server.port(),
                         "POST /ping HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, 405);
  reply = RawHttpRequest(server.port(), "garbage\r\n\r\n");
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, 400);

  // HEAD: status + headers, no body.
  reply = RawHttpRequest(server.port(),
                         "HEAD /ping HTTP/1.1\r\nHost: x\r\n"
                         "Connection: close\r\n\r\n");
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, 200);
  EXPECT_TRUE(reply.body.empty());

  const auto stats = server.stats();
  EXPECT_EQ(stats.accepted, 5);
  EXPECT_EQ(stats.not_found, 1);
  EXPECT_GE(stats.bad_requests, 1);

  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
}

TEST(HttpServerTest, ConcurrentClientsAllGetAnswers) {
  serving::HttpServer server;
  std::atomic<int> calls{0};
  server.Handle("/work", [&calls](const serving::HttpRequest&) {
    calls.fetch_add(1);
    serving::HttpResponse response;
    response.body = "done\n";
    return response;
  });
  serving::HttpServer::Options opts;
  opts.num_workers = 3;
  ASSERT_TRUE(server.Start(opts).ok());

  constexpr int kClients = 24;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&ok, port = server.port()]() {
      RawHttpReply reply = HttpGet(port, "/work");
      // Under load some connections may get the inline 503 (bounded
      // pending queue) — that is the contract, not a failure.
      if (reply.ok && reply.status == 200) ok.fetch_add(1);
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_GE(ok.load(), 1);
  EXPECT_EQ(ok.load(), calls.load());
  server.Stop();
}

TEST(HttpServerTest, StartFailsCleanlyOnBusyPort) {
  serving::HttpServer first;
  first.Handle("/a", [](const serving::HttpRequest&) {
    return serving::HttpResponse{};
  });
  ASSERT_TRUE(first.Start({}).ok());

  serving::HttpServer second;
  second.Handle("/a", [](const serving::HttpRequest&) {
    return serving::HttpResponse{};
  });
  serving::HttpServer::Options opts;
  opts.port = first.port();  // already bound
  EXPECT_FALSE(second.Start(opts).ok());
  EXPECT_FALSE(second.running());
  first.Stop();
}

// --- SloTracker determinism ------------------------------------------------

TEST(SloTrackerTest, BurnRatesFollowTheScriptedSequence) {
  core::SloTracker::Options opts;
  opts.target = 0.9;  // error budget 0.1: burn = bad_fraction / 0.1
  opts.fast_window_seconds = 10;
  opts.slow_window_seconds = 100;
  opts.breach_burn_rate = 5;  // breach at fast bad_fraction >= 0.5
  core::SloTracker tracker(opts);

  // 9 good + 1 bad inside the fast window: bad fraction 0.1, burn 1.0 on
  // both windows (same population) — exactly on budget, no breach.
  for (int i = 0; i < 9; ++i) tracker.Record(i * 0.5, true);
  auto outcome = tracker.Record(4.5, false);
  EXPECT_DOUBLE_EQ(outcome.burn_rate_fast, 1.0);
  EXPECT_DOUBLE_EQ(outcome.burn_rate_slow, 1.0);
  EXPECT_FALSE(outcome.breach_started);

  auto state = tracker.state(5.0);
  EXPECT_EQ(state.good, 9);
  EXPECT_EQ(state.bad, 1);
  EXPECT_EQ(state.fast_good + state.fast_bad, 10);
  EXPECT_FALSE(state.in_breach);

  // Jump past the fast window: the same events still count in the slow
  // window but the fast window is empty, so its burn rate reads 0.
  state = tracker.state(20.0);
  EXPECT_EQ(state.fast_good + state.fast_bad, 0);
  EXPECT_DOUBLE_EQ(state.burn_rate_fast, 0.0);
  EXPECT_DOUBLE_EQ(state.burn_rate_slow, 1.0);

  // Jump past the slow window: everything is pruned.
  state = tracker.state(200.0);
  EXPECT_EQ(state.slow_good + state.slow_bad, 0);
  EXPECT_DOUBLE_EQ(state.burn_rate_slow, 0.0);
  EXPECT_EQ(state.good, 9);  // lifetime counters never prune
  EXPECT_EQ(state.bad, 1);
}

TEST(SloTrackerTest, BreachEpisodesAreEdgeTriggered) {
  core::SloTracker::Options opts;
  opts.target = 0.9;
  opts.fast_window_seconds = 10;
  opts.slow_window_seconds = 10;
  opts.breach_burn_rate = 5;
  core::SloTracker tracker(opts);

  EXPECT_FALSE(tracker.Record(0.0, true).breach_started);
  // 1 good + 1 bad: fraction 0.5, burn 5.0 >= threshold → episode starts.
  auto outcome = tracker.Record(1.0, false);
  EXPECT_DOUBLE_EQ(outcome.burn_rate_fast, 5.0);
  EXPECT_TRUE(outcome.breach_started);
  EXPECT_FALSE(outcome.breach_ended);
  // Still breaching: same episode, no second start.
  outcome = tracker.Record(2.0, false);
  EXPECT_FALSE(outcome.breach_started);
  EXPECT_FALSE(outcome.breach_ended);
  // Recovery: goods dilute the window below the threshold → episode ends
  // exactly once.
  bool ended = false;
  for (int i = 0; i < 8; ++i) {
    outcome = tracker.Record(3.0 + i * 0.1, true);
    EXPECT_FALSE(outcome.breach_started);
    if (outcome.breach_ended) {
      EXPECT_FALSE(ended) << "episode ended twice";
      ended = true;
    }
  }
  EXPECT_TRUE(ended);
}

TEST(SloTrackerTest, LatencyObjectiveClassifiesGoodness) {
  core::SloTracker::Options opts;
  opts.latency_objective_seconds = 2.0;
  core::SloTracker tracker(opts);
  EXPECT_TRUE(tracker.IsGood(true, 1.5));
  EXPECT_FALSE(tracker.IsGood(true, 2.5));   // OK but too slow
  EXPECT_FALSE(tracker.IsGood(false, 0.1));  // fast but failed

  core::SloTracker availability_only({});
  EXPECT_TRUE(availability_only.IsGood(true, 1e9));
  EXPECT_FALSE(availability_only.IsGood(false, 0));
}

// --- TenantLedger exactness ------------------------------------------------

core::QueryResult MakeResult(const std::string& tag, double dollars,
                             int64_t calls, double total_seconds) {
  core::QueryResult result;
  result.client_tag = tag;
  result.total_seconds = total_seconds;
  result.metrics.counters[telemetry::kMetricLlmDollars] = dollars;
  result.metrics.counters[telemetry::kMetricLlmCalls] =
      static_cast<double>(calls);
  result.metrics.counters[telemetry::kMetricLlmInTokens] = 100;
  result.metrics.counters[telemetry::kMetricLlmOutTokens] = 10;
  return result;
}

TEST(TenantLedgerTest, AccumulatesExactlyPerTag) {
  core::TenantLedger ledger;
  ledger.RecordCompletion(MakeResult("a", 0.25, 3, 1.0));
  ledger.RecordCompletion(MakeResult("a", 0.50, 5, 3.0));
  ledger.RecordCompletion(MakeResult("b", 0.125, 2, 2.0));
  ledger.RecordRejection("b");
  ledger.RecordRejection("");  // untagged bucket

  auto snap = ledger.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap["a"].queries, 2);
  EXPECT_EQ(snap["a"].llm_calls, 8);
  EXPECT_DOUBLE_EQ(snap["a"].dollars, 0.75);
  EXPECT_EQ(snap["a"].in_tokens, 200);
  EXPECT_EQ(snap["a"].latency.count(), 2u);
  EXPECT_EQ(snap["b"].queries, 1);
  EXPECT_EQ(snap["b"].rejected, 1);
  EXPECT_DOUBLE_EQ(snap["b"].dollars, 0.125);
  EXPECT_EQ(snap[core::TenantLedger::kUntagged].rejected, 1);
  EXPECT_EQ(snap[core::TenantLedger::kUntagged].queries, 0);
  EXPECT_EQ(ledger.tenant_count(), 3u);

  core::QueryResult failed = MakeResult("a", 0, 0, 0.5);
  failed.status = Status::DeadlineExceeded("late");
  ledger.RecordCompletion(failed);
  core::QueryResult degraded = MakeResult("a", 0, 0, 0.5);
  degraded.phase = core::QueryPhase::kDegraded;
  ledger.RecordCompletion(degraded);
  snap = ledger.snapshot();
  EXPECT_EQ(snap["a"].queries, 4);
  EXPECT_EQ(snap["a"].failed, 1);
  EXPECT_EQ(snap["a"].deadline_misses, 1);
  EXPECT_EQ(snap["a"].degraded, 1);
}

TEST(TenantLedgerTest, AnnotateSnapshotEmitsLabeledSeries) {
  core::TenantLedger ledger;
  ledger.RecordCompletion(MakeResult("team \"x\"", 0.5, 2, 1.0));
  MetricsSnapshot snap;
  ledger.AnnotateSnapshot(&snap);
  // Label values are escaped at composition; the key is the exact string
  // ToPrometheusText() will render.
  const std::string key = "tenant.queries{tenant=\"team \\\"x\\\"\"}";
  ASSERT_EQ(snap.counters.count(key), 1u) << "labeled key missing";
  EXPECT_DOUBLE_EQ(snap.counters[key], 1.0);
  const std::string prom = snap.ToPrometheusText();
  EXPECT_NE(prom.find("unify_tenant_queries{tenant=\"team \\\"x\\\"\"} 1"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("unify_tenant_dollars{tenant="), std::string::npos);
  // JSON report carries the same tenant.
  EXPECT_NE(ledger.ToJson().find("team \\\"x\\\""), std::string::npos);
  EXPECT_NE(ledger.ToText().find("team \"x\""), std::string::npos);
}

// A tag of any length keeps its row whole: its counts and its newline
// survive, so the next row starts on a line of its own.
TEST(TenantLedgerTest, LongTagKeepsItsRowInTheTextReport) {
  core::TenantLedger ledger;
  const std::string long_tag(300, 't');
  ledger.RecordCompletion(MakeResult(long_tag, 0.5, 2, 1.0));
  ledger.RecordCompletion(MakeResult(long_tag, 0.5, 2, 1.0));
  ledger.RecordCompletion(MakeResult("short", 0.5, 2, 1.0));
  std::istringstream text(ledger.ToText());
  std::string header, line;
  ASSERT_TRUE(std::getline(text, header));
  std::map<std::string, std::string> rows;  // tag -> query count
  while (std::getline(text, line)) {
    std::istringstream fields(line);
    std::string tag, queries;
    fields >> tag >> queries;
    rows[tag] = queries;
  }
  EXPECT_TRUE(text.eof());
  ASSERT_EQ(rows.size(), 2u) << ledger.ToText();
  EXPECT_EQ(rows[long_tag], "2");
  EXPECT_EQ(rows["short"], "1");
  EXPECT_EQ(ledger.ToText().back(), '\n');
}

// A client that sends a fresh tag per request cannot grow the ledger past
// its cap: the first 1,024 tags get buckets, later tags share the overflow
// bucket, and the buckets still sum to what the queries merged globally.
TEST(TenantLedgerTest, TaggedBucketsAreCappedWithAnOverflowBucket) {
  core::TenantLedger ledger;
  MetricsRegistry registry;  // stands in for Global(): one merge per query
  constexpr size_t kTags = core::TenantLedger::kMaxTaggedTenants + 6;
  for (size_t i = 0; i < kTags; ++i) {
    const core::QueryResult result =
        MakeResult("tag-" + std::to_string(i), 0.125 * static_cast<double>(i),
                   static_cast<int64_t>(i % 7), 1.0);
    registry.Merge(result.metrics);
    ledger.RecordCompletion(result);
  }
  // Tags that already own a bucket keep it; new ones overflow.
  ledger.RecordRejection("tag-0");
  ledger.RecordRejection("tag-" + std::to_string(kTags));
  ledger.RecordRejection("");

  const auto tenants = ledger.snapshot();
  // 1,024 tagged buckets, the overflow bucket and the untagged one.
  EXPECT_EQ(tenants.size(), core::TenantLedger::kMaxTaggedTenants + 2);
  EXPECT_EQ(ledger.tenant_count(), tenants.size());
  EXPECT_EQ(tenants.count("tag-1023"), 1u);
  EXPECT_EQ(tenants.count("tag-1024"), 0u);
  EXPECT_EQ(tenants.at("tag-0").rejected, 1);
  ASSERT_EQ(tenants.count(core::TenantLedger::kOverflow), 1u);
  const core::TenantUsage& overflow = tenants.at(core::TenantLedger::kOverflow);
  EXPECT_EQ(overflow.queries, 6);
  EXPECT_EQ(overflow.rejected, 1);
  EXPECT_EQ(overflow.latency.count(), 6u);
  EXPECT_EQ(tenants.at(core::TenantLedger::kUntagged).rejected, 1);

  const MetricsSnapshot totals = registry.Snapshot();
  int64_t queries_sum = 0, calls_sum = 0, out_tokens_sum = 0;
  double dollars_sum = 0;
  for (const auto& [tag, usage] : tenants) {
    queries_sum += usage.queries;
    calls_sum += usage.llm_calls;
    out_tokens_sum += usage.out_tokens;
    dollars_sum += usage.dollars;
  }
  EXPECT_EQ(queries_sum, static_cast<int64_t>(kTags));
  EXPECT_EQ(calls_sum, static_cast<int64_t>(
                           totals.counters.at(telemetry::kMetricLlmCalls)));
  EXPECT_EQ(out_tokens_sum,
            static_cast<int64_t>(
                totals.counters.at(telemetry::kMetricLlmOutTokens)));
  EXPECT_DOUBLE_EQ(dollars_sum,
                   totals.counters.at(telemetry::kMetricLlmDollars));

  // The exposition carries one series per bucket, not per tag.
  MetricsSnapshot snap;
  ledger.AnnotateSnapshot(&snap);
  size_t query_series = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind(telemetry::kMetricTenantQueries, 0) == 0) {
      query_series += 1;
    }
  }
  EXPECT_EQ(query_series, tenants.size());
}

// --- UnifyService with the endpoint enabled --------------------------------

class ServiceEndpointTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto profile = corpus::SportsProfile();
    profile.doc_count = 400;  // small corpus: fast tests
    corpus_ = new corpus::Corpus(corpus::GenerateCorpus(profile, 33));
    llm_ = new llm::SimulatedLlm(corpus_, llm::SimLlmOptions{});
    core::UnifyOptions options;
    options.collect_trace = false;
    options.cost_feedback = false;
    system_ = new core::UnifySystem(corpus_, llm_, options);
    ASSERT_TRUE(system_->Setup().ok());
  }
  static void TearDownTestSuite() {
    delete system_;
    delete llm_;
    delete corpus_;
    system_ = nullptr;
    llm_ = nullptr;
    corpus_ = nullptr;
  }

  static std::vector<std::string> Queries() {
    corpus::WorkloadOptions wopts;
    wopts.per_template = 1;
    wopts.seed = 99;
    std::vector<std::string> queries;
    for (const auto& qc : corpus::GenerateWorkload(*corpus_, wopts)) {
      queries.push_back(qc.text);
      if (queries.size() >= 8) break;
    }
    return queries;
  }

  static corpus::Corpus* corpus_;
  static llm::SimulatedLlm* llm_;
  static core::UnifySystem* system_;
};

corpus::Corpus* ServiceEndpointTest::corpus_ = nullptr;
llm::SimulatedLlm* ServiceEndpointTest::llm_ = nullptr;
core::UnifySystem* ServiceEndpointTest::system_ = nullptr;

TEST_F(ServiceEndpointTest, EndpointIsOffByDefault) {
  core::UnifyService service(system_, {});
  EXPECT_EQ(service.http_port(), 0);
  core::QueryResult result = service.Answer(Queries().front());
  EXPECT_TRUE(result.status.ok()) << result.status;
}

TEST_F(ServiceEndpointTest, AllRoutesRespondWhileServing) {
  core::UnifyService::Options sopts;
  sopts.http_port = -1;  // OS-picked free port
  sopts.slo_latency_seconds = 1e6;
  core::UnifyService service(system_, sopts);
  ASSERT_GT(service.http_port(), 0);
  const int port = service.http_port();

  core::QueryRequest request;
  request.text = Queries().front();
  request.client_tag = "probe";
  ASSERT_TRUE(service.Answer(std::move(request)).status.ok());

  RawHttpReply reply = HttpGet(port, serving::kRouteHealthz);
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(reply.body, "ok\n");

  reply = HttpGet(port, serving::kRouteReadyz);
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(reply.body, "ready\n");

  reply = HttpGet(port, serving::kRouteMetrics);
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, 200);
  EXPECT_NE(reply.headers.find("text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(reply.body.find("# TYPE unify_exec_nodes counter"),
            std::string::npos);
  EXPECT_NE(reply.body.find("unify_tenant_queries{tenant=\"probe\"} 1"),
            std::string::npos)
      << reply.body;
  EXPECT_NE(reply.body.find("unify_serve_uptime_seconds"),
            std::string::npos);
  EXPECT_NE(reply.body.find("unify_serve_slo_good"), std::string::npos);

  reply = HttpGet(port, serving::kRouteStatusz);
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, 200);
  EXPECT_NE(reply.body.find("\"uptime_seconds\""), std::string::npos);
  EXPECT_NE(reply.body.find("\"slo\""), std::string::npos);
  EXPECT_NE(reply.body.find("\"tenants\":1"), std::string::npos);

  reply = HttpGet(port, serving::kRouteEvents);
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, 200);
  EXPECT_NE(reply.body.find("\"kind\":\"complete\""), std::string::npos);

  reply = HttpGet(port, serving::kRouteSlow);
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, 200);
  EXPECT_NE(reply.body.find("\"total_seconds\""), std::string::npos);

  reply = HttpGet(port, serving::kRouteAccuracy);
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, 200);

  reply = HttpGet(port, serving::kRouteTenants);
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, 200);
  EXPECT_NE(reply.body.find("\"probe\""), std::string::npos);

  const auto stats = service.stats();
  EXPECT_GT(stats.uptime_seconds, 0);
  EXPECT_EQ(stats.slo.good, 1);
  EXPECT_EQ(stats.slo.bad, 0);
  ASSERT_EQ(stats.tenants.count("probe"), 1u);
  EXPECT_EQ(stats.tenants.at("probe").queries, 1);
}

TEST_F(ServiceEndpointTest, ReadyzReportsAdmissionPressure) {
  core::UnifyService::Options sopts;
  sopts.http_port = -1;
  sopts.max_queue_depth = 0;  // everything rejects: permanently not ready
  core::UnifyService service(system_, sopts);
  ASSERT_GT(service.http_port(), 0);

  RawHttpReply reply = HttpGet(service.http_port(), serving::kRouteReadyz);
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, 503);
  EXPECT_NE(reply.body.find("\"ready\":false"), std::string::npos);
  EXPECT_NE(reply.body.find("\"serve.inflight\""), std::string::npos);
  EXPECT_NE(reply.body.find("\"max_queue_depth\":0"), std::string::npos);

  core::QueryResult result = service.Answer(Queries().front());
  EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
  auto snap = service.tenant_ledger().snapshot();
  EXPECT_EQ(snap[core::TenantLedger::kUntagged].rejected, 1);
}

TEST_F(ServiceEndpointTest, ScrapeDuringBurstAndTenantSumsMatchGlobals) {
  core::UnifyService::Options sopts;
  sopts.num_workers = 8;
  sopts.http_port = -1;
  core::UnifyService service(system_, sopts);
  ASSERT_GT(service.http_port(), 0);
  const int port = service.http_port();
  const std::vector<std::string> queries = Queries();

  MetricsSnapshot before = MetricsRegistry::Global().Snapshot();

  // 16 tagged clients burst while a scraper hammers /metrics — the
  // acceptance scenario: scrapes must stay valid mid-serve, and the
  // tenant ledger must come out exact.
  std::atomic<bool> scraping{true};
  std::atomic<int> scrapes_ok{0};
  std::thread scraper([&]() {
    while (scraping.load()) {
      RawHttpReply reply = HttpGet(port, serving::kRouteMetrics);
      if (reply.ok && reply.status == 200 &&
          reply.body.find("# TYPE") != std::string::npos) {
        scrapes_ok.fetch_add(1);
      }
    }
  });

  constexpr int kClients = 16;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      core::QueryRequest request;
      request.text = queries[static_cast<size_t>(c) % queries.size()];
      request.client_tag = "tenant-" + std::to_string(c % 4);
      core::QueryResult result = service.Answer(std::move(request));
      if (result.status.ok()) ok.fetch_add(1);
    });
  }
  for (auto& t : clients) t.join();
  scraping.store(false);
  scraper.join();
  EXPECT_GE(scrapes_ok.load(), 1);

  // The LLM telemetry is recorded per prompt type (`llm.calls.<type>`);
  // FamilySum adds up the family, mirroring what the tenant ledger
  // accounts.
  MetricsSnapshot delta =
      MetricsRegistry::Global().Snapshot().DeltaSince(before);

  // With a depth-64 queue nothing rejects: all 16 complete.
  ASSERT_EQ(ok.load(), kClients);
  const auto tenants = service.tenant_ledger().snapshot();
  ASSERT_EQ(tenants.size(), 4u);
  int64_t queries_sum = 0, calls_sum = 0, in_tokens_sum = 0,
          out_tokens_sum = 0;
  double dollars_sum = 0;
  for (const auto& [tag, usage] : tenants) {
    EXPECT_EQ(usage.queries, 4) << tag;  // 16 clients over 4 tags
    queries_sum += usage.queries;
    calls_sum += usage.llm_calls;
    in_tokens_sum += usage.in_tokens;
    out_tokens_sum += usage.out_tokens;
    dollars_sum += usage.dollars;
    EXPECT_EQ(usage.latency.count(), 4u) << tag;
  }
  EXPECT_EQ(queries_sum, kClients);
  // Integer counters: per-tenant sums reproduce the global delta exactly.
  EXPECT_EQ(calls_sum,
            static_cast<int64_t>(delta.FamilySum(telemetry::kMetricLlmCalls)));
  EXPECT_EQ(in_tokens_sum, static_cast<int64_t>(delta.FamilySum(
                               telemetry::kMetricLlmInTokens)));
  EXPECT_EQ(out_tokens_sum, static_cast<int64_t>(delta.FamilySum(
                                telemetry::kMetricLlmOutTokens)));
  EXPECT_GT(calls_sum, 0);
  // Dollars accumulate fractional doubles whose addition order differs
  // under concurrency: near-equality, not byte equality.
  EXPECT_NEAR(dollars_sum, delta.FamilySum(telemetry::kMetricLlmDollars),
              1e-9);
  EXPECT_GT(dollars_sum, 0);

  // A final scrape sees the same exactness in the exported text: the
  // unify_tenant_queries samples sum to the completed count.
  RawHttpReply reply = HttpGet(port, serving::kRouteMetrics);
  ASSERT_TRUE(reply.ok);
  ASSERT_EQ(reply.status, 200);
  int64_t exported_queries = 0;
  int series = 0;
  std::istringstream lines(reply.body);
  std::string line;
  const std::string needle = "unify_tenant_queries{tenant=";
  while (std::getline(lines, line)) {
    if (line.rfind(needle, 0) != 0) continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    exported_queries += std::atoll(line.c_str() + space + 1);
    series += 1;
  }
  EXPECT_EQ(series, 4);
  EXPECT_EQ(exported_queries, kClients) << reply.body;

  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, kClients);
  EXPECT_EQ(stats.slo.good + stats.slo.bad, kClients);
}

/// Every counter sample of a Prometheus text body, keyed by its series
/// (`name{labels}`).
std::map<std::string, double> ScrapedCounters(const std::string& body) {
  std::map<std::string, double> counters;
  std::istringstream lines(body);
  std::string line;
  bool counter_family = false;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      counter_family = line.size() > 8 &&
                       line.compare(line.size() - 8, 8, " counter") == 0;
      continue;
    }
    if (line.empty() || line[0] == '#' || !counter_family) continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    counters[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  return counters;
}

// Serving under a scraper: each query's metrics reach the registry in one
// merge, so no scrape ever sees a counter go backwards, and after drain
// the global deltas equal both the sum of the queries' own metrics and
// the tenant ledger.
TEST_F(ServiceEndpointTest, ScrapesNeverSeeACounterDecreaseAndDrainReconciles) {
  core::UnifyService::Options sopts;
  sopts.num_workers = 8;
  sopts.max_queue_depth = 64;
  sopts.http_port = -1;
  core::UnifyService service(system_, sopts);
  const int port = service.http_port();
  ASSERT_GT(port, 0);
  const std::vector<std::string> queries = Queries();
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();

  std::atomic<bool> scraping{true};
  int scrapes = 0;
  std::thread scraper([&]() {
    std::map<std::string, double> previous;
    auto scrape_once = [&]() {
      RawHttpReply reply = HttpGet(port, serving::kRouteMetrics);
      ASSERT_TRUE(reply.ok);
      ASSERT_EQ(reply.status, 200);
      std::map<std::string, double> current = ScrapedCounters(reply.body);
      for (const auto& [series, value] : previous) {
        auto it = current.find(series);
        ASSERT_NE(it, current.end()) << series << " vanished";
        EXPECT_GE(it->second, value) << series << " decreased";
      }
      previous = std::move(current);
      scrapes += 1;
    };
    while (scraping.load()) scrape_once();
    scrape_once();  // after drain
  });

  constexpr int kQueries = 32;
  std::vector<std::future<core::QueryResult>> futures;
  for (int i = 0; i < kQueries; ++i) {
    core::QueryRequest request;
    request.text = queries[static_cast<size_t>(i) % queries.size()];
    request.client_tag = "stress-" + std::to_string(i % 8);
    futures.push_back(service.Submit(std::move(request)));
  }
  std::vector<core::QueryResult> results;
  for (auto& f : futures) results.push_back(f.get());
  scraping.store(false);
  scraper.join();
  EXPECT_GE(scrapes, 2);

  const MetricsSnapshot delta =
      MetricsRegistry::Global().Snapshot().DeltaSince(before);
  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  // Sum of the queries' own metrics, counters and histogram counts.
  std::map<std::string, double> own;
  std::map<std::string, size_t> own_observations;
  for (const auto& r : results) {
    ASSERT_TRUE(r.status.ok()) << r.status;
    for (const auto& [name, value] : r.metrics.counters) own[name] += value;
    for (const auto& [name, hist] : r.metrics.histograms) {
      own_observations[name] += hist.count();
    }
  }
  for (const auto& [name, value] : own) {
    auto it = delta.counters.find(name);
    const double global = it == delta.counters.end() ? 0.0 : it->second;
    if (value == std::floor(value)) {
      EXPECT_EQ(global, value) << name;
    } else {
      EXPECT_NEAR(global, value, 1e-9 * std::abs(value)) << name;
    }
  }
  // Whatever else moved was written by the serving layer, outside any
  // query.
  for (const auto& [name, value] : delta.counters) {
    if (own.count(name) == 0) {
      EXPECT_EQ(name.rfind("serve.", 0), 0u) << name;
    }
  }
  for (const auto& [name, count] : own_observations) {
    const size_t earlier = before.histograms.count(name) > 0
                               ? before.histograms.at(name).count()
                               : 0;
    EXPECT_EQ(after.histograms.at(name).count() - earlier, count) << name;
  }

  // The tenant ledger agrees with the same deltas.
  int64_t queries_sum = 0, calls_sum = 0, in_tokens_sum = 0;
  double dollars_sum = 0;
  const auto tenants = service.tenant_ledger().snapshot();
  EXPECT_EQ(tenants.size(), 8u);
  for (const auto& [tag, usage] : tenants) {
    queries_sum += usage.queries;
    calls_sum += usage.llm_calls;
    in_tokens_sum += usage.in_tokens;
    dollars_sum += usage.dollars;
  }
  EXPECT_EQ(queries_sum, kQueries);
  EXPECT_EQ(calls_sum,
            static_cast<int64_t>(delta.FamilySum(telemetry::kMetricLlmCalls)));
  EXPECT_EQ(in_tokens_sum, static_cast<int64_t>(delta.FamilySum(
                               telemetry::kMetricLlmInTokens)));
  EXPECT_NEAR(dollars_sum, delta.FamilySum(telemetry::kMetricLlmDollars),
              1e-9);
  EXPECT_GT(calls_sum, 0);

  // Every series the run left in the registry, and every tenant-labeled
  // series, has a catalog row of the kind its map holds.
  testing::ExpectCatalogKinds(delta);
  MetricsSnapshot tenant_series;
  service.tenant_ledger().AnnotateSnapshot(&tenant_series);
  EXPECT_FALSE(tenant_series.counters.empty());
  testing::ExpectCatalogKinds(tenant_series);
}

}  // namespace
}  // namespace unify
