#ifndef UNIFY_SERVING_HTTP_ENDPOINT_H_
#define UNIFY_SERVING_HTTP_ENDPOINT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <condition_variable>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace unify::serving {

// The operator-facing route table served by a UnifyService's embedded
// endpoint (docs/observability.md, "HTTP endpoint"). Declared here and
// defined in http_endpoint.cc so scripts/check_docs.sh can lint the doc's
// route table against the definitions.
extern const char kRouteMetrics[];   // GET /metrics  — Prometheus text
extern const char kRouteHealthz[];   // GET /healthz  — liveness
extern const char kRouteReadyz[];    // GET /readyz   — readiness (503 + why)
extern const char kRouteStatusz[];   // GET /statusz  — JSON status summary
extern const char kRouteEvents[];    // GET /events   — flight-recorder JSONL
extern const char kRouteSlow[];      // GET /slow     — slow queries JSONL
extern const char kRouteAccuracy[];  // GET /accuracy — accuracy report
extern const char kRouteTenants[];   // GET /tenants  — per-tenant ledger JSON

/// One parsed HTTP/1.1 request. Only what the observability routes need:
/// request line + headers; bodies are ignored (every route is a GET).
struct HttpRequest {
  std::string method;  // "GET", "HEAD", ...
  std::string path;    // target up to `?`, e.g. "/metrics"
  std::string query;   // raw query string after `?` ("" when absent)
  /// Header fields, keys lowercased.
  std::map<std::string, std::string> headers;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// A small blocking HTTP/1.1 server on POSIX sockets — no third-party
/// dependencies, loopback-only, built for low-rate operator traffic
/// (scrapes, health probes, postmortem pulls), not for serving queries.
///
/// Concurrency model: one accept thread pushes connections into a bounded
/// queue drained by Options::num_workers worker threads; each connection
/// handles one request and is closed (`Connection: close`). When the
/// queue is full the accept thread answers 503 inline, so a scrape storm
/// cannot pile up unbounded connections. Handlers run on worker threads
/// concurrently with the serving process — they must be thread-safe.
///
/// Stop() (also run by the destructor) closes the listener, lets the
/// workers drain every accepted connection, and joins all threads: no
/// request is left mid-flight and no thread outlives the server.
class HttpServer {
 public:
  struct Options {
    /// TCP port to bind on 127.0.0.1. 0 = let the OS pick a free port
    /// (tests); read the bound port from port() after Start().
    int port = 0;
    /// Worker threads serving accepted connections.
    int num_workers = 2;
    /// listen(2) backlog.
    int backlog = 16;
    /// Accepted connections queued for a worker beyond which the accept
    /// loop answers 503 inline.
    size_t max_pending = 32;
    /// Per-connection receive/send timeout; a wedged client cannot hold
    /// a worker (or shutdown) hostage for longer than this.
    int io_timeout_ms = 2000;
    /// Request-head size bound; longer requests get 431.
    size_t max_request_bytes = 16 * 1024;
  };

  /// Wire-level counters (monotone since Start()).
  struct Stats {
    int64_t accepted = 0;
    int64_t served = 0;
    int64_t bad_requests = 0;
    int64_t not_found = 0;
    /// Connections answered 503 because the pending queue was full.
    int64_t overloaded = 0;
  };

  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  HttpServer() = default;
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers `handler` for exact-match `path`. Must be called before
  /// Start(); GET and HEAD are routed (HEAD drops the body).
  void Handle(const std::string& path, Handler handler);

  /// Binds, listens, and spawns the accept/worker threads. Fails (without
  /// leaking threads or fds) when the port cannot be bound.
  Status Start(const Options& options);

  /// Stops accepting, drains queued connections, joins every thread.
  /// Idempotent; safe to call on a never-started server.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (the OS-assigned one when Options::port was 0);
  /// 0 before Start().
  int port() const { return port_; }

  /// The registered route paths, sorted (the 404 body and /statusz list
  /// them).
  std::vector<std::string> routes() const;

  Stats stats() const;

 private:
  void AcceptLoop();
  void WorkerLoop();
  void ServeConnection(int fd);

  Options options_;
  std::map<std::string, Handler> handlers_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread acceptor_;
  std::vector<std::thread> workers_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_;  // accepted fds awaiting a worker
  Stats stats_;
};

}  // namespace unify::serving

#endif  // UNIFY_SERVING_HTTP_ENDPOINT_H_
