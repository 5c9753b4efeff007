#ifndef UNIFY_COMMON_QUERY_SCOPE_H_
#define UNIFY_COMMON_QUERY_SCOPE_H_

#include <mutex>
#include <optional>

namespace unify {

class MetricsRegistry;

/// A shared, thread-safe pool of virtual seconds that retries may spend on
/// backoff. The runtime derives one per query from its deadline and
/// carries it in the query's QueryScope, so concurrent morsels of one
/// query drain one budget (llm::ResilientLlmClient consults it).
class RetryBudget {
 public:
  explicit RetryBudget(double seconds) : remaining_(seconds) {}

  /// Consumes `seconds` if the full amount is available; returns false
  /// (consuming nothing) otherwise.
  bool TryConsume(double seconds);
  /// Consumes up to `seconds`, clamping at zero (best-effort charge).
  void Drain(double seconds);
  double remaining() const;

 private:
  mutable std::mutex mu_;
  double remaining_;
};

/// What a running query owns that must follow its work onto every thread
/// that works on its behalf: the calling thread's scope, one value in one
/// thread-local. QueryPipeline installs one per query on the query's
/// thread; the executor installs a copy on every morsel worker, with the
/// morsel's own registry in `metrics`. A thread with nothing installed
/// reads the default: no sink, no budget, the cache client's default.
///
/// Installing replaces all three fields. To override one field, install
/// a copy of Current() with that field changed.
class QueryScope {
 public:
  /// Sink of the Metric* helpers (common/metrics.h): counters and
  /// histograms go here instead of MetricsRegistry::Global(); nullptr
  /// records into Global().
  MetricsRegistry* metrics = nullptr;
  /// The query's pool of virtual retry seconds; nullptr = unlimited.
  RetryBudget* retry_budget = nullptr;
  /// Whether llm::SharedCacheLlmClient routes this scope's calls through
  /// the shared cache; nullopt = the client's own default.
  std::optional<bool> use_llm_cache;

  /// The calling thread's scope: one TLS load, no initialization guard.
  static const QueryScope& Current() { return current_; }

  /// RAII: installs a scope on the calling thread for its lifetime and
  /// restores the previous one on destruction, so scopes nest.
  class Installer;

 private:
  static constinit thread_local QueryScope current_;
};

class QueryScope::Installer {
 public:
  explicit Installer(const QueryScope& scope) : previous_(current_) {
    current_ = scope;
  }
  ~Installer() { current_ = previous_; }
  Installer(const Installer&) = delete;
  Installer& operator=(const Installer&) = delete;

 private:
  QueryScope previous_;
};

}  // namespace unify

#endif  // UNIFY_COMMON_QUERY_SCOPE_H_
