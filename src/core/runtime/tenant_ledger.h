#ifndef UNIFY_CORE_RUNTIME_TENANT_LEDGER_H_
#define UNIFY_CORE_RUNTIME_TENANT_LEDGER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/metrics.h"
#include "common/stats.h"
#include "core/runtime/query.h"

namespace unify::core {

/// One tenant's cumulative usage, keyed by QueryRequest::client_tag.
/// Dollars/tokens/cache figures come from the exact per-query attribution
/// (QueryResult::metrics), so summing any field across tenants reproduces
/// the corresponding global counter's delta over the same interval.
struct TenantUsage {
  /// Served queries that completed (any phase, including failures).
  int64_t queries = 0;
  /// Admission-control rejections (never reached a worker).
  int64_t rejected = 0;
  /// Completed queries with a non-OK status (deadline misses included).
  int64_t failed = 0;
  int64_t deadline_misses = 0;
  /// Completions with QueryPhase::kDegraded.
  int64_t degraded = 0;
  /// LLM spend attributed to the tenant's queries (planning + execution
  /// + SCE sampling — the full llm.dollars attribution, not just
  /// exec_dollars).
  double dollars = 0;
  int64_t in_tokens = 0;
  int64_t out_tokens = 0;
  int64_t llm_calls = 0;
  int64_t cache_item_hits = 0;
  int64_t cache_coalesced = 0;
  /// Total (virtual) latency distribution of completed queries — log-
  /// linear buckets (common/stats.h), so a long-lived tenant's memory does
  /// not grow with its query count.
  Histogram latency;
};

/// The per-tenant usage ledger behind `/tenants`, the `unify_tenant_*`
/// labeled Prometheus series, UnifyService::Stats::tenants, and the
/// shell's `\tenants` report. A mutexed map of TenantUsage keyed by
/// client_tag (the empty tag is bucketed as "(untagged)"), fed by
/// UnifyService on every rejection and completion. Thread-safe.
///
/// Bounded: the first kMaxTaggedTenants distinct tags get a bucket each;
/// every later tag is accounted in the one "(overflow)" bucket, so a
/// client sending random tags cannot grow memory or scrape size without
/// bound. Sums across buckets still cover every query. The ledger is the
/// one place that maps a tag to its bucket: a fair-mode UnifyService
/// queues each request under BucketKey(), so the scheduler's tenants are
/// bounded the same way.
class TenantLedger {
 public:
  /// The bucket untagged requests are accounted under.
  static constexpr const char* kUntagged = "(untagged)";
  /// The bucket tags beyond the first kMaxTaggedTenants share.
  static constexpr const char* kOverflow = "(overflow)";
  /// Distinct tags that get a bucket of their own.
  static constexpr size_t kMaxTaggedTenants = 1024;

  TenantLedger() = default;
  TenantLedger(const TenantLedger&) = delete;
  TenantLedger& operator=(const TenantLedger&) = delete;

  /// Accounts one completed query from its result (exact per-query
  /// metrics, phase, status, latency).
  void RecordCompletion(const QueryResult& result);

  /// Accounts one admission-control rejection.
  void RecordRejection(const std::string& client_tag);

  /// The bucket `client_tag` is accounted in, claiming one for a new tag
  /// while fewer than kMaxTaggedTenants are taken.
  std::string BucketKey(const std::string& client_tag);

  /// Point-in-time copy of every tenant's usage.
  std::map<std::string, TenantUsage> snapshot() const;

  /// Buckets in use (tagged, untagged and overflow).
  size_t tenant_count() const;

  /// Adds the `tenant.*{tenant="..."}` labeled series to `snap` so a
  /// single ToPrometheusText() call renders global and per-tenant metrics
  /// together (docs/observability.md, "Per-tenant accounting").
  void AnnotateSnapshot(MetricsSnapshot* snap) const;

  /// One JSON object per tenant, keyed by tag (the `/tenants` route).
  std::string ToJson() const;

  /// Aligned text table for the shell's `\tenants` report.
  std::string ToText() const;

 private:
  /// The bucket `client_tag` is accounted in. Requires mu_.
  std::map<std::string, TenantUsage>::iterator BucketLocked(
      const std::string& client_tag);

  mutable std::mutex mu_;
  std::map<std::string, TenantUsage> tenants_;
  /// Buckets held by real tags (not untagged or overflow).
  size_t tagged_buckets_ = 0;
};

}  // namespace unify::core

#endif  // UNIFY_CORE_RUNTIME_TENANT_LEDGER_H_
