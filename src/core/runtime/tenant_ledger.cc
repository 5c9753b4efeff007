#include "core/runtime/tenant_ledger.h"

#include <cstdio>
#include <iomanip>
#include <sstream>

#include "common/status.h"
#include "common/telemetry_names.h"
#include "common/trace.h"

namespace unify::core {

namespace {

/// The LLM telemetry is recorded per prompt type (`llm.calls.<type>`,
/// ...); the ledger accounts the whole family to the tenant.
int64_t FamilyCount(const MetricsSnapshot& metrics, const char* base) {
  return static_cast<int64_t>(metrics.FamilySum(base) + 0.5);
}

}  // namespace

std::map<std::string, TenantUsage>::iterator TenantLedger::BucketLocked(
    const std::string& client_tag) {
  static const std::string* untagged = new std::string(kUntagged);
  const std::string& key = client_tag.empty() ? *untagged : client_tag;
  auto it = tenants_.find(key);
  if (it != tenants_.end()) return it;
  if (key != kUntagged && key != kOverflow) {
    if (tagged_buckets_ >= kMaxTaggedTenants) {
      return tenants_.try_emplace(kOverflow).first;
    }
    tagged_buckets_ += 1;
  }
  return tenants_.try_emplace(key).first;
}

std::string TenantLedger::BucketKey(const std::string& client_tag) {
  std::lock_guard<std::mutex> lock(mu_);
  return BucketLocked(client_tag)->first;
}

void TenantLedger::RecordCompletion(const QueryResult& result) {
  std::lock_guard<std::mutex> lock(mu_);
  TenantUsage& usage = BucketLocked(result.client_tag)->second;
  usage.queries += 1;
  if (!result.status.ok()) usage.failed += 1;
  if (result.status.code() == StatusCode::kDeadlineExceeded) {
    usage.deadline_misses += 1;
  }
  if (result.phase == QueryPhase::kDegraded) usage.degraded += 1;
  usage.dollars += result.metrics.FamilySum(telemetry::kMetricLlmDollars);
  usage.in_tokens += FamilyCount(result.metrics, telemetry::kMetricLlmInTokens);
  usage.out_tokens +=
      FamilyCount(result.metrics, telemetry::kMetricLlmOutTokens);
  usage.llm_calls += FamilyCount(result.metrics, telemetry::kMetricLlmCalls);
  usage.cache_item_hits += result.cache_item_hits;
  usage.cache_coalesced += result.cache_coalesced;
  usage.latency.Add(result.total_seconds);
}

void TenantLedger::RecordRejection(const std::string& client_tag) {
  std::lock_guard<std::mutex> lock(mu_);
  BucketLocked(client_tag)->second.rejected += 1;
}

std::map<std::string, TenantUsage> TenantLedger::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenants_;
}

size_t TenantLedger::tenant_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenants_.size();
}

void TenantLedger::AnnotateSnapshot(MetricsSnapshot* snap) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [tag, usage] : tenants_) {
    auto labeled = [&tag](const char* base) {
      return LabeledMetricName(base, "tenant", tag);
    };
    snap->counters[labeled(telemetry::kMetricTenantQueries)] =
        static_cast<double>(usage.queries);
    snap->counters[labeled(telemetry::kMetricTenantRejected)] =
        static_cast<double>(usage.rejected);
    snap->counters[labeled(telemetry::kMetricTenantFailed)] =
        static_cast<double>(usage.failed);
    snap->counters[labeled(telemetry::kMetricTenantDeadlineMisses)] =
        static_cast<double>(usage.deadline_misses);
    snap->counters[labeled(telemetry::kMetricTenantDegraded)] =
        static_cast<double>(usage.degraded);
    snap->counters[labeled(telemetry::kMetricTenantDollars)] = usage.dollars;
    snap->counters[labeled(telemetry::kMetricTenantInTokens)] =
        static_cast<double>(usage.in_tokens);
    snap->counters[labeled(telemetry::kMetricTenantOutTokens)] =
        static_cast<double>(usage.out_tokens);
    snap->counters[labeled(telemetry::kMetricTenantLlmCalls)] =
        static_cast<double>(usage.llm_calls);
    snap->counters[labeled(telemetry::kMetricTenantCacheHits)] =
        static_cast<double>(usage.cache_item_hits);
    snap->counters[labeled(telemetry::kMetricTenantCacheCoalesced)] =
        static_cast<double>(usage.cache_coalesced);
    if (usage.latency.count() > 0) {
      snap->histograms.emplace(labeled(telemetry::kMetricTenantLatency),
                               usage.latency);
    }
  }
}

std::string TenantLedger::ToJson() const {
  std::ostringstream os;
  char buf[64];
  auto num = [&buf](double v) {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return std::string(buf);
  };
  os << "{";
  bool first = true;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [tag, usage] : tenants_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << JsonEscape(tag) << "\":{"
       << "\"queries\":" << usage.queries
       << ",\"rejected\":" << usage.rejected
       << ",\"failed\":" << usage.failed
       << ",\"deadline_misses\":" << usage.deadline_misses
       << ",\"degraded\":" << usage.degraded
       << ",\"dollars\":" << num(usage.dollars)
       << ",\"in_tokens\":" << usage.in_tokens
       << ",\"out_tokens\":" << usage.out_tokens
       << ",\"llm_calls\":" << usage.llm_calls
       << ",\"cache_item_hits\":" << usage.cache_item_hits
       << ",\"cache_coalesced\":" << usage.cache_coalesced;
    if (usage.latency.count() > 0) {
      os << ",\"latency_seconds\":{\"count\":" << usage.latency.count()
         << ",\"mean\":" << num(usage.latency.Mean())
         << ",\"p50\":" << num(usage.latency.Quantile(0.5))
         << ",\"p99\":" << num(usage.latency.Quantile(0.99)) << "}";
    }
    os << "}";
  }
  os << "}\n";
  return os.str();
}

std::string TenantLedger::ToText() const {
  std::ostringstream os;
  char line[256];
  std::snprintf(line, sizeof(line),
                "  %-16s %8s %7s %6s %6s %5s %10s %8s %8s %8s\n", "tenant",
                "queries", "reject", "miss", "degr", "fail", "dollars",
                "p50 s", "p99 s", "hits");
  os << line;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [tag, usage] : tenants_) {
    const bool has_latency = usage.latency.count() > 0;
    // The tag goes through the stream: a client-chosen tag of any length
    // must not cut off the counts after it.
    os << "  " << std::left << std::setw(16) << tag;
    std::snprintf(
        line, sizeof(line),
        " %8lld %7lld %6lld %6lld %5lld %10.4f %8.1f %8.1f %8lld\n",
        static_cast<long long>(usage.queries),
        static_cast<long long>(usage.rejected),
        static_cast<long long>(usage.deadline_misses),
        static_cast<long long>(usage.degraded),
        static_cast<long long>(usage.failed), usage.dollars,
        has_latency ? usage.latency.Quantile(0.5) : 0.0,
        has_latency ? usage.latency.Quantile(0.99) : 0.0,
        static_cast<long long>(usage.cache_item_hits + usage.cache_coalesced));
    os << line;
  }
  if (tenants_.empty()) os << "  (no tenants recorded yet)\n";
  return os.str();
}

}  // namespace unify::core
