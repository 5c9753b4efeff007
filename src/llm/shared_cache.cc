#include "llm/shared_cache.h"

#include <algorithm>
#include <utility>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/telemetry_names.h"

namespace unify::llm {

namespace {

/// Stable key of the prompt slots that determine a per-item completion
/// (`attempt` and tier are deliberately excluded — they never change a
/// temperature-0 completion).
std::string FieldsKey(const LlmCall& call) {
  std::string key = std::to_string(static_cast<int>(call.type));
  key += '\x1d';
  for (const auto& [k, v] : call.fields) {
    key += k;
    key += '\x1f';
    key += v;
    key += '\x1e';
  }
  return key;
}

/// Fixed per-entry overhead charged on top of the strings (list/map node
/// bookkeeping); only the *relative* bytes accounting needs to be sane.
constexpr size_t kEntryOverheadBytes = 64;

/// Thread-local override installed by SharedCacheLlmClient::ScopedUse:
/// 0 = no override (use the client default), +1 = force on, -1 = force off.
thread_local int tls_cache_use = 0;

}  // namespace

SharedLlmCache::SharedLlmCache(SharedLlmCacheOptions options)
    : options_(std::move(options)) {
  const size_t shards =
      static_cast<size_t>(std::max(1, options_.num_shards));
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (options_.max_entries > 0) {
    max_entries_per_shard_ = std::max<size_t>(1, options_.max_entries / shards);
  }
  if (options_.max_bytes > 0) {
    max_bytes_per_shard_ = std::max<size_t>(1, options_.max_bytes / shards);
  }
}

bool SharedLlmCache::Cacheable(PromptType type) {
  switch (type) {
    case PromptType::kEvalPredicate:
    case PromptType::kExtractValue:
    case PromptType::kClassifyDoc:
      return true;
    default:
      return false;
  }
}

SharedLlmCache::Shard& SharedLlmCache::ShardFor(const std::string& key) {
  return *shards_[StableHash64(key) % shards_.size()];
}

const SharedLlmCache::Shard& SharedLlmCache::ShardFor(
    const std::string& key) const {
  return *shards_[StableHash64(key) % shards_.size()];
}

int64_t SharedLlmCache::AdmitLocked(Shard& shard, const std::string& key,
                                    const std::string& value,
                                    double dollars_share,
                                    std::unique_ptr<Origin> origin) {
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Another leader of the same key (coalescing off, or a re-elected
    // round) got here first; refresh recency, keep its value — both
    // leaders derived it from the same pure function.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return 0;
  }
  Entry entry;
  entry.key = key;
  entry.value = value;
  entry.dollars = dollars_share;
  entry.bytes = 2 * key.size() + value.size() + kEntryOverheadBytes;
  entry.origin = std::move(origin);
  shard.bytes += entry.bytes;
  bytes_.fetch_add(static_cast<int64_t>(entry.bytes),
                   std::memory_order_relaxed);
  entries_.fetch_add(1, std::memory_order_relaxed);
  shard.lru.push_front(std::move(entry));
  shard.index[key] = shard.lru.begin();

  // Evict the LRU tail while either per-shard bound is exceeded. The
  // guard keeps at least the entry just admitted so a single oversized
  // value still caches (and the caller's hit bookkeeping stays sane).
  int64_t evicted = 0;
  while (shard.lru.size() > 1 &&
         ((max_entries_per_shard_ > 0 &&
           shard.lru.size() > max_entries_per_shard_) ||
          (max_bytes_per_shard_ > 0 && shard.bytes > max_bytes_per_shard_))) {
    Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    bytes_.fetch_sub(static_cast<int64_t>(victim.bytes),
                     std::memory_order_relaxed);
    entries_.fetch_sub(1, std::memory_order_relaxed);
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    ++evicted;
  }
  evictions_.fetch_add(evicted, std::memory_order_relaxed);
  return evicted;
}

LlmResult SharedLlmCache::CallThrough(LlmClient* base, const LlmCall& call) {
  const std::string fields_key = FieldsKey(call);

  std::vector<std::string> results(call.items.size());
  // Duplicate items inside one call resolve through one representative
  // index (a call must not follow its own in-flight record).
  std::unordered_map<std::string, size_t> representative;
  std::vector<std::pair<size_t, size_t>> duplicates;  // (dup, rep)
  std::vector<size_t> pending;
  std::vector<std::string> keys(call.items.size());
  for (size_t i = 0; i < call.items.size(); ++i) {
    keys[i] = fields_key + call.items[i];
    auto [it, inserted] = representative.emplace(keys[i], i);
    if (inserted) {
      pending.push_back(i);
    } else {
      duplicates.emplace_back(i, it->second);
    }
  }

  int64_t hits = 0, misses = 0, coalesced = 0, evictions = 0;
  double saved = 0;
  LlmResult merged;
  double total_seconds = 0;

  // Each round: classify pending keys (hit / follow / lead), issue ONE
  // reduced base call for the led keys, then wait on the followed
  // records. Followers of a failed leader re-enter the next round and
  // re-elect. Rounds are sequential in virtual time, so their phase
  // durations add; within a round the own base call and the followed
  // calls overlap, so the phase charges their max.
  while (!pending.empty()) {
    std::vector<size_t> lead;
    std::vector<std::shared_ptr<Inflight>> lead_records;
    std::vector<std::pair<size_t, std::shared_ptr<Inflight>>> follows;
    for (size_t i : pending) {
      Shard& shard = ShardFor(keys[i]);
      std::lock_guard<std::mutex> lock(shard.mu);
      auto hit = shard.index.find(keys[i]);
      if (hit != shard.index.end()) {
        shard.lru.splice(shard.lru.begin(), shard.lru, hit->second);
        results[i] = hit->second->value;
        saved += hit->second->dollars;
        ++hits;
        continue;
      }
      if (options_.coalesce) {
        auto inflight = shard.inflight.find(keys[i]);
        if (inflight != shard.inflight.end()) {
          follows.emplace_back(i, inflight->second);
          continue;
        }
        auto record = std::make_shared<Inflight>();
        shard.inflight[keys[i]] = record;
        lead_records.push_back(std::move(record));
      }
      lead.push_back(i);
      ++misses;
    }

    double phase_seconds = 0;
    if (!lead.empty()) {
      LlmCall reduced = call;
      reduced.items.clear();
      for (size_t i : lead) reduced.items.push_back(call.items[i]);
      LlmResult fresh = base->Call(reduced);
      const bool admitted =
          fresh.status.ok() && fresh.items.size() == lead.size();
      const double share =
          admitted ? fresh.dollars / static_cast<double>(lead.size()) : 0;
      if (admitted) {
        for (size_t j = 0; j < lead.size(); ++j) {
          const size_t i = lead[j];
          results[i] = fresh.items[j];
          std::unique_ptr<Origin> origin;
          if (options_.record_origin) {
            origin = std::make_unique<Origin>(
                Origin{call.type, call.tier, call.fields, call.items[i]});
          }
          Shard& shard = ShardFor(keys[i]);
          std::lock_guard<std::mutex> lock(shard.mu);
          evictions += AdmitLocked(shard, keys[i], fresh.items[j], share,
                                   std::move(origin));
        }
      }
      // Release the in-flight records whether or not the call succeeded:
      // followers of a failed leader must wake and re-elect, not hang.
      for (size_t j = 0; j < lead_records.size(); ++j) {
        const size_t i = lead[j];
        {
          Shard& shard = ShardFor(keys[i]);
          std::lock_guard<std::mutex> lock(shard.mu);
          shard.inflight.erase(keys[i]);
        }
        Inflight& record = *lead_records[j];
        std::lock_guard<std::mutex> lock(record.mu);
        record.done = true;
        record.ok = admitted;
        if (admitted) {
          record.value = fresh.items[j];
          record.dollars = share;
          record.seconds = fresh.seconds;
        }
        record.cv.notify_all();
      }
      // The leader pays the base call in full — seconds, dollars, tokens.
      merged.in_tokens += fresh.in_tokens;
      merged.out_tokens += fresh.out_tokens;
      merged.dollars += fresh.dollars;
      merged.fields = fresh.fields;
      phase_seconds = std::max(phase_seconds, fresh.seconds);
      if (!fresh.status.ok()) {
        // Terminal failure (the resilience layer below already retried).
        // Propagate it with honest accounting; nothing was admitted.
        Commit(hits, misses, coalesced, evictions, saved);
        fresh.in_tokens = merged.in_tokens;
        fresh.out_tokens = merged.out_tokens;
        fresh.dollars = merged.dollars;
        fresh.seconds = total_seconds + phase_seconds;
        fresh.items.clear();
        return fresh;
      }
      if (fresh.items.size() != lead.size()) {
        Commit(hits, misses, coalesced, evictions, saved);
        LlmResult bad;
        bad.status =
            Status::Internal("shared cache: item count mismatch from base");
        return bad;
      }
    }

    std::vector<size_t> next_pending;
    for (auto& [i, record] : follows) {
      std::unique_lock<std::mutex> lock(record->mu);
      record->cv.wait(lock, [&] { return record->done; });
      if (record->ok) {
        results[i] = record->value;
        saved += record->dollars;
        ++coalesced;
        // The follower waited out the leader's call in virtual time;
        // concurrent waits of the same round overlap.
        phase_seconds = std::max(phase_seconds, record->seconds);
      } else {
        next_pending.push_back(i);
      }
    }
    total_seconds += phase_seconds;
    pending = std::move(next_pending);
  }

  for (const auto& [dup, rep] : duplicates) {
    results[dup] = results[rep];
    ++hits;
  }

  Commit(hits, misses, coalesced, evictions, saved);

  merged.items = std::move(results);
  merged.seconds = total_seconds;
  return merged;
}

void SharedLlmCache::Commit(int64_t hits, int64_t misses, int64_t coalesced,
                            int64_t evictions, double saved) {
  item_hits_.fetch_add(hits, std::memory_order_relaxed);
  item_misses_.fetch_add(misses, std::memory_order_relaxed);
  coalesced_.fetch_add(coalesced, std::memory_order_relaxed);
  saved_dollars_.fetch_add(saved, std::memory_order_relaxed);
  if (hits > 0) {
    MetricAddCounter(telemetry::kMetricLlmCacheHits,
                     static_cast<double>(hits));
  }
  if (misses > 0) {
    MetricAddCounter(telemetry::kMetricLlmCacheMisses,
                     static_cast<double>(misses));
  }
  if (coalesced > 0) {
    MetricAddCounter(telemetry::kMetricLlmCacheCoalesced,
                     static_cast<double>(coalesced));
  }
  if (evictions > 0) {
    MetricAddCounter(telemetry::kMetricLlmCacheEvictions,
                     static_cast<double>(evictions));
  }
  MetricSetGauge(telemetry::kMetricLlmCacheBytes,
                 static_cast<double>(bytes_.load(std::memory_order_relaxed)));
}

CacheStats SharedLlmCache::stats() const {
  CacheStats s;
  s.item_hits = item_hits_.load(std::memory_order_relaxed);
  s.item_misses = item_misses_.load(std::memory_order_relaxed);
  s.coalesced = coalesced_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.entries = entries_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  s.saved_dollars = saved_dollars_.load(std::memory_order_relaxed);
  return s;
}

void SharedLlmCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
    shard->bytes = 0;
    // In-flight records stay: their leaders complete and re-admit.
  }
  item_hits_.store(0, std::memory_order_relaxed);
  item_misses_.store(0, std::memory_order_relaxed);
  coalesced_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  entries_.store(0, std::memory_order_relaxed);
  bytes_.store(0, std::memory_order_relaxed);
  saved_dollars_.store(0, std::memory_order_relaxed);
  MetricSetGauge(telemetry::kMetricLlmCacheBytes, 0);
}

int64_t SharedLlmCache::Validate(LlmClient* oracle) const {
  int64_t mismatches = 0;
  for (const auto& shard : shards_) {
    // Snapshot under the lock; oracle calls happen outside it.
    std::vector<std::pair<Origin, std::string>> entries;
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      for (const Entry& entry : shard->lru) {
        if (entry.origin == nullptr) continue;
        entries.emplace_back(*entry.origin, entry.value);
      }
    }
    for (const auto& [origin, value] : entries) {
      LlmCall probe;
      probe.type = origin.type;
      probe.tier = origin.tier;
      probe.fields = origin.fields;
      probe.items = {origin.item};
      LlmResult truth = oracle->Call(probe);
      if (!truth.status.ok() || truth.items.size() != 1 ||
          truth.items[0] != value) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

LlmResult SharedCacheLlmClient::Call(const LlmCall& call) {
  if (!EnabledOnThisThread() || !SharedLlmCache::Cacheable(call.type) ||
      call.items.empty()) {
    return base_->Call(call);
  }
  return cache_->CallThrough(base_, call);
}

bool SharedCacheLlmClient::EnabledOnThisThread() const {
  if (tls_cache_use > 0) return true;
  if (tls_cache_use < 0) return false;
  return default_enabled_;
}

std::optional<bool> SharedCacheLlmClient::ThreadRouting() {
  if (tls_cache_use == 0) return std::nullopt;
  return tls_cache_use > 0;
}

SharedCacheLlmClient::ScopedUse::ScopedUse(bool enabled)
    : previous_(tls_cache_use) {
  tls_cache_use = enabled ? 1 : -1;
}

SharedCacheLlmClient::ScopedUse::~ScopedUse() { tls_cache_use = previous_; }

}  // namespace unify::llm
