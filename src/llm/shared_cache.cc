#include "llm/shared_cache.h"

#include <algorithm>
#include <string_view>
#include <tuple>
#include <utility>

#include "common/metrics.h"
#include "common/query_scope.h"
#include "common/rng.h"
#include "common/telemetry_names.h"

namespace unify::llm {

namespace {

/// Appends `n` as a LEB128 varint: a prefix code, so length-prefixed
/// strings never run into one another.
void AppendVarint(std::string& out, uint64_t n) {
  while (n >= 0x80) {
    out += static_cast<char>((n & 0x7f) | 0x80);
    n >>= 7;
  }
  out += static_cast<char>(n);
}

void AppendLengthPrefixed(std::string& out, std::string_view s) {
  AppendVarint(out, s.size());
  out.append(s);
}

/// The prompt slots that determine a per-item completion: the type, then
/// every field's key and value, each length-prefixed, so two distinct
/// calls never share an encoding whatever bytes their fields hold.
/// `attempt` and tier are deliberately excluded — they never change a
/// temperature-0 completion.
std::string EncodeFields(const LlmCall& call) {
  std::string out;
  AppendVarint(out, static_cast<uint64_t>(call.type));
  for (const auto& [k, v] : call.fields) {
    AppendLengthPrefixed(out, k);
    AppendLengthPrefixed(out, v);
  }
  return out;
}

/// Fixed per-entry overhead charged on top of the strings (list/map node
/// bookkeeping); only the *relative* bytes accounting needs to be sane.
constexpr size_t kEntryOverheadBytes = 64;

/// One item of a call: its hash, its shard and its index in the call.
struct Probe {
  uint64_t hash;
  size_t shard;
  size_t index;
};

/// End of the run of probes from `begin` that share its shard.
size_t ShardRunEnd(const std::vector<Probe>& probes, size_t begin) {
  size_t end = begin + 1;
  while (end < probes.size() && probes[end].shard == probes[begin].shard) {
    ++end;
  }
  return end;
}

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

bool SharedLlmCache::ServeLocked(const Shard& shard, const Key& key,
                                 std::string& out, Tally& tally) {
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return false;
  Entry& entry = *it->second;
  if (!entry.referenced.load(std::memory_order_relaxed)) {
    entry.referenced.store(true, std::memory_order_relaxed);
  }
  out = entry.value;
  tally.saved += entry.dollars;
  ++tally.hits;
  return true;
}

void SharedLlmCache::AdmitLocked(Shard& shard, const Key& key,
                                 const std::string& value,
                                 double dollars_share,
                                 std::unique_ptr<Origin> origin,
                                 Tally& tally) {
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Another leader of the same key (coalescing off, or a re-elected
    // round) got here first; keep its value — both leaders derived it
    // from the same pure function — and count this as a reference.
    it->second->referenced.store(true, std::memory_order_relaxed);
    return;
  }
  Entry& entry = *shard.ring.emplace(shard.hand, key, value, dollars_share,
                                     std::move(origin));
  entry.bytes =
      2 * (key.fields.size() + key.item.size()) + value.size() +
      kEntryOverheadBytes;
  shard.index.emplace(entry.key(), &entry);
  shard.bytes += entry.bytes;
  bytes_.fetch_add(static_cast<int64_t>(entry.bytes),
                   std::memory_order_relaxed);
  entries_.fetch_add(1, std::memory_order_relaxed);
  ++tally.admitted;

  // Sweep the hand while either per-shard bound is exceeded: a set
  // reference bit buys its entry one more pass, a clear one is evicted.
  // The sweep passes over the entry just admitted, so a single oversized
  // value still caches (and the caller's hit bookkeeping stays sane).
  while (shard.ring.size() > 1 &&
         ((max_entries_per_shard_ > 0 &&
           shard.ring.size() > max_entries_per_shard_) ||
          (max_bytes_per_shard_ > 0 && shard.bytes > max_bytes_per_shard_))) {
    if (shard.hand == shard.ring.end()) shard.hand = shard.ring.begin();
    Entry& victim = *shard.hand;
    if (&victim == &entry) {
      ++shard.hand;
      continue;
    }
    if (victim.referenced.load(std::memory_order_relaxed)) {
      victim.referenced.store(false, std::memory_order_relaxed);
      ++shard.hand;
      continue;
    }
    shard.bytes -= victim.bytes;
    bytes_.fetch_sub(static_cast<int64_t>(victim.bytes),
                     std::memory_order_relaxed);
    entries_.fetch_sub(1, std::memory_order_relaxed);
    shard.index.erase(victim.key());
    shard.hand = shard.ring.erase(shard.hand);
    ++tally.evictions;
  }
}

LlmResult SharedLlmCache::CallThrough(LlmClient* base, const LlmCall& call) {
  const std::string fields = EncodeFields(call);
  const uint64_t fields_hash = StableHash64(fields);
  auto key_of = [&](const Probe& p) {
    return Key{p.hash, call.items[p.index], fields};
  };

  // Items sorted by (shard, hash, item): a round visits each shard's
  // items in one run, and duplicate items sit next to each other, so
  // they resolve through their first occurrence's lookup (a call must
  // not follow its own in-flight record).
  std::vector<Probe> probes(call.items.size());
  for (size_t i = 0; i < call.items.size(); ++i) {
    const uint64_t h =
        HashCombine(fields_hash, StableHash64(call.items[i]));
    probes[i] = {h, h % shards_.size(), i};
  }
  std::sort(probes.begin(), probes.end(),
            [&](const Probe& a, const Probe& b) {
              return std::tie(a.shard, a.hash, call.items[a.index], a.index) <
                     std::tie(b.shard, b.hash, call.items[b.index], b.index);
            });
  std::vector<Probe> pending;
  pending.reserve(probes.size());
  std::vector<std::pair<size_t, size_t>> duplicates;  // (dup, rep)
  for (const Probe& p : probes) {
    if (!pending.empty() && key_of(pending.back()) == key_of(p)) {
      duplicates.emplace_back(p.index, pending.back().index);
    } else {
      pending.push_back(p);
    }
  }

  std::vector<std::string> results(call.items.size());
  Tally tally;
  LlmResult merged;
  double total_seconds = 0;
  std::vector<Probe> missed;

  // Each round: classify pending items (hit / follow / lead), issue ONE
  // reduced base call for the led items, then wait on the followed
  // records. Followers of a failed leader re-enter the next round and
  // re-elect. Rounds are sequential in virtual time, so their phase
  // durations add; within a round the own base call and the followed
  // calls overlap, so the phase charges their max.
  while (!pending.empty()) {
    std::vector<Probe> lead;
    std::vector<std::shared_ptr<Inflight>> lead_records;
    std::vector<std::pair<Probe, std::shared_ptr<Inflight>>> follows;
    for (size_t begin = 0, end; begin < pending.size(); begin = end) {
      end = ShardRunEnd(pending, begin);
      Shard& shard = *shards_[pending[begin].shard];
      missed.clear();
      {
        std::shared_lock<std::shared_mutex> lock(shard.mu);
        for (size_t j = begin; j < end; ++j) {
          const Probe& p = pending[j];
          if (!ServeLocked(shard, key_of(p), results[p.index], tally)) {
            missed.push_back(p);
          }
        }
      }
      if (missed.empty()) continue;
      // Misses re-check under the exclusive lock: another call may have
      // admitted or registered the key since the shared lookup.
      std::lock_guard<std::shared_mutex> lock(shard.mu);
      for (const Probe& p : missed) {
        const Key key = key_of(p);
        if (ServeLocked(shard, key, results[p.index], tally)) continue;
        if (options_.coalesce) {
          auto inflight = shard.inflight.find(key);
          if (inflight != shard.inflight.end()) {
            follows.emplace_back(p, inflight->second);
            continue;
          }
          auto record = std::make_shared<Inflight>(key);
          shard.inflight.emplace(record->key(), record);
          lead_records.push_back(std::move(record));
        }
        lead.push_back(p);
        ++tally.misses;
      }
    }

    double phase_seconds = 0;
    if (!lead.empty()) {
      // The reduced call lists the led items in the caller's order.
      std::vector<size_t> call_order(lead.size());
      for (size_t k = 0; k < lead.size(); ++k) call_order[k] = k;
      std::sort(call_order.begin(), call_order.end(), [&](size_t a, size_t b) {
        return lead[a].index < lead[b].index;
      });
      LlmCall reduced = call;
      reduced.items.clear();
      for (size_t k : call_order) {
        reduced.items.push_back(call.items[lead[k].index]);
      }
      LlmResult fresh = base->Call(reduced);
      const bool admitted =
          fresh.status.ok() && fresh.items.size() == lead.size();
      const double share =
          admitted ? fresh.dollars / static_cast<double>(lead.size()) : 0;
      if (admitted) {
        for (size_t j = 0; j < call_order.size(); ++j) {
          results[lead[call_order[j]].index] = std::move(fresh.items[j]);
        }
      }
      // One exclusive lock per shard admits the values and releases the
      // in-flight records, whether or not the call succeeded: followers
      // of a failed leader must wake and re-elect, not hang.
      for (size_t begin = 0, end; begin < lead.size(); begin = end) {
        end = ShardRunEnd(lead, begin);
        Shard& shard = *shards_[lead[begin].shard];
        std::lock_guard<std::shared_mutex> lock(shard.mu);
        for (size_t k = begin; k < end; ++k) {
          const Key key = key_of(lead[k]);
          const size_t i = lead[k].index;
          if (admitted) {
            std::unique_ptr<Origin> origin;
            if (options_.record_origin) {
              origin = std::make_unique<Origin>(
                  Origin{call.type, call.tier, call.fields, call.items[i]});
            }
            AdmitLocked(shard, key, results[i], share, std::move(origin),
                        tally);
          }
          shard.inflight.erase(key);
        }
      }
      for (size_t k = 0; k < lead_records.size(); ++k) {
        Inflight& record = *lead_records[k];
        std::lock_guard<std::mutex> lock(record.mu);
        record.done = true;
        record.ok = admitted;
        if (admitted) {
          record.value = results[lead[k].index];
          record.dollars = share;
          record.seconds = fresh.seconds;
        }
        record.cv.notify_all();
      }
      // The leader pays the base call in full — seconds, dollars, tokens.
      merged.in_tokens += fresh.in_tokens;
      merged.out_tokens += fresh.out_tokens;
      merged.dollars += fresh.dollars;
      merged.fields = std::move(fresh.fields);
      phase_seconds = std::max(phase_seconds, fresh.seconds);
      if (!admitted) {
        // A terminal failure (the resilience layer below already
        // retried) or an OK result with the wrong item count: nothing was
        // admitted. Propagate it with honest accounting.
        Commit(tally);
        merged.status = fresh.status.ok()
                            ? Status::Internal(
                                  "shared cache: item count mismatch from base")
                            : fresh.status;
        merged.seconds = total_seconds + phase_seconds;
        return merged;
      }
    }

    std::vector<Probe> next_pending;
    for (auto& [p, record] : follows) {
      std::unique_lock<std::mutex> lock(record->mu);
      record->cv.wait(lock, [&] { return record->done; });
      if (record->ok) {
        results[p.index] = record->value;
        tally.saved += record->dollars;
        ++tally.coalesced;
        // The follower waited out the leader's call in virtual time;
        // concurrent waits of the same round overlap.
        phase_seconds = std::max(phase_seconds, record->seconds);
      } else {
        next_pending.push_back(p);
      }
    }
    total_seconds += phase_seconds;
    pending = std::move(next_pending);
  }

  for (const auto& [dup, rep] : duplicates) {
    results[dup] = results[rep];
    ++tally.hits;
  }

  Commit(tally);

  merged.items = std::move(results);
  merged.seconds = total_seconds;
  return merged;
}

void SharedLlmCache::Commit(const Tally& tally) {
  item_hits_.fetch_add(tally.hits, std::memory_order_relaxed);
  item_misses_.fetch_add(tally.misses, std::memory_order_relaxed);
  coalesced_.fetch_add(tally.coalesced, std::memory_order_relaxed);
  evictions_.fetch_add(tally.evictions, std::memory_order_relaxed);
  saved_dollars_.fetch_add(tally.saved, std::memory_order_relaxed);
  if (tally.hits > 0) {
    MetricAddCounter(telemetry::kMetricLlmCacheHits,
                     static_cast<double>(tally.hits));
  }
  if (tally.misses > 0) {
    MetricAddCounter(telemetry::kMetricLlmCacheMisses,
                     static_cast<double>(tally.misses));
  }
  if (tally.coalesced > 0) {
    MetricAddCounter(telemetry::kMetricLlmCacheCoalesced,
                     static_cast<double>(tally.coalesced));
  }
  if (tally.evictions > 0) {
    MetricAddCounter(telemetry::kMetricLlmCacheEvictions,
                     static_cast<double>(tally.evictions));
  }
  if (tally.admitted > 0 || tally.evictions > 0) {
    MetricSetGauge(telemetry::kMetricLlmCacheBytes,
                   static_cast<double>(bytes_.load(std::memory_order_relaxed)));
  }
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
    std::lock_guard<std::shared_mutex> lock(shard->mu);
    shard->index.clear();
    shard->ring.clear();
    shard->hand = shard->ring.end();
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
      std::shared_lock<std::shared_mutex> lock(shard->mu);
      for (const Entry& entry : shard->ring) {
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
  const bool enabled =
      QueryScope::Current().use_llm_cache.value_or(default_enabled_);
  if (!enabled || !SharedLlmCache::Cacheable(call.type) ||
      call.items.empty()) {
    return base_->Call(call);
  }
  return cache_->CallThrough(base_, call);
}

}  // namespace unify::llm
