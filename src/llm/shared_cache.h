#ifndef UNIFY_LLM_SHARED_CACHE_H_
#define UNIFY_LLM_SHARED_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "llm/llm_client.h"

namespace unify::llm {

/// Configuration of a SharedLlmCache (UnifyOptions::cache).
struct SharedLlmCacheOptions {
  /// Serve per-document completions from the cache by default. Off keeps
  /// the cache instance constructed but dormant; per-query overrides
  /// (QueryRequest::Overrides::use_llm_cache) flip it either way.
  bool enabled = false;
  /// Mutex-striped shards. Keys are distributed by stable hash, so two
  /// concurrent queries touching different documents rarely contend.
  int num_shards = 16;
  /// Upper bound on cached (fields, item) entries across all shards
  /// (0 = unbounded). Enforced per shard as max_entries / num_shards.
  size_t max_entries = 1 << 20;
  /// Approximate upper bound on resident bytes across all shards
  /// (0 = unbounded). Enforced per shard as max_bytes / num_shards.
  size_t max_bytes = 256ull << 20;
  /// In-flight coalescing (singleflight): concurrent identical misses
  /// elect one leader that performs the base call; followers block and
  /// are charged zero dollars/tokens but the leader's virtual seconds.
  /// Off degrades to plain memoization (each concurrent miss pays).
  bool coalesce = true;
  /// Keep each entry's originating (type, tier, fields, item) so
  /// Validate() can re-derive every cached value against an oracle
  /// client. Roughly doubles per-entry memory; benches/tests only.
  bool record_origin = false;
};

/// Point-in-time counters of a SharedLlmCache (the `unify::CacheStats`
/// of the public API; see docs/caching.md).
struct CacheStats {
  int64_t item_hits = 0;    ///< items served from a completed entry
  int64_t item_misses = 0;  ///< items that led a base call
  int64_t coalesced = 0;    ///< items that followed another call's leader
  int64_t evictions = 0;    ///< entries the CLOCK sweep dropped for the bounds
  int64_t entries = 0;      ///< resident entries
  int64_t bytes = 0;        ///< approximate resident bytes
  /// Base-call dollars that hits and coalesced items avoided re-paying
  /// (pro-rata share of each producing call's cost).
  double saved_dollars = 0;
};

/// The cross-query LLM answer cache (docs/caching.md): a sharded,
/// bounded CLOCK cache over per-document completions keyed by (prompt
/// type, prompt fields, item), with singleflight in-flight coalescing.
///
/// Soundness rests on one invariant: a per-document completion is a pure
/// function of the (condition, document) pair at temperature 0, so any
/// two calls that agree on type, fields and item must agree on the
/// item's completion — batching never changes it.
///
/// Admission discipline (fault composition, docs/resilience.md): a value
/// is admitted ONLY from an OK base result whose item count matches the
/// issued call. A transient-failed or injected-malformed completion is
/// never admitted; followers that waited on a failed leader re-elect —
/// the next one retries the base call itself, under the retry budget of
/// its own thread's query scope.
///
/// Accounting: hits charge zero seconds/dollars/tokens (the provider was
/// never called); a coalesced follower is charged zero dollars/tokens
/// but the leader's virtual seconds, so virtual-clock latency stays
/// honest — the follower really did wait for that call. Re-election
/// rounds are sequential: their phases add.
///
/// Thread-safe. Locks are per shard and never held across a base call
/// or a follower wait, so leaders of different keys proceed in parallel.
/// A call takes each of its shards' locks once per round for lookups,
/// shared: a hit writes nothing shared but its entry's clear reference
/// bit.
class SharedLlmCache {
 public:
  explicit SharedLlmCache(SharedLlmCacheOptions options);

  /// True for the per-document prompt families the cache may serve
  /// (kEvalPredicate, kExtractValue, kClassifyDoc).
  static bool Cacheable(PromptType type);

  /// Serves `call` through the cache: cached items are filled from
  /// entries, concurrent identical misses coalesce onto one leader, and
  /// remaining misses go to `base` as one reduced call whose admitted
  /// values populate the cache. Uncacheable calls must not be routed
  /// here (SharedCacheLlmClient forwards them to base directly).
  LlmResult CallThrough(LlmClient* base, const LlmCall& call);

  CacheStats stats() const;

  /// Drops every entry and resets the counters (the shell's
  /// `\cache clear`). In-flight leaders are unaffected: they complete
  /// and re-admit their values.
  void Clear();

  /// Re-derives every resident entry against `oracle` (requires
  /// record_origin): issues a batch-of-one call per entry and counts
  /// values that disagree. Returns the number of mismatches — 0 proves
  /// the cache holds no poisoned completions.
  int64_t Validate(LlmClient* oracle) const;

  const SharedLlmCacheOptions& options() const { return options_; }

 private:
  /// What produced an entry, kept only under record_origin.
  struct Origin {
    PromptType type;
    ModelTier tier;
    std::map<std::string, std::string> fields;
    std::string item;
  };

  /// An entry's identity, viewed without copying: the call's fields
  /// encoding (prompt type and length-prefixed fields), one item, and
  /// their combined hash. Equality compares all three in full.
  struct Key {
    uint64_t hash = 0;
    std::string_view item;
    std::string_view fields;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const { return key.hash; }
  };

  /// A key's own copy of its strings, for entries and in-flight records;
  /// key() views it.
  struct StoredKey {
    explicit StoredKey(const Key& key)
        : hash(key.hash), item(key.item), fields(key.fields) {}
    Key key() const { return {hash, item, fields}; }

    uint64_t hash;
    std::string item;
    std::string fields;
  };

  struct Entry : StoredKey {
    Entry(const Key& key, std::string value, double dollars,
          std::unique_ptr<Origin> origin)
        : StoredKey(key),
          value(std::move(value)),
          dollars(dollars),
          origin(std::move(origin)) {}

    std::string value;
    /// Pro-rata dollar share of the base call that produced the value
    /// (feeds CacheStats::saved_dollars on each hit).
    double dollars;
    size_t bytes = 0;
    /// CLOCK reference bit: a hit sets it (storing only when it is clear,
    /// so a hot entry's line is not rewritten) and the sweep clears it.
    std::atomic<bool> referenced{false};
    std::unique_ptr<Origin> origin;
  };

  /// One singleflight record: followers block on `cv` until the leader
  /// completes the base call (ok) or fails (not ok — followers re-elect).
  struct Inflight : StoredKey {
    using StoredKey::StoredKey;

    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool ok = false;
    std::string value;
    double dollars = 0;
    /// The leader's base-call virtual seconds, charged to followers.
    double seconds = 0;
  };

  struct Shard {
    /// Shared for hits; exclusive for admission, eviction and in-flight
    /// registration and release.
    std::shared_mutex mu;
    /// Entries in CLOCK order. `hand` is the next one the eviction sweep
    /// examines (end() stands for the front); new entries go in just
    /// behind it.
    std::list<Entry> ring;
    std::list<Entry>::iterator hand = ring.end();
    /// Keys view the entries' and records' StoredKey strings, which stay
    /// put while they are resident.
    std::unordered_map<Key, Entry*, KeyHash> index;
    std::unordered_map<Key, std::shared_ptr<Inflight>, KeyHash> inflight;
    size_t bytes = 0;
  };

  /// One CallThrough's deltas, folded in by Commit.
  struct Tally {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t coalesced = 0;
    int64_t admitted = 0;
    int64_t evictions = 0;
    double saved = 0;
  };

  /// Serves `key` from `shard` into `out` when resident. Caller holds
  /// `shard.mu`, shared or exclusive.
  static bool ServeLocked(const Shard& shard, const Key& key,
                          std::string& out, Tally& tally);

  /// Inserts `key` behind the CLOCK hand, unless it is resident, and
  /// sweeps the hand past the per-shard bounds. Caller holds `shard.mu`
  /// exclusively.
  void AdmitLocked(Shard& shard, const Key& key, const std::string& value,
                   double dollars_share, std::unique_ptr<Origin> origin,
                   Tally& tally);

  /// Folds one CallThrough's tally into the cache-wide counters and
  /// emits the llm.cache.* metrics (into the calling thread's per-query
  /// sink when one is installed, so attribution stays exact). The bytes
  /// gauge is set only when the call admitted or evicted an entry.
  void Commit(const Tally& tally);

  SharedLlmCacheOptions options_;
  size_t max_entries_per_shard_ = 0;  ///< 0 = unbounded
  size_t max_bytes_per_shard_ = 0;    ///< 0 = unbounded
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<int64_t> item_hits_{0};
  std::atomic<int64_t> item_misses_{0};
  std::atomic<int64_t> coalesced_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> entries_{0};
  std::atomic<int64_t> bytes_{0};
  std::atomic<double> saved_dollars_{0};
};

/// The client-stack adapter: routes cacheable per-document calls through
/// a SharedLlmCache and passes everything else to `base` untouched. In
/// UnifySystem's stack it sits between the resilience decorator and the
/// metering tracer —
///
///   SimulatedLlm -> FaultInjecting -> Resilient -> SharedCache -> Tracing
///
/// — so (a) what the cache sees has already survived retries/hedging
/// (failures reaching it are terminal for that attempt and are never
/// admitted), and (b) the tracer still meters every logical call,
/// including zero-cost hits.
class SharedCacheLlmClient : public LlmClient {
 public:
  /// `base` and `cache` must outlive the client. `default_enabled` is
  /// the system-wide setting; the calling thread's query scope overrides
  /// it when its `use_llm_cache` is set (common/query_scope.h): the
  /// runtime sets it to the query's resolved `use_llm_cache`, so one
  /// query's choice never leaks into another's calls.
  SharedCacheLlmClient(LlmClient* base, SharedLlmCache* cache,
                       bool default_enabled)
      : base_(base), cache_(cache), default_enabled_(default_enabled) {}

  LlmResult Call(const LlmCall& call) override;

  /// Usage of the *underlying* client — cache hits cost nothing.
  LlmUsage usage() const override { return base_->usage(); }
  void ResetUsage() override { base_->ResetUsage(); }

 private:
  LlmClient* base_;
  SharedLlmCache* cache_;
  bool default_enabled_;
};

}  // namespace unify::llm

#endif  // UNIFY_LLM_SHARED_CACHE_H_
