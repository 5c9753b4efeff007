// Shared-LLM-cache coverage: key identity, CLOCK eviction, singleflight
// leader/follower accounting, failed-leader re-election, fault
// composition (no poisoning), shared-lock hits racing eviction,
// per-query overrides resolution, and byte-identical answers with the
// cache on/off at parallelism 1 and 4. The concurrent cases double as
// the TSAN target (scripts/check.sh).

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/query_scope.h"
#include "common/rng.h"
#include "common/telemetry_names.h"
#include "core/runtime/service.h"
#include "corpus/dataset_profile.h"
#include "corpus/workload.h"
#include "llm/shared_cache.h"
#include "llm/sim_llm.h"

namespace unify::llm {
namespace {

/// A counting base client: every per-item completion is a pure function
/// of the item string, so cache correctness is checkable exactly. Calls
/// can be gated (blocked) to force in-flight overlap deterministically.
class CountingLlm : public LlmClient {
 public:
  LlmResult Call(const LlmCall& call) override {
    const int64_t arrival = arrivals_.fetch_add(1);
    if (gate_until_arrivals_ > 0) {
      // Block every gated call until enough calls have arrived, so the
      // test can guarantee concurrent identical misses really overlap.
      while (arrivals_.load() < gate_until_arrivals_ && !released_.load()) {
        std::this_thread::yield();
      }
    }
    if (fail_first_ && arrival == 0) {
      LlmResult failed;
      failed.status = Status::DeadlineExceeded("scripted transient failure");
      failed.seconds = 1.0;
      failed.dollars = 0.01;
      return failed;
    }
    LlmResult r;
    for (const auto& item : call.items) {
      r.items.push_back(lie_ ? "poisoned" : "value-of-" + item);
    }
    if (drop_last_) r.items.pop_back();
    if (delay_ > std::chrono::microseconds(0)) {
      std::this_thread::sleep_for(delay_);
    }
    r.seconds = 1.0;
    r.dollars = 0.01 * static_cast<double>(call.items.size());
    r.in_tokens = 10 * static_cast<int64_t>(call.items.size());
    r.out_tokens = 5 * static_cast<int64_t>(call.items.size());
    return r;
  }

  LlmUsage usage() const override { return {}; }
  void ResetUsage() override {}

  int64_t arrivals() const { return arrivals_.load(); }
  void Release() { released_.store(true); }

  /// Gated calls spin until this many calls have arrived (or Release()).
  int64_t gate_until_arrivals_ = 0;
  /// The first call to arrive fails with a transient status.
  bool fail_first_ = false;
  /// Return a wrong completion for every item (a poisoning base).
  bool lie_ = false;
  /// Return OK with one item too few.
  bool drop_last_ = false;
  /// Time each call takes, so concurrent identical misses overlap.
  std::chrono::microseconds delay_{0};

 private:
  std::atomic<int64_t> arrivals_{0};
  std::atomic<bool> released_{false};
};

LlmCall DocCall(std::vector<std::string> items,
                const std::string& condition = "about tennis") {
  LlmCall call;
  call.type = PromptType::kEvalPredicate;
  call.tier = ModelTier::kWorker;
  call.fields["condition"] = condition;
  call.items = std::move(items);
  return call;
}

TEST(SharedCacheTest, HitsServeWithoutBaseCallAndChargeNothing) {
  CountingLlm base;
  SharedLlmCache cache(SharedLlmCacheOptions{});
  SharedCacheLlmClient client(&base, &cache, /*default_enabled=*/true);

  LlmResult first = client.Call(DocCall({"d1", "d2", "d3"}));
  ASSERT_TRUE(first.status.ok());
  EXPECT_EQ(base.arrivals(), 1);
  EXPECT_DOUBLE_EQ(first.seconds, 1.0);
  EXPECT_DOUBLE_EQ(first.dollars, 0.03);

  LlmResult second = client.Call(DocCall({"d1", "d2", "d3"}));
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(base.arrivals(), 1) << "full hit must not touch the base";
  EXPECT_EQ(second.items, first.items);
  EXPECT_DOUBLE_EQ(second.seconds, 0.0);
  EXPECT_DOUBLE_EQ(second.dollars, 0.0);
  EXPECT_EQ(second.in_tokens, 0);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.item_hits, 3);
  EXPECT_EQ(stats.item_misses, 3);
  EXPECT_EQ(stats.entries, 3);
  EXPECT_GT(stats.bytes, 0);
  EXPECT_DOUBLE_EQ(stats.saved_dollars, 0.03);
}

TEST(SharedCacheTest, PartialHitPaysOnlyTheReducedCall) {
  CountingLlm base;
  SharedLlmCache cache(SharedLlmCacheOptions{});
  SharedCacheLlmClient client(&base, &cache, true);

  ASSERT_TRUE(client.Call(DocCall({"d1", "d2"})).status.ok());
  LlmResult mixed = client.Call(DocCall({"d1", "d2", "d3", "d4"}));
  ASSERT_TRUE(mixed.status.ok());
  EXPECT_EQ(base.arrivals(), 2);
  ASSERT_EQ(mixed.items.size(), 4u);
  EXPECT_EQ(mixed.items[0], "value-of-d1");
  EXPECT_EQ(mixed.items[3], "value-of-d4");
  // Only the 2-item reduced call is charged.
  EXPECT_DOUBLE_EQ(mixed.dollars, 0.02);
  EXPECT_EQ(mixed.in_tokens, 20);
}

TEST(SharedCacheTest, DistinctFieldsAndTypesDoNotCollide) {
  CountingLlm base;
  SharedLlmCache cache(SharedLlmCacheOptions{});
  SharedCacheLlmClient client(&base, &cache, true);

  ASSERT_TRUE(client.Call(DocCall({"d1"}, "about tennis")).status.ok());
  ASSERT_TRUE(client.Call(DocCall({"d1"}, "about golf")).status.ok());
  LlmCall extract = DocCall({"d1"}, "about tennis");
  extract.type = PromptType::kExtractValue;
  ASSERT_TRUE(client.Call(extract).status.ok());
  EXPECT_EQ(base.arrivals(), 3);
  EXPECT_EQ(cache.stats().entries, 3);
}

TEST(SharedCacheTest, UncacheableTypesAndDisabledThreadsPassThrough) {
  CountingLlm base;
  SharedLlmCache cache(SharedLlmCacheOptions{});
  SharedCacheLlmClient client(&base, &cache, true);

  LlmCall planning;
  planning.type = PromptType::kSemanticParse;
  planning.fields["query"] = "count the tennis questions";
  ASSERT_TRUE(client.Call(planning).status.ok());
  ASSERT_TRUE(client.Call(planning).status.ok());
  EXPECT_EQ(base.arrivals(), 2) << "planning prompts are never cached";

  // The query scope's routing overrides the client default; a copy of
  // the scope with routing changed keeps the scope's sink, which still
  // receives the cache's counters.
  MetricsRegistry metrics;
  QueryScope::Installer query({&metrics, nullptr, std::nullopt});
  {
    QueryScope off = QueryScope::Current();
    off.use_llm_cache = false;
    QueryScope::Installer install(off);
    EXPECT_EQ(QueryScope::Current().metrics, &metrics);
    ASSERT_TRUE(client.Call(DocCall({"d1"})).status.ok());
    ASSERT_TRUE(client.Call(DocCall({"d1"})).status.ok());
  }
  EXPECT_EQ(base.arrivals(), 4) << "routing off must bypass the cache";
  EXPECT_EQ(cache.stats().entries, 0);

  // And the inverse: a default-disabled client under routing on.
  SharedCacheLlmClient dormant(&base, &cache, /*default_enabled=*/false);
  {
    QueryScope on = QueryScope::Current();
    on.use_llm_cache = true;
    QueryScope::Installer install(on);
    ASSERT_TRUE(dormant.Call(DocCall({"d2"})).status.ok());
    ASSERT_TRUE(dormant.Call(DocCall({"d2"})).status.ok());
  }
  EXPECT_EQ(base.arrivals(), 5);
  EXPECT_EQ(cache.stats().item_hits, 1);
  EXPECT_EQ(metrics.counter(telemetry::kMetricLlmCacheHits), 1);
  EXPECT_EQ(metrics.counter(telemetry::kMetricLlmCacheMisses), 1);
}

TEST(SharedCacheTest, DuplicateItemsInOneCallResolveThroughOneLookup) {
  CountingLlm base;
  SharedLlmCache cache(SharedLlmCacheOptions{});
  SharedCacheLlmClient client(&base, &cache, true);

  LlmResult r = client.Call(DocCall({"d1", "d1", "d2"}));
  ASSERT_TRUE(r.status.ok());
  ASSERT_EQ(r.items.size(), 3u);
  EXPECT_EQ(r.items[0], r.items[1]);
  EXPECT_EQ(base.arrivals(), 1);
  // The reduced base call carried the two unique items only.
  EXPECT_DOUBLE_EQ(r.dollars, 0.02);
}

TEST(SharedCacheTest, FieldsAndItemBoundariesNeverAlias) {
  CountingLlm base;
  SharedLlmCache cache(SharedLlmCacheOptions{});
  SharedCacheLlmClient client(&base, &cache, true);
  auto call = [](std::map<std::string, std::string> fields,
                 std::string item) {
    LlmCall c;
    c.type = PromptType::kEvalPredicate;
    c.fields = std::move(fields);
    c.items = {std::move(item)};
    return c;
  };

  // A field value holding separator-like bytes is not two fields.
  ASSERT_TRUE(client.Call(call({{"a", "1"}, {"b", "2"}}, "d1")).status.ok());
  ASSERT_TRUE(
      client.Call(call({{"a", "1\x1e" "b\x1f" "2"}}, "d1")).status.ok());
  EXPECT_EQ(base.arrivals(), 2);

  // Nor does an item's bytes extend the fields before it.
  LlmResult tail = client.Call(call({{"a", "1"}}, "b\x1f" "2\x1e"));
  ASSERT_TRUE(tail.status.ok());
  LlmResult empty = client.Call(call({{"a", "1"}, {"b", "2"}}, ""));
  ASSERT_TRUE(empty.status.ok());
  ASSERT_EQ(empty.items.size(), 1u);
  EXPECT_EQ(empty.items[0], "value-of-");
  EXPECT_EQ(base.arrivals(), 4);
  EXPECT_EQ(cache.stats().entries, 4);
  EXPECT_EQ(cache.stats().item_hits, 0);
}

TEST(SharedCacheTest, ItemCountMismatchChargesTheBaseCall) {
  CountingLlm base;
  base.drop_last_ = true;
  SharedLlmCache cache(SharedLlmCacheOptions{});
  SharedCacheLlmClient client(&base, &cache, true);

  LlmResult r = client.Call(DocCall({"d1", "d2", "d3"}));
  EXPECT_EQ(r.status.code(), StatusCode::kInternal) << r.status;
  EXPECT_TRUE(r.items.empty());
  // The provider ran the 3-item call, so the caller is charged for it.
  EXPECT_DOUBLE_EQ(r.seconds, 1.0);
  EXPECT_DOUBLE_EQ(r.dollars, 0.03);
  EXPECT_EQ(r.in_tokens, 30);
  EXPECT_EQ(r.out_tokens, 15);
  EXPECT_EQ(cache.stats().entries, 0) << "a short result is never admitted";

  // Nothing was admitted or left in flight: the next call leads again.
  base.drop_last_ = false;
  ASSERT_TRUE(client.Call(DocCall({"d1", "d2", "d3"})).status.ok());
  EXPECT_EQ(base.arrivals(), 2);
}

TEST(SharedCacheTest, ClockEvictionIsDeterministic) {
  SharedLlmCacheOptions opts;
  opts.num_shards = 1;  // one shard -> one CLOCK ring
  opts.max_entries = 3;
  opts.max_bytes = 0;
  auto run_sequence = [&]() {
    CountingLlm base;
    SharedLlmCache cache(opts);
    SharedCacheLlmClient client(&base, &cache, true);
    for (const char* item : {"a", "b", "c", "a"}) {
      EXPECT_TRUE(client.Call(DocCall({item})).status.ok());
    }
    // Ring a(referenced) b c, hand at a. Admitting d clears a's bit and
    // evicts b; the hand stops at c.
    EXPECT_TRUE(client.Call(DocCall({"d"})).status.ok());
    EXPECT_TRUE(client.Call(DocCall({"a"})).status.ok());  // hit
    // Re-miss: b was evicted. Admitting it evicts c under the hand.
    EXPECT_TRUE(client.Call(DocCall({"b"})).status.ok());
    return std::make_pair(cache.stats(), base.arrivals());
  };

  auto [stats, arrivals] = run_sequence();
  EXPECT_EQ(stats.evictions, 2);  // d evicted b, then b evicted c
  EXPECT_EQ(stats.entries, 3);
  EXPECT_EQ(stats.item_hits, 2);   // the repeated a, twice
  EXPECT_EQ(stats.item_misses, 5);  // a b c d + the re-missed b
  EXPECT_EQ(arrivals, 5);

  // Deterministic: an identical access sequence on a fresh cache lands on
  // identical counters, byte for byte.
  auto [stats2, arrivals2] = run_sequence();
  EXPECT_EQ(stats2.evictions, stats.evictions);
  EXPECT_EQ(stats2.entries, stats.entries);
  EXPECT_EQ(stats2.item_hits, stats.item_hits);
  EXPECT_EQ(stats2.item_misses, stats.item_misses);
  EXPECT_EQ(stats2.bytes, stats.bytes);
  EXPECT_EQ(arrivals2, arrivals);
}

TEST(SharedCacheTest, ClockEvictsWhereLruWouldNot) {
  SharedLlmCacheOptions opts;
  opts.num_shards = 1;
  opts.max_entries = 3;
  opts.max_bytes = 0;
  CountingLlm base;
  SharedLlmCache cache(opts);
  SharedCacheLlmClient client(&base, &cache, true);
  for (const char* item : {"a", "b", "c", "b", "c", "a"}) {
    ASSERT_TRUE(client.Call(DocCall({item})).status.ok());
  }
  ASSERT_EQ(base.arrivals(), 3);
  // Every entry is referenced, so the sweep clears all three bits and
  // then evicts a, the first in ring order. LRU would have evicted b,
  // the least recently used.
  ASSERT_TRUE(client.Call(DocCall({"d"})).status.ok());
  EXPECT_EQ(cache.stats().evictions, 1);
  ASSERT_TRUE(client.Call(DocCall({"b"})).status.ok());
  EXPECT_EQ(base.arrivals(), 4) << "b must hit";
  ASSERT_TRUE(client.Call(DocCall({"a"})).status.ok());
  EXPECT_EQ(base.arrivals(), 5) << "a must miss";
}

TEST(SharedCacheTest, SingleflightCoalescesConcurrentIdenticalMisses) {
  constexpr int kThreads = 8;
  CountingLlm base;
  // A second arrival, which coalescing must prevent, or Release() opens
  // the gate; until then the leader's base call is held open.
  base.gate_until_arrivals_ = 2;
  SharedLlmCache cache(SharedLlmCacheOptions{});
  SharedCacheLlmClient client(&base, &cache, true);

  std::atomic<int> entered{0};
  std::vector<LlmResult> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      entered.fetch_add(1);
      results[t] = client.Call(DocCall({"shared-doc"}));
    });
  }
  // Let every thread reach Call() while the leader's base call is held
  // open, then release the leader.
  while (entered.load() < kThreads) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  base.Release();
  for (auto& th : threads) th.join();

  // Exactly one base call no matter how the threads interleaved.
  EXPECT_EQ(base.arrivals(), 1);
  int paid = 0, waited = 0;
  for (const LlmResult& r : results) {
    ASSERT_TRUE(r.status.ok());
    ASSERT_EQ(r.items.size(), 1u);
    EXPECT_EQ(r.items[0], "value-of-shared-doc");
    if (r.dollars > 0) paid += 1;
    if (r.seconds > 0) waited += 1;
  }
  EXPECT_EQ(paid, 1) << "followers and hits are charged zero dollars";

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.item_misses, 1);
  EXPECT_EQ(stats.item_hits + stats.coalesced, kThreads - 1);
  // The leader and every coalesced follower are charged the base call's
  // virtual second; threads that arrived after completion hit for free.
  EXPECT_EQ(waited, 1 + stats.coalesced);
}

TEST(SharedCacheTest, CoalescingOffEveryConcurrentMissPays) {
  CountingLlm base;
  base.gate_until_arrivals_ = 2;  // both calls must arrive before either returns
  SharedLlmCacheOptions opts;
  opts.coalesce = false;
  SharedLlmCache cache(opts);
  SharedCacheLlmClient client(&base, &cache, true);

  auto call = [&] { return client.Call(DocCall({"shared-doc"})); };
  auto f1 = std::async(std::launch::async, call);
  auto f2 = std::async(std::launch::async, call);
  LlmResult r1 = f1.get(), r2 = f2.get();
  ASSERT_TRUE(r1.status.ok());
  ASSERT_TRUE(r2.status.ok());
  EXPECT_EQ(r1.items, r2.items);

  EXPECT_EQ(base.arrivals(), 2) << "without coalescing both misses pay";
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.coalesced, 0);
  EXPECT_EQ(stats.item_misses, 2);
  EXPECT_DOUBLE_EQ(r1.dollars + r2.dollars, 0.02);
}

TEST(SharedCacheTest, FailedLeaderIsNeverAdmittedAndFollowersReelect) {
  CountingLlm base;
  base.fail_first_ = true;
  // Hold the failing leader open until Release() or the follower's own
  // base call.
  base.gate_until_arrivals_ = 2;
  SharedLlmCache cache(SharedLlmCacheOptions{});
  SharedCacheLlmClient client(&base, &cache, true);

  std::atomic<bool> leader_started{false};
  std::thread leader([&] {
    leader_started.store(true);
    LlmResult r = client.Call(DocCall({"shared-doc"}));
    // The transient failure propagates to the leader's caller with its
    // accounting charged (the resilience layer below it already retried).
    EXPECT_FALSE(r.status.ok());
    EXPECT_DOUBLE_EQ(r.dollars, 0.01);
    EXPECT_DOUBLE_EQ(r.seconds, 1.0);
  });
  while (!leader_started.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread follower([&] {
    // Either follows the in-flight leader and re-elects after its
    // failure, or arrives later and leads directly — both end in its own
    // (successful) base call.
    LlmResult r = client.Call(DocCall({"shared-doc"}));
    EXPECT_TRUE(r.status.ok()) << r.status;
    ASSERT_EQ(r.items.size(), 1u);
    EXPECT_EQ(r.items[0], "value-of-shared-doc");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  base.Release();
  leader.join();
  follower.join();

  EXPECT_EQ(base.arrivals(), 2);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1) << "only the successful completion is admitted";
  EXPECT_EQ(stats.coalesced, 0) << "a failed leader coalesces nobody";

  // The surviving entry is the good value: a third call hits it.
  LlmResult again = client.Call(DocCall({"shared-doc"}));
  ASSERT_TRUE(again.status.ok());
  EXPECT_EQ(again.items[0], "value-of-shared-doc");
  EXPECT_EQ(base.arrivals(), 2);
}

TEST(SharedCacheTest, ClearResetsEntriesAndCounters) {
  CountingLlm base;
  SharedLlmCache cache(SharedLlmCacheOptions{});
  SharedCacheLlmClient client(&base, &cache, true);
  ASSERT_TRUE(client.Call(DocCall({"d1", "d2"})).status.ok());
  ASSERT_TRUE(client.Call(DocCall({"d1", "d2"})).status.ok());
  ASSERT_GT(cache.stats().entries, 0);

  cache.Clear();
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.bytes, 0);
  EXPECT_EQ(stats.item_hits, 0);
  EXPECT_EQ(stats.item_misses, 0);
  EXPECT_EQ(stats.coalesced, 0);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_DOUBLE_EQ(stats.saved_dollars, 0.0);

  // Cleared means cold: the same call pays the base again.
  ASSERT_TRUE(client.Call(DocCall({"d1", "d2"})).status.ok());
  EXPECT_EQ(base.arrivals(), 2);
}

TEST(SharedCacheTest, SharedLockHitsRaceEvictionWithoutLosingAnItem) {
  // Overlapping multi-item calls from 8 threads on one 64-entry shard:
  // hits under the shared lock race admissions, CLOCK sweeps and
  // in-flight registration on the same ring.
  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 300;
  constexpr uint64_t kUniverse = 128;
  SharedLlmCacheOptions opts;
  opts.num_shards = 1;
  opts.max_entries = 64;
  opts.max_bytes = 0;
  opts.coalesce = true;
  opts.record_origin = true;
  CountingLlm base;
  base.delay_ = std::chrono::microseconds(20);
  SharedLlmCache cache(opts);
  SharedCacheLlmClient client(&base, &cache, true);

  std::atomic<int64_t> issued{0};
  std::atomic<int64_t> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t state = 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(t + 1);
      for (int c = 0; c < kCallsPerThread; ++c) {
        std::vector<std::string> items;
        const size_t n = 1 + SplitMix64(state) % 8;
        for (size_t k = 0; k < n; ++k) {
          // Skewed draws: a hot half-universe plus duplicates in a call.
          const uint64_t r = SplitMix64(state);
          const uint64_t id = (r & 1) ? (r >> 1) % (kUniverse / 2)
                                      : (r >> 1) % kUniverse;
          items.push_back("doc" + std::to_string(id));
        }
        LlmResult r = client.Call(DocCall(items));
        issued.fetch_add(static_cast<int64_t>(items.size()));
        if (!r.status.ok() || r.items.size() != items.size()) {
          wrong.fetch_add(1);
          continue;
        }
        for (size_t k = 0; k < items.size(); ++k) {
          if (r.items[k] != "value-of-" + items[k]) wrong.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(wrong.load(), 0);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.item_hits + stats.item_misses + stats.coalesced,
            issued.load());
  EXPECT_GT(stats.evictions, 0) << "the workload must exercise the sweep";
  EXPECT_GT(stats.coalesced, 0) << "and concurrent identical misses";
  EXPECT_LE(stats.entries, 64);
  CountingLlm oracle;
  EXPECT_EQ(cache.Validate(&oracle), 0);
}

TEST(SharedCacheTest, ValidateCountsEntriesThatDisagreeWithTheOracle) {
  SharedLlmCacheOptions opts;
  opts.record_origin = true;

  // An honest base populates a cache the oracle agrees with.
  CountingLlm honest;
  SharedLlmCache good(opts);
  SharedCacheLlmClient good_client(&honest, &good, true);
  ASSERT_TRUE(good_client.Call(DocCall({"d1", "d2", "d3"})).status.ok());
  CountingLlm oracle;
  EXPECT_EQ(good.Validate(&oracle), 0);

  // A lying base produces entries the oracle refutes — the detector the
  // fault-composition bench uses to prove zero poisoning.
  CountingLlm liar;
  liar.lie_ = true;
  SharedLlmCache bad(opts);
  SharedCacheLlmClient bad_client(&liar, &bad, true);
  ASSERT_TRUE(bad_client.Call(DocCall({"d1", "d2"})).status.ok());
  EXPECT_EQ(bad.Validate(&oracle), 2);
}

// --- Per-query options resolution (QueryRequest::Overrides) ---

TEST(OverridesTest, ResolveAgainstAppliesPrecedenceAndClamping) {
  core::UnifyOptions defaults;
  defaults.objective = core::OptimizeObjective::kTime;
  defaults.collect_trace = true;
  defaults.exec.max_intra_op_parallelism = 2;
  defaults.graceful_degradation = false;
  defaults.default_retry_budget_seconds = 120.0;
  defaults.cache.enabled = false;

  core::QueryRequest::Overrides empty;
  core::ResolvedQueryOptions r = empty.ResolveAgainst(defaults);
  EXPECT_EQ(r.objective, core::OptimizeObjective::kTime);
  EXPECT_TRUE(r.collect_trace);
  EXPECT_EQ(r.max_intra_op_parallelism, 2);
  EXPECT_FALSE(r.graceful_degradation);
  EXPECT_DOUBLE_EQ(r.retry_budget_seconds, 120.0);
  EXPECT_FALSE(r.use_llm_cache);

  core::QueryRequest::Overrides set;
  set.objective = core::OptimizeObjective::kDollars;
  set.collect_trace = false;
  set.max_intra_op_parallelism = -3;  // clamps to 1
  set.graceful_degradation = true;
  set.retry_budget_seconds = 7.5;
  set.use_llm_cache = true;
  r = set.ResolveAgainst(defaults);
  EXPECT_EQ(r.objective, core::OptimizeObjective::kDollars);
  EXPECT_FALSE(r.collect_trace);
  EXPECT_EQ(r.max_intra_op_parallelism, 1);
  EXPECT_TRUE(r.graceful_degradation);
  EXPECT_DOUBLE_EQ(r.retry_budget_seconds, 7.5);
  EXPECT_TRUE(r.use_llm_cache);
}

// --- Full-system tests ---

class CacheSystemTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto profile = corpus::SportsProfile();
    profile.doc_count = 300;
    corpus_ = new corpus::Corpus(corpus::GenerateCorpus(profile, 33));
    llm_ = new SimulatedLlm(corpus_, SimLlmOptions{});
  }
  static void TearDownTestSuite() {
    delete llm_;
    delete corpus_;
    llm_ = nullptr;
    corpus_ = nullptr;
  }

  static std::vector<std::string> Queries(size_t n) {
    corpus::WorkloadOptions wopts;
    wopts.per_template = 1;
    wopts.seed = 99;
    std::vector<std::string> queries;
    for (const auto& qc : corpus::GenerateWorkload(*corpus_, wopts)) {
      queries.push_back(qc.text);
      if (queries.size() >= n) break;
    }
    return queries;
  }

  static corpus::Corpus* corpus_;
  static SimulatedLlm* llm_;
};

corpus::Corpus* CacheSystemTest::corpus_ = nullptr;
SimulatedLlm* CacheSystemTest::llm_ = nullptr;

TEST_F(CacheSystemTest, AnswersAreByteIdenticalCacheOnOffAtParallelism1And4) {
  const auto queries = Queries(6);
  ASSERT_GE(queries.size(), 4u);

  // Reference: cache disabled, sequential.
  core::UnifyOptions plain;
  plain.cost_feedback = false;
  core::UnifySystem reference(corpus_, llm_, plain);
  ASSERT_TRUE(reference.Setup().ok());
  std::map<std::string, std::string> expected;
  for (const auto& q : queries) {
    core::QueryResult r = reference.Answer(q);
    ASSERT_TRUE(r.status.ok()) << q << ": " << r.status;
    expected[q] = r.answer.ToString();
  }

  // Cache enabled — the answers must not move a byte, at parallelism 1
  // and 4, and the dollars must agree ACROSS parallelism settings (hits
  // and coalesced followers both charge zero, so the cache preserves the
  // executor's parallelism-invariance of spend).
  core::UnifyOptions cached;
  cached.cost_feedback = false;
  cached.cache.enabled = true;
  core::UnifySystem system(corpus_, llm_, cached);
  ASSERT_TRUE(system.Setup().ok());
  std::map<std::string, double> dollars_at_p1;
  for (int parallelism : {1, 4}) {
    for (const auto& q : queries) {
      core::QueryRequest request;
      request.text = q;
      request.overrides.max_intra_op_parallelism = parallelism;
      core::QueryResult r = system.Answer(request);
      ASSERT_TRUE(r.status.ok()) << q << ": " << r.status;
      EXPECT_EQ(r.answer.ToString(), expected[q])
          << "answer diverged with the cache on at parallelism "
          << parallelism << " for: " << q;
      if (parallelism == 1) {
        dollars_at_p1[q] = r.exec_dollars;
      } else {
        EXPECT_DOUBLE_EQ(r.exec_dollars, dollars_at_p1[q])
            << "cached dollars diverged across parallelism for: " << q;
      }
    }
    // Between rounds the cache is warm; clear so the p4 round replays the
    // same cold-start sequence and the dollars comparison is exact.
    system.llm_cache()->Clear();
  }
  // The warm rounds actually used the cache.
  EXPECT_GT(system.llm_cache() != nullptr, 0);
}

TEST_F(CacheSystemTest, PerQueryOverrideBeatsSystemDefault) {
  core::UnifyOptions opts;
  opts.cost_feedback = false;
  opts.cache.enabled = true;
  core::UnifySystem system(corpus_, llm_, opts);
  ASSERT_TRUE(system.Setup().ok());
  const std::string q = Queries(1).front();

  // Opt out per query: the cache must stay untouched.
  core::QueryRequest opt_out;
  opt_out.text = q;
  opt_out.overrides.use_llm_cache = false;
  core::QueryResult r = system.Answer(opt_out);
  ASSERT_TRUE(r.status.ok()) << r.status;
  EXPECT_EQ(system.llm_cache()->stats().entries, 0);
  EXPECT_EQ(r.cache_item_hits, 0);
  EXPECT_EQ(r.cache_coalesced, 0);

  // Default-on: the same query populates, then hits.
  core::QueryResult cold = system.Answer(q);
  ASSERT_TRUE(cold.status.ok());
  EXPECT_GT(system.llm_cache()->stats().entries, 0);
  core::QueryResult warm = system.Answer(q);
  ASSERT_TRUE(warm.status.ok());
  EXPECT_EQ(warm.answer.ToString(), cold.answer.ToString());
  EXPECT_GT(warm.cache_item_hits, 0) << "per-query attribution on the result";
  EXPECT_EQ(warm.metrics.counters.count(telemetry::kMetricLlmCacheHits), 1u);
}

TEST_F(CacheSystemTest, ServedConcurrentQueriesShareOneCacheExactly) {
  // The TSAN serving target: 4 workers racing identical + distinct
  // queries through one shared cache, with exact per-query attribution.
  core::UnifyOptions opts;
  opts.cost_feedback = false;
  opts.cache.enabled = true;
  core::UnifySystem system(corpus_, llm_, opts);
  ASSERT_TRUE(system.Setup().ok());

  const auto queries = Queries(4);
  core::UnifyService::Options sopts;
  sopts.num_workers = 4;
  core::UnifyService service(&system, sopts);
  std::vector<std::future<core::QueryResult>> futures;
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (const auto& q : queries) {
      core::QueryRequest request;
      request.text = q;
      futures.push_back(service.Submit(std::move(request)));
    }
  }
  int64_t attributed = 0;
  std::map<std::string, std::string> first_answer;
  for (size_t i = 0; i < futures.size(); ++i) {
    core::QueryResult r = futures[i].get();
    ASSERT_TRUE(r.status.ok()) << r.status;
    attributed += r.cache_item_hits + r.cache_coalesced;
    const std::string& q = queries[i % queries.size()];
    auto [it, inserted] = first_answer.emplace(q, r.answer.ToString());
    if (!inserted) {
      EXPECT_EQ(r.answer.ToString(), it->second) << q;
    }
  }
  const CacheStats stats = service.stats().cache;
  EXPECT_GT(stats.item_hits + stats.coalesced, 0)
      << "repeated queries must reuse per-document completions";
  // Exact attribution: per-query counts sum to the shared cache's total.
  EXPECT_EQ(attributed, stats.item_hits + stats.coalesced);
  EXPECT_GT(stats.entries, 0);
}

TEST_F(CacheSystemTest, InjectedFaultsNeverPoisonTheCache) {
  // Fault injection at the bench's 0.06 total rate, resilience +
  // degradation armed, record_origin on: after a concurrent served
  // workload, every resident entry must re-derive against a fresh
  // fault-free oracle on the same corpus.
  core::UnifyOptions opts;
  opts.cost_feedback = false;
  opts.cache.enabled = true;
  opts.cache.record_origin = true;
  opts.faults.rates.timeout = 0.02;
  opts.faults.rates.rate_limit = 0.02;
  opts.faults.rates.malformed = 0.02;
  opts.resilience.breaker.enabled = true;
  opts.graceful_degradation = true;
  core::UnifySystem system(corpus_, llm_, opts);
  ASSERT_TRUE(system.Setup().ok());

  const auto queries = Queries(6);
  core::UnifyService::Options sopts;
  sopts.num_workers = 4;
  core::UnifyService service(&system, sopts);
  std::vector<std::future<core::QueryResult>> futures;
  for (int repeat = 0; repeat < 2; ++repeat) {
    for (const auto& q : queries) {
      core::QueryRequest request;
      request.text = q;
      futures.push_back(service.Submit(std::move(request)));
    }
  }
  for (auto& f : futures) f.get();  // outcomes may vary; poisoning may not

  ASSERT_GT(system.llm_cache()->stats().entries, 0);
  SimulatedLlm oracle(corpus_, SimLlmOptions{});
  EXPECT_EQ(system.llm_cache()->Validate(&oracle), 0)
      << "a transient-failed or malformed completion reached the cache";
}

}  // namespace
}  // namespace unify::llm
