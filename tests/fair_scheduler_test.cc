#include "core/runtime/fair_scheduler.h"

#include <atomic>
#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"

namespace unify::core {
namespace {

// One dispatched task as the drain loops observe it: enough to compare
// dispatch orders across runs byte-for-byte.
struct Dispatched {
  std::string tenant;
  uint64_t seq = 0;
  QueryPriority priority = QueryPriority::kNormal;

  bool operator==(const Dispatched&) const = default;
};

FairScheduler::Task MakeTask(const std::string& tenant,
                             QueryPriority priority = QueryPriority::kNormal) {
  FairScheduler::Task task;
  task.tenant = tenant;
  task.priority = priority;
  task.run = [] {};
  return task;
}

/// Enqueues nothing further, drains the scheduler on the calling thread
/// (deterministic single-worker replay), and returns the dispatch order.
std::vector<Dispatched> DrainSingleThreaded(FairScheduler* sched) {
  sched->Shutdown();
  std::vector<Dispatched> order;
  FairScheduler::Task task;
  while (sched->Dequeue(&task)) {
    order.push_back({task.tenant, task.seq, task.priority});
    if (task.run) task.run();
    sched->OnComplete(task.tenant);
  }
  return order;
}

void ExpectStatsEqual(const FairScheduler::Stats& a,
                      const FairScheduler::Stats& b) {
  EXPECT_EQ(a.enqueued, b.enqueued);
  EXPECT_EQ(a.dispatched, b.dispatched);
  EXPECT_EQ(a.tenant_rejects, b.tenant_rejects);
  EXPECT_EQ(a.sheds, b.sheds);
  EXPECT_EQ(a.wheel_rotations, b.wheel_rotations);
  EXPECT_EQ(a.queued, b.queued);
  EXPECT_EQ(a.running, b.running);
  for (int pri = 0; pri < FairScheduler::kNumPriorities; ++pri) {
    EXPECT_EQ(a.queued_by_class[pri], b.queued_by_class[pri]);
  }
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (const auto& [tenant, ta] : a.tenants) {
    ASSERT_TRUE(b.tenants.count(tenant)) << tenant;
    const FairScheduler::TenantSched& tb = b.tenants.at(tenant);
    EXPECT_DOUBLE_EQ(ta.weight, tb.weight) << tenant;
    EXPECT_EQ(ta.queued, tb.queued) << tenant;
    EXPECT_EQ(ta.running, tb.running) << tenant;
    EXPECT_EQ(ta.dispatched, tb.dispatched) << tenant;
    EXPECT_EQ(ta.sheds, tb.sheds) << tenant;
    EXPECT_EQ(ta.rejected, tb.rejected) << tenant;
  }
}

// --- determinism (satellite: deterministic dispatch-order test) ------------

// The same arrival sequence must replay to a byte-identical dispatch order
// and identical scheduler counters, run after run: dispatch decisions are
// a pure function of queue/wheel state, never of wall time.
TEST(FairSchedulerDeterminismTest, SameArrivalsSameDispatchOrderAndCounters) {
  auto run_once = [](std::vector<Dispatched>* order,
                     FairScheduler::Stats* stats) {
    FairScheduler::Options options;
    options.tenant_weights = {{"a", 1.0}, {"b", 2.0}, {"c", 4.0}};
    FairScheduler sched(options);
    const QueryPriority classes[] = {QueryPriority::kBatch,
                                    QueryPriority::kNormal,
                                    QueryPriority::kInteractive};
    const std::string tenants[] = {"a", "b", "c", ""};
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE(
          sched.Enqueue(MakeTask(tenants[i % 4], classes[(i / 4) % 3])).ok());
    }
    *order = DrainSingleThreaded(&sched);
    *stats = sched.stats();
  };

  std::vector<Dispatched> order1, order2;
  FairScheduler::Stats stats1, stats2;
  run_once(&order1, &stats1);
  run_once(&order2, &stats2);

  ASSERT_EQ(order1.size(), 60u);
  EXPECT_EQ(order1, order2);
  ExpectStatsEqual(stats1, stats2);
  EXPECT_EQ(stats1.enqueued, 60);
  EXPECT_EQ(stats1.dispatched, 60);
  EXPECT_EQ(stats1.queued, 0);
  EXPECT_EQ(stats1.running, 0);
  // Monotone seqs are the tie-break within a (tenant, priority) queue:
  // those tasks must dispatch in enqueue order even when the wheel
  // interleaves tenants (across classes, interactive overtaking a
  // tenant's own batch work is the point of the tiers).
  std::map<std::pair<std::string, QueryPriority>, uint64_t> last_seq;
  for (const Dispatched& d : order1) {
    const auto key = std::make_pair(d.tenant, d.priority);
    auto it = last_seq.find(key);
    if (it != last_seq.end()) {
      EXPECT_GT(d.seq, it->second) << d.tenant;
    }
    last_seq[key] = d.seq;
  }
}

// With equal weights, a single priority class, and caps off, DRR over
// tenants that each have at most one queued task degenerates to FIFO: the
// wheel is the activation order, which is the arrival order.
TEST(FairSchedulerDeterminismTest, FifoEquivalentForDistinctTenantArrivals) {
  FairScheduler sched(FairScheduler::Options{});
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(sched.Enqueue(MakeTask("tenant-" + std::to_string(i))).ok());
  }
  const std::vector<Dispatched> order = DrainSingleThreaded(&sched);
  ASSERT_EQ(order.size(), 24u);
  for (int i = 0; i < 24; ++i) {
    EXPECT_EQ(order[i].tenant, "tenant-" + std::to_string(i));
    EXPECT_EQ(order[i].seq, static_cast<uint64_t>(i));
  }
}

// A single tenant's queue is FIFO by construction, whatever its weight.
TEST(FairSchedulerDeterminismTest, FifoEquivalentWithinOneTenant) {
  FairScheduler::Options options;
  options.tenant_weights = {{"solo", 0.5}};  // fractional: needs rotations
  FairScheduler sched(options);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(sched.Enqueue(MakeTask("solo")).ok());
  }
  const std::vector<Dispatched> order = DrainSingleThreaded(&sched);
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(order[i].seq, static_cast<uint64_t>(i));
  }
  // Weight 1/2 accumulates over refill passes instead of deadlocking.
  EXPECT_GT(sched.stats().wheel_rotations, 0);
}

// --- DRR weights -----------------------------------------------------------

TEST(FairSchedulerTest, WeightsRespectedOverBackloggedPrefix) {
  FairScheduler::Options options;
  options.tenant_weights = {{"a", 1.0}, {"b", 2.0}, {"c", 4.0}};
  FairScheduler sched(options);
  // Interleaved arrivals so every tenant stays backlogged throughout the
  // measured prefix.
  for (int i = 0; i < 140; ++i) {
    ASSERT_TRUE(sched.Enqueue(MakeTask("a")).ok());
    ASSERT_TRUE(sched.Enqueue(MakeTask("b")).ok());
    ASSERT_TRUE(sched.Enqueue(MakeTask("c")).ok());
  }
  const std::vector<Dispatched> order = DrainSingleThreaded(&sched);
  ASSERT_EQ(order.size(), 420u);
  std::map<std::string, int> prefix_counts;
  for (int i = 0; i < 140; ++i) prefix_counts[order[i].tenant] += 1;
  // Weights 1:2:4 over a 140-dispatch backlogged prefix => 20/40/80,
  // within a 15% tolerance for wheel-phase boundary effects.
  EXPECT_NEAR(prefix_counts["a"], 20, 3);
  EXPECT_NEAR(prefix_counts["b"], 40, 6);
  EXPECT_NEAR(prefix_counts["c"], 80, 12);
}

TEST(FairSchedulerTest, WeightsAreClampedIntoBounds) {
  FairScheduler::Options options;
  options.tenant_weights = {{"tiny", 1e-9}, {"huge", 1e9}};
  FairScheduler sched(options);
  EXPECT_DOUBLE_EQ(sched.WeightOf("tiny"), FairScheduler::kMinWeight);
  EXPECT_DOUBLE_EQ(sched.WeightOf("huge"), FairScheduler::kMaxWeight);
  EXPECT_DOUBLE_EQ(sched.WeightOf("absent"), 1.0);
  EXPECT_EQ(FairScheduler::TenantKey(""), "(untagged)");
  EXPECT_EQ(FairScheduler::TenantKey("x"), "x");
}

// --- strict priority tiers -------------------------------------------------

TEST(FairSchedulerTest, StrictPriorityDispatchesHigherTiersFirst) {
  std::atomic<bool> inversion{false};
  FairScheduler::Options options;
  options.dispatch_probe = [&inversion](const FairScheduler::Task&,
                                        bool higher_tier_dispatchable) {
    if (higher_tier_dispatchable) inversion.store(true);
  };
  FairScheduler sched(options);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(sched.Enqueue(MakeTask("a", QueryPriority::kBatch)).ok());
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        sched.Enqueue(MakeTask("b", QueryPriority::kInteractive)).ok());
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(sched.Enqueue(MakeTask("c", QueryPriority::kNormal)).ok());
  }
  const std::vector<Dispatched> order = DrainSingleThreaded(&sched);
  ASSERT_EQ(order.size(), 30u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i].priority, QueryPriority::kInteractive) << i;
    EXPECT_EQ(order[10 + i].priority, QueryPriority::kNormal) << i;
    EXPECT_EQ(order[20 + i].priority, QueryPriority::kBatch) << i;
  }
  EXPECT_FALSE(inversion.load());
}

// --- per-tenant caps -------------------------------------------------------

TEST(FairSchedulerTest, QueueDepthCapRejectsOnlyTheOffendingTenant) {
  FairScheduler::Options options;
  options.per_tenant_queue_depth = 3;
  FairScheduler sched(options);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(sched.Enqueue(MakeTask("noisy")).ok());
  }
  for (int i = 0; i < 2; ++i) {
    const Status st = sched.Enqueue(MakeTask("noisy"));
    EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  }
  // The cap is per tenant: others are unaffected by the noisy neighbor.
  EXPECT_TRUE(sched.Enqueue(MakeTask("quiet")).ok());

  FairScheduler::Stats stats = sched.stats();
  EXPECT_EQ(stats.tenant_rejects, 2);
  EXPECT_EQ(stats.queued, 4);
  EXPECT_EQ(stats.tenants.at("noisy").rejected, 2);
  EXPECT_EQ(stats.tenants.at("quiet").rejected, 0);

  const std::vector<Dispatched> order = DrainSingleThreaded(&sched);
  EXPECT_EQ(order.size(), 4u);
}

TEST(FairSchedulerTest, ConcurrencyCapNeverExceededUnderParallelWorkers) {
  constexpr int kCap = 2;
  constexpr int kTasks = 120;
  FairScheduler::Options options;
  options.per_tenant_max_concurrency = kCap;
  FairScheduler sched(options);

  std::map<std::string, std::atomic<int>> current;
  std::map<std::string, std::atomic<int>> peak;
  std::atomic<int> executed{0};
  for (const char* tenant : {"a", "b", "c"}) {
    current[tenant].store(0);
    peak[tenant].store(0);
  }
  for (int i = 0; i < kTasks; ++i) {
    const std::string tenant(i % 3 == 0 ? "a" : i % 3 == 1 ? "b" : "c");
    FairScheduler::Task task;
    task.tenant = tenant;
    // The max-concurrency probe: track the high-water mark of
    // simultaneously running tasks per tenant.
    task.run = [&current, &peak, &executed, tenant] {
      std::atomic<int>& cur = current.at(tenant);
      std::atomic<int>& max_seen = peak.at(tenant);
      const int now_running = cur.fetch_add(1) + 1;
      int prev = max_seen.load();
      while (prev < now_running &&
             !max_seen.compare_exchange_weak(prev, now_running)) {
      }
      std::this_thread::yield();
      cur.fetch_sub(1);
      executed.fetch_add(1);
    };
    ASSERT_TRUE(sched.Enqueue(std::move(task)).ok());
  }

  sched.Shutdown();
  std::vector<std::thread> workers;
  for (int i = 0; i < 4; ++i) {
    workers.emplace_back([&sched] {
      FairScheduler::Task task;
      while (sched.Dequeue(&task)) {
        task.run();
        sched.OnComplete(task.tenant);
      }
    });
  }
  for (std::thread& t : workers) t.join();

  EXPECT_EQ(executed.load(), kTasks);
  for (const char* tenant : {"a", "b", "c"}) {
    EXPECT_LE(peak.at(tenant).load(), kCap) << tenant;
    EXPECT_GT(peak.at(tenant).load(), 0) << tenant;
  }
  FairScheduler::Stats stats = sched.stats();
  EXPECT_EQ(stats.dispatched, kTasks);
  EXPECT_EQ(stats.queued, 0);
  EXPECT_EQ(stats.running, 0);
}

// --- queue-age shedding ----------------------------------------------------

TEST(FairSchedulerTest, ShedsTasksWhoseDeadlinePassedWhileQueued) {
  std::atomic<int64_t> clock_millis{0};
  FairScheduler::Options options;
  options.now = [&clock_millis] { return clock_millis.load() / 1000.0; };
  FairScheduler sched(options);

  std::vector<std::string> shed_tenants;
  std::vector<double> shed_queue_walls;
  auto expiring = [&](const std::string& tenant) {
    FairScheduler::Task task;
    task.tenant = tenant;
    task.arrival_seconds = 0;
    task.deadline_seconds = 10;
    task.run = [] { FAIL() << "expired task must shed, not run"; };
    task.shed = [&shed_tenants, &shed_queue_walls,
                 tenant](double queue_wall_seconds) {
      shed_tenants.push_back(tenant);
      shed_queue_walls.push_back(queue_wall_seconds);
    };
    return task;
  };
  ASSERT_TRUE(sched.Enqueue(expiring("a")).ok());
  ASSERT_TRUE(sched.Enqueue(expiring("b")).ok());
  // No explicit arrival => the deadline window starts at dispatch; never
  // shed regardless of the clock.
  std::atomic<bool> ran{false};
  FairScheduler::Task survivor;
  survivor.tenant = "c";
  survivor.deadline_seconds = 10;
  survivor.run = [&ran] { ran.store(true); };
  ASSERT_TRUE(sched.Enqueue(std::move(survivor)).ok());

  clock_millis.store(100'000);  // far past every arrival+deadline
  const std::vector<Dispatched> order = DrainSingleThreaded(&sched);

  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0].tenant, "c");
  EXPECT_TRUE(ran.load());
  ASSERT_EQ(shed_tenants.size(), 2u);
  EXPECT_EQ(shed_tenants[0], "a");
  EXPECT_EQ(shed_tenants[1], "b");
  for (double wall : shed_queue_walls) EXPECT_GE(wall, 0);

  FairScheduler::Stats stats = sched.stats();
  EXPECT_EQ(stats.sheds, 2);
  EXPECT_EQ(stats.dispatched, 1);
  EXPECT_EQ(stats.queued, 0);
  EXPECT_EQ(stats.tenants.at("a").sheds, 1);
  EXPECT_EQ(stats.tenants.at("b").sheds, 1);
}

TEST(FairSchedulerTest, NullClockDisablesShedding) {
  FairScheduler sched(FairScheduler::Options{});  // options.now unset
  std::atomic<bool> ran{false};
  FairScheduler::Task task;
  task.tenant = "a";
  task.arrival_seconds = 0;
  task.deadline_seconds = 1e-9;
  task.run = [&ran] { ran.store(true); };
  task.shed = [](double) { FAIL() << "shedding is disabled without a clock"; };
  ASSERT_TRUE(sched.Enqueue(std::move(task)).ok());
  EXPECT_EQ(DrainSingleThreaded(&sched).size(), 1u);
  EXPECT_TRUE(ran.load());
}

// --- randomized stress/invariant suite (satellite: seeded, >= 8 seeds) -----

// Every task submitted by the stress round ends in exactly one of three
// ways; nothing is lost and nothing fires twice.
enum TaskOutcome : int {
  kPending = 0,
  kRan = 1,
  kShedded = 2,
  kRejected = 3,
};

void RunStressRound(uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  constexpr int kSubmitters = 4;
  constexpr int kTasksPerSubmitter = 40;
  constexpr int kTotal = kSubmitters * kTasksPerSubmitter;
  constexpr int kCap = 3;
  const std::vector<std::string> tenants = {"", "t1", "t2", "t3", "t4"};

  std::atomic<bool> inversion{false};
  std::atomic<int64_t> clock_millis{0};
  FairScheduler::Options options;
  options.tenant_weights = {{"t1", 0.5}, {"t2", 1.0}, {"t3", 2.0},
                            {"t4", 4.0}};
  options.per_tenant_queue_depth = 64;
  options.per_tenant_max_concurrency = kCap;
  options.now = [&clock_millis] { return clock_millis.load() / 1000.0; };
  options.dispatch_probe = [&inversion](const FairScheduler::Task&,
                                        bool higher_tier_dispatchable) {
    if (higher_tier_dispatchable) inversion.store(true);
  };
  FairScheduler sched(options);

  std::vector<std::atomic<int>> outcome(kTotal);
  std::map<std::string, std::atomic<int>> current, peak;
  for (const std::string& tenant : tenants) {
    current[FairScheduler::TenantKey(tenant)].store(0);
    peak[FairScheduler::TenantKey(tenant)].store(0);
  }
  std::atomic<int> executed{0}, shed{0}, rejected{0};

  // Workers run concurrently with the submitters: Dequeue blocks until
  // work arrives, runs it, and releases the tenant's concurrency slot.
  std::vector<std::thread> workers;
  for (int i = 0; i < 4; ++i) {
    workers.emplace_back([&] {
      FairScheduler::Task task;
      while (sched.Dequeue(&task)) {
        task.run();
        sched.OnComplete(task.tenant);
        task = FairScheduler::Task();
      }
    });
  }

  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      std::mt19937_64 rng(seed * 1000003 + s);
      for (int i = 0; i < kTasksPerSubmitter; ++i) {
        const int id = s * kTasksPerSubmitter + i;
        FairScheduler::Task task;
        task.tenant = tenants[rng() % tenants.size()];
        task.priority = static_cast<QueryPriority>(rng() % 3);
        const std::string key = FairScheduler::TenantKey(task.tenant);
        switch (rng() % 4) {
          case 0:  // sheddable once the clock advances past 1ms
            task.arrival_seconds = 0;
            task.deadline_seconds = 0.001;
            break;
          case 1:  // generous deadline, explicit arrival: never expires
            task.arrival_seconds = clock_millis.load() / 1000.0;
            task.deadline_seconds = 1e9;
            break;
          default:  // no explicit arrival: exempt from shedding
            break;
        }
        task.run = [&, key, id] {
          std::atomic<int>& cur = current.at(key);
          std::atomic<int>& max_seen = peak.at(key);
          const int now_running = cur.fetch_add(1) + 1;
          int prev = max_seen.load();
          while (prev < now_running &&
                 !max_seen.compare_exchange_weak(prev, now_running)) {
          }
          EXPECT_EQ(outcome[id].exchange(kRan), kPending);
          clock_millis.fetch_add(1);  // virtual time advances as work runs
          std::this_thread::yield();
          cur.fetch_sub(1);
          executed.fetch_add(1);
        };
        task.shed = [&, id](double queue_wall_seconds) {
          EXPECT_GE(queue_wall_seconds, 0);
          EXPECT_EQ(outcome[id].exchange(kShedded), kPending);
          shed.fetch_add(1);
        };
        const Status st = sched.Enqueue(std::move(task));
        if (!st.ok()) {
          EXPECT_EQ(st.code(), StatusCode::kResourceExhausted)
              << st.ToString();
          EXPECT_EQ(outcome[id].load(), kPending);
          rejected.fetch_add(1);
          outcome[id].store(kRejected);
        }
        if (rng() % 8 == 0) std::this_thread::yield();
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  sched.Shutdown();
  for (std::thread& t : workers) t.join();

  // Invariant: every submitted task resolved exactly once — run, shed, or
  // rejected at enqueue. Nothing lost, nothing double-fired.
  int ran_count = 0, shed_count = 0, rejected_count = 0;
  for (int i = 0; i < kTotal; ++i) {
    switch (outcome[i].load()) {
      case kRan:
        ran_count += 1;
        break;
      case kShedded:
        shed_count += 1;
        break;
      case kRejected:
        rejected_count += 1;
        break;
      default:
        ADD_FAILURE() << "task " << i << " never resolved";
    }
  }
  EXPECT_EQ(ran_count + shed_count + rejected_count, kTotal);
  EXPECT_EQ(ran_count, executed.load());
  EXPECT_EQ(shed_count, shed.load());
  EXPECT_EQ(rejected_count, rejected.load());

  // Invariant: priority inversion never occurred between strict tiers.
  EXPECT_FALSE(inversion.load());

  // Invariant: per-tenant concurrency caps were never exceeded.
  for (const auto& [tenant, max_seen] : peak) {
    EXPECT_LE(max_seen.load(), kCap) << tenant;
  }

  // Invariant: the scheduler's own books reconcile with what the probes
  // observed, and it drained completely (no starvation: every tenant's
  // accepted work was dispatched or shed).
  FairScheduler::Stats stats = sched.stats();
  EXPECT_EQ(stats.enqueued, kTotal - rejected_count);
  EXPECT_EQ(stats.dispatched, executed.load());
  EXPECT_EQ(stats.sheds, shed.load());
  EXPECT_EQ(stats.tenant_rejects, rejected.load());
  EXPECT_EQ(stats.queued, 0);
  EXPECT_EQ(stats.running, 0);
  for (int pri = 0; pri < FairScheduler::kNumPriorities; ++pri) {
    EXPECT_EQ(stats.queued_by_class[pri], 0);
  }
  for (const auto& [tenant, t] : stats.tenants) {
    EXPECT_EQ(t.queued, 0) << tenant;
    EXPECT_EQ(t.running, 0) << tenant;
  }
}

TEST(FairSchedulerStressTest, RandomizedInvariantsHoldAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RunStressRound(seed);
  }
}

}  // namespace
}  // namespace unify::core
