
#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/dag.h"
#include "exec/schedule.h"
#include "exec/virtual_pool.h"

namespace unify::exec {
namespace {

Dag Diamond() {
  // 0 -> {1, 2} -> 3
  Dag dag;
  for (int i = 0; i < 4; ++i) dag.AddNode();
  EXPECT_TRUE(dag.AddEdge(0, 1).ok());
  EXPECT_TRUE(dag.AddEdge(0, 2).ok());
  EXPECT_TRUE(dag.AddEdge(1, 3).ok());
  EXPECT_TRUE(dag.AddEdge(2, 3).ok());
  return dag;
}

TEST(DagTest, TopologicalOrderRespectsEdges) {
  Dag dag = Diamond();
  auto order = dag.TopologicalOrder();
  ASSERT_TRUE(order.ok());
  std::vector<int> pos(4);
  for (int i = 0; i < 4; ++i) pos[(*order)[i]] = i;
  EXPECT_LT(pos[0], pos[1]);
  EXPECT_LT(pos[0], pos[2]);
  EXPECT_LT(pos[1], pos[3]);
  EXPECT_LT(pos[2], pos[3]);
}

TEST(DagTest, DetectsCycle) {
  Dag dag;
  dag.AddNode();
  dag.AddNode();
  ASSERT_TRUE(dag.AddEdge(0, 1).ok());
  ASSERT_TRUE(dag.AddEdge(1, 0).ok());
  EXPECT_FALSE(dag.TopologicalOrder().ok());
}

TEST(DagTest, EdgeValidation) {
  Dag dag;
  dag.AddNode();
  EXPECT_FALSE(dag.AddEdge(0, 0).ok());
  EXPECT_FALSE(dag.AddEdge(0, 5).ok());
  EXPECT_FALSE(dag.AddEdge(-1, 0).ok());
}

TEST(DagTest, DuplicateEdgeIsIdempotent) {
  Dag dag;
  dag.AddNode();
  dag.AddNode();
  ASSERT_TRUE(dag.AddEdge(0, 1).ok());
  ASSERT_TRUE(dag.AddEdge(0, 1).ok());
  EXPECT_EQ(dag.children(0).size(), 1u);
}

TEST(DagTest, Reaches) {
  Dag dag = Diamond();
  EXPECT_TRUE(dag.Reaches(0, 3));
  EXPECT_TRUE(dag.Reaches(1, 3));
  EXPECT_FALSE(dag.Reaches(1, 2));
  EXPECT_FALSE(dag.Reaches(3, 0));
  EXPECT_TRUE(dag.Reaches(2, 2));
}

TEST(DagTest, Depth) {
  EXPECT_EQ(Diamond().Depth(), 3u);
  Dag chain;
  for (int i = 0; i < 5; ++i) chain.AddNode();
  for (int i = 0; i + 1 < 5; ++i) ASSERT_TRUE(chain.AddEdge(i, i + 1).ok());
  EXPECT_EQ(chain.Depth(), 5u);
  Dag empty;
  EXPECT_EQ(empty.Depth(), 0u);
}

TEST(VirtualPoolTest, SingleServerSerializes) {
  VirtualLlmPool pool(1);
  EXPECT_DOUBLE_EQ(pool.ScheduleStream(0, 10), 10);
  EXPECT_DOUBLE_EQ(pool.ScheduleStream(0, 5), 15);  // waits for server
  EXPECT_DOUBLE_EQ(pool.ScheduleStream(100, 1), 101);
}

TEST(VirtualPoolTest, MultipleServersOverlap) {
  VirtualLlmPool pool(2);
  EXPECT_DOUBLE_EQ(pool.ScheduleStream(0, 10), 10);
  EXPECT_DOUBLE_EQ(pool.ScheduleStream(0, 10), 10);  // second server
  EXPECT_DOUBLE_EQ(pool.ScheduleStream(0, 10), 20);  // queues
  EXPECT_DOUBLE_EQ(pool.MaxBusyTime(), 20);
}

TEST(VirtualPoolTest, ZeroDurationIsFree) {
  VirtualLlmPool pool(1);
  EXPECT_DOUBLE_EQ(pool.ScheduleStream(5, 0), 5);
  EXPECT_DOUBLE_EQ(pool.MaxBusyTime(), 0);
}

TEST(VirtualPoolTest, ParallelStreamOverlapsPartitions) {
  VirtualLlmPool pool(4);
  // Four equal partitions on four servers finish together.
  EXPECT_DOUBLE_EQ(pool.ScheduleParallelStream(0, {10, 10, 10, 10}, 4), 10);
  EXPECT_DOUBLE_EQ(pool.TotalBusySeconds(), 40);
}

TEST(VirtualPoolTest, ParallelStreamDegeneratesToSequential) {
  // max_parallelism 1 must be byte-for-byte ScheduleStream of the sum.
  VirtualLlmPool a(4);
  VirtualLlmPool b(4);
  EXPECT_DOUBLE_EQ(a.ScheduleParallelStream(2, {3, 4, 5}, 1),
                   b.ScheduleStream(2, 12));
  // A single live partition also collapses to one stream.
  EXPECT_DOUBLE_EQ(a.ScheduleParallelStream(0, {0, 7, 0}, 4),
                   b.ScheduleStream(0, 7));
}

TEST(VirtualPoolTest, ParallelStreamRespectsLaneCap) {
  // Four 10s partitions but only 2 allowed in flight: two rounds.
  VirtualLlmPool pool(4);
  EXPECT_DOUBLE_EQ(pool.ScheduleParallelStream(0, {10, 10, 10, 10}, 2), 20);
}

TEST(VirtualPoolTest, ParallelStreamBoundByServers) {
  // Parallelism 4 on a 2-server pool: the servers are the bottleneck.
  VirtualLlmPool pool(2);
  EXPECT_DOUBLE_EQ(pool.ScheduleParallelStream(0, {10, 10, 10, 10}, 4), 20);
}

TEST(VirtualPoolTest, ParallelStreamEmptyIsFree) {
  VirtualLlmPool pool(2);
  EXPECT_DOUBLE_EQ(pool.ScheduleParallelStream(5, {}, 4), 5);
  EXPECT_DOUBLE_EQ(pool.ScheduleParallelStream(5, {0, 0}, 4), 5);
  EXPECT_DOUBLE_EQ(pool.TotalBusySeconds(), 0);
}

TEST(ScheduleDagTest, ParallelBeatsSequentialOnDiamond) {
  Dag dag = Diamond();
  std::vector<NodeCost> costs(4);
  costs[0].cpu_seconds = 1;
  costs[1].llm_seconds = 10;
  costs[2].llm_seconds = 10;
  costs[3].cpu_seconds = 1;
  auto par = ScheduleDag(dag, costs, 4, /*sequential=*/false);
  auto seq = ScheduleDag(dag, costs, 4, /*sequential=*/true);
  ASSERT_TRUE(par.ok());
  ASSERT_TRUE(seq.ok());
  // Parallel: the two 10s streams overlap on separate servers.
  EXPECT_NEAR(par->makespan, 12.0, 1e-9);
  EXPECT_NEAR(seq->makespan, 22.0, 1e-9);
}

TEST(ScheduleDagTest, ServerContentionSerializesStreams) {
  Dag dag;
  for (int i = 0; i < 3; ++i) dag.AddNode();  // three independent nodes
  std::vector<NodeCost> costs(3);
  for (auto& c : costs) c.llm_seconds = 10;
  auto one = ScheduleDag(dag, costs, 1, false);
  auto three = ScheduleDag(dag, costs, 3, false);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(three.ok());
  EXPECT_NEAR(one->makespan, 30.0, 1e-9);
  EXPECT_NEAR(three->makespan, 10.0, 1e-9);
}

TEST(ScheduleDagTest, MakespanAtLeastCriticalPath) {
  Dag dag = Diamond();
  std::vector<NodeCost> costs(4);
  for (auto& c : costs) c.llm_seconds = 3;
  auto result = ScheduleDag(dag, costs, 8, false);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->makespan, 9.0 - 1e-9);  // depth 3 × 3s
}

TEST(ScheduleDagTest, PartitionedNodeShortensSpanNotWork) {
  Dag dag;
  dag.AddNode();
  std::vector<NodeCost> costs(1);
  costs[0].llm_seconds = 40;

  auto whole = ScheduleDag(dag, costs, 4, false);
  ASSERT_TRUE(whole.ok());
  EXPECT_NEAR(whole->makespan, 40.0, 1e-9);

  costs[0].llm_partitions = {10, 10, 10, 10};
  costs[0].max_parallelism = 4;
  auto split = ScheduleDag(dag, costs, 4, false);
  ASSERT_TRUE(split.ok());
  EXPECT_NEAR(split->makespan, 10.0, 1e-9);
}

TEST(ScheduleDagTest, NonzeroBaseOnSharedPoolInterleavesQueries) {
  // Two queries share one 2-server pool (the UnifyService model); their
  // schedules interleave on the shared clock instead of resetting to 0.
  VirtualLlmPool pool(2);
  Dag dag;
  dag.AddNode();
  dag.AddNode();
  ASSERT_TRUE(dag.AddEdge(0, 1).ok());
  std::vector<NodeCost> costs(2);
  costs[0].llm_seconds = 10;
  costs[1].llm_seconds = 10;

  // Query A arrives at t=0: node 0 on server one [0,10], node 1 on
  // server two [10,20] (greedy earliest-free).
  auto a = ScheduleDag(dag, costs, &pool, /*sequential=*/false, /*base=*/0);
  ASSERT_TRUE(a.ok());
  EXPECT_NEAR(a->start[0], 0.0, 1e-9);
  EXPECT_NEAR(a->makespan, 20.0, 1e-9);

  // Query B arrives at t=5 but both servers are taken by A (free at 10
  // and 20): its first stream queues until 10 — absolute times on the
  // shared clock, with cross-query waiting, not a private 0-based pool.
  auto b = ScheduleDag(dag, costs, &pool, /*sequential=*/false, /*base=*/5);
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR(b->start[0], 5.0, 1e-9);   // ready (arrival), not dispatch
  EXPECT_NEAR(b->finish[0], 20.0, 1e-9);  // waited 5s for A's server
  EXPECT_NEAR(b->makespan, 30.0, 1e-9);

  // Query C arrives at t=0 on the now-loaded pool (servers free at 30
  // and 20): its 2s stream queues until 20.
  Dag one;
  one.AddNode();
  std::vector<NodeCost> c_costs(1);
  c_costs[0].llm_seconds = 2;
  auto c = ScheduleDag(one, c_costs, &pool, false, /*base=*/0);
  ASSERT_TRUE(c.ok());
  EXPECT_NEAR(c->makespan, 22.0, 1e-9);

  // A partitioned node arriving at t=20 still respects the shared load:
  // one server is busy until 30, so its two 4s morsels share the other
  // server back to back: [22,26] and [26,30].
  std::vector<NodeCost> p_costs(1);
  p_costs[0].llm_seconds = 8;
  p_costs[0].llm_partitions = {4, 4};
  p_costs[0].max_parallelism = 2;
  auto p = ScheduleDag(one, p_costs, &pool, false, /*base=*/20);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(p->makespan, 30.0, 1e-9);
}

TEST(ScheduleDagTest, SizeMismatchRejected) {
  Dag dag = Diamond();
  std::vector<NodeCost> costs(2);
  EXPECT_FALSE(ScheduleDag(dag, costs, 2, false).ok());
}

/// Property sweep over random layered DAGs: for any plan shape,
///   critical-path  <=  parallel makespan  <=  sequential makespan, and
///   parallel makespan >= total work / number of servers.
class ScheduleProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScheduleProperty, ParallelBoundsHold) {
  Rng rng(GetParam());
  const int n = 3 + static_cast<int>(rng.NextUint64(20));
  Dag dag;
  for (int i = 0; i < n; ++i) dag.AddNode();
  for (int v = 1; v < n; ++v) {
    int edges = static_cast<int>(rng.NextUint64(3));
    for (int e = 0; e < edges; ++e) {
      int u = static_cast<int>(rng.NextUint64(static_cast<uint64_t>(v)));
      ASSERT_TRUE(dag.AddEdge(u, v).ok());
    }
  }
  std::vector<NodeCost> costs(n);
  double total_llm = 0;
  for (auto& c : costs) {
    c.llm_seconds = rng.Uniform(0, 20);
    c.cpu_seconds = rng.Uniform(0, 0.5);
    total_llm += c.llm_seconds;
  }
  const int servers = 1 + static_cast<int>(rng.NextUint64(4));

  auto par = ScheduleDag(dag, costs, servers, /*sequential=*/false);
  auto seq = ScheduleDag(dag, costs, servers, /*sequential=*/true);
  ASSERT_TRUE(par.ok());
  ASSERT_TRUE(seq.ok());
  EXPECT_LE(par->makespan, seq->makespan + 1e-9);
  EXPECT_GE(par->makespan + 1e-9, total_llm / servers);

  // Critical path bound.
  auto order = dag.TopologicalOrder();
  ASSERT_TRUE(order.ok());
  std::vector<double> longest(n, 0);
  double critical = 0;
  for (int u : *order) {
    longest[u] += costs[u].llm_seconds + costs[u].cpu_seconds;
    critical = std::max(critical, longest[u]);
    for (int v : dag.children(u)) {
      longest[v] = std::max(longest[v], longest[u]);
    }
  }
  EXPECT_GE(par->makespan + 1e-9, critical);

  // Start/finish consistency: children never start before parents finish.
  for (int u = 0; u < n; ++u) {
    for (int v : dag.children(u)) {
      EXPECT_GE(par->start[v] + 1e-9, par->finish[u]);
    }
    EXPECT_GE(par->finish[u] + 1e-9, par->start[u]);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDags, ScheduleProperty,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace unify::exec
