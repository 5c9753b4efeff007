// Unit tests of the benchmark's own helpers: the percentile tail rule,
// self time over overlapping / nested / cross-thread children, the
// per-request layer analysis, and determinism of the seeded draws.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "bench_lib.h"
#include "layers.h"

namespace unify::perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(PercentileTest, NearestRank) {
  EXPECT_EQ(Percentile(OneTo(100), 0.5, 0), 50);
  EXPECT_EQ(Percentile(OneTo(100), 0.9, 0), 90);
  EXPECT_EQ(Percentile(OneTo(1), 0.5, 0), 1);
  EXPECT_EQ(Percentile(OneTo(3), 0.0, 0), 1);
  EXPECT_EQ(Percentile(OneTo(3), 1.0, 0), 3);
  EXPECT_FALSE(Percentile({}, 0.5, 0).has_value());
}

TEST(PercentileTest, NeedsTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_EQ(Percentile(OneTo(1000), 0.99), 990);
  EXPECT_FALSE(Percentile(OneTo(999), 0.99).has_value());
  EXPECT_EQ(Percentile(OneTo(100), 0.9), 90);
  EXPECT_FALSE(Percentile(OneTo(100), 0.95).has_value());
  EXPECT_EQ(Percentile(OneTo(20), 0.5), 10);
  EXPECT_FALSE(Percentile(OneTo(19), 0.5).has_value());
}

TEST(SelfTimeTest, NoChildren) {
  EXPECT_EQ(SelfTime({100, 200}, {}), 100);
}

TEST(SelfTimeTest, OverlappingChildrenCountOnce) {
  // [110,150) and [140,170) overlap: union is [110,170) = 60.
  EXPECT_EQ(SelfTime({100, 200}, {{110, 150}, {140, 170}}), 40);
  // Identical children.
  EXPECT_EQ(SelfTime({0, 100}, {{10, 20}, {10, 20}, {10, 20}}), 90);
}

TEST(SelfTimeTest, NestedChildrenCountOnce) {
  EXPECT_EQ(SelfTime({0, 100}, {{10, 90}, {20, 30}, {40, 50}}), 20);
}

TEST(SelfTimeTest, CrossThreadChildrenClipToTheSpan) {
  // Children that ran on other threads may start before the span or end
  // after it; only the covered part of the span is subtracted.
  EXPECT_EQ(SelfTime({100, 200}, {{50, 120}, {180, 260}}), 60);
  // Parallel children covering the span completely leave no self time,
  // even though their summed length exceeds the span.
  EXPECT_EQ(SelfTime({0, 100}, {{0, 100}, {0, 100}, {50, 100}}), 0);
  // Disjoint children outside the span do not count.
  EXPECT_EQ(SelfTime({100, 200}, {{0, 50}, {250, 300}}), 100);
  // Touching children merge without double counting.
  EXPECT_EQ(SelfTime({0, 100}, {{10, 20}, {20, 30}}), 80);
}

TEST(LayersTest, SimulatorSpansAreChildrenOfTheInnermostSpan) {
  // query [0,1000us) > plan.logical [100,400us) > plan.reduce [200,300us);
  // query > execute [500,900us) > exec.node(LlmFilter) [600,800us).
  std::vector<TraceSpan> spans(5);
  spans[0] = {0, kNoSpan, "query", 0, 1000, -1, -1, {}, 0};
  spans[1] = {1, 0, "plan.logical", 100, 400, -1, -1, {}, 0};
  spans[2] = {2, 1, "plan.reduce", 200, 300, -1, -1, {}, 0};
  spans[3] = {3, 0, "execute", 500, 900, -1, -1, {}, 0};
  spans[4] = {4, 3, "exec.node", 600, 800, -1, -1, {{"impl", "LlmFilter"}}, 0};
  const int64_t epoch = 1'000'000;
  auto us = [&](double t) { return epoch + static_cast<int64_t>(t * 1e3); };
  std::vector<TimedLlm::SimSpan> sims(2);
  sims[0].start_ns = us(120);  // inside plan.logical only
  sims[0].end_ns = us(170);
  sims[1].start_ns = us(650);  // inside the filter node
  sims[1].end_ns = us(750);
  const RequestLayers layers = AnalyzeRequest(spans, epoch, sims);
  EXPECT_EQ(layers.program_spans, 5u);
  EXPECT_EQ(layers.root_ns, 1'000'000);
  EXPECT_EQ(layers.sim_ns, 150'000);
  // plan.logical: 300 - reduce 100 - sim 50 = 150; reduce itself: 100.
  EXPECT_EQ(layers.self_ns.at(kLayerLogical), 250'000);
  EXPECT_EQ(layers.self_ns.at("exec.node.filter"), 100'000);
  // query: 1000 - 300 - 400 = 300; execute: 400 - 200 = 200.
  EXPECT_EQ(layers.self_ns.at(kLayerOther), 500'000);
  int64_t sum = layers.sim_ns;
  for (const auto& [layer, ns] : layers.self_ns) sum += ns;
  EXPECT_EQ(sum, layers.root_ns);  // every nanosecond is accounted for
}

TEST(LayersTest, FamilyOfImpl) {
  EXPECT_EQ(FamilyOfImpl("LinearScan"), "scan");
  EXPECT_EQ(FamilyOfImpl("IndexScanFilter"), "filter");
  EXPECT_EQ(FamilyOfImpl("LlmClassify"), "group");
  EXPECT_EQ(FamilyOfImpl("RegexExtract"), "aggregate");
  EXPECT_EQ(FamilyOfImpl("LlmTopK"), "order");
  EXPECT_EQ(FamilyOfImpl("PreSetOp"), "join");
  EXPECT_EQ(FamilyOfImpl("LlmGenerate"), "scalar");
  EXPECT_EQ(FamilyOfImpl("NoSuchImpl"), "other");
}

TEST(DrawsTest, ZipfDrawsAreAFunctionOfTheSeed) {
  Rng a(7), b(7), c(8);
  std::vector<int> counts(40, 0);
  bool differs = false;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t r = a.Zipf(40, 1.1);
    ASSERT_LT(r, 40u);
    EXPECT_EQ(r, b.Zipf(40, 1.1));
    differs |= r != c.Zipf(40, 1.1);
    counts[r] += 1;
  }
  EXPECT_TRUE(differs);
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[10]);
  EXPECT_GT(counts[10], 0);
}

TEST(DrawsTest, TenantDrawsAreDeterministicAndSkewed) {
  // 10 templates x 4 instances, 5 tenants.
  const TenantMix mix(10, 4, 5, 1.1);
  Rng a(99), b(99), c(100);
  std::map<int, int> tenants;
  std::map<int, std::map<size_t, int>> templates;
  std::map<size_t, int> instances;
  std::map<int, int> classes;
  bool differs = false;
  for (int i = 0; i < 20000; ++i) {
    const TenantDraw x = mix.Draw(a);
    const TenantDraw y = mix.Draw(b);
    const TenantDraw z = mix.Draw(c);
    EXPECT_EQ(x.query, y.query);
    EXPECT_EQ(x.tenant, y.tenant);
    EXPECT_EQ(x.priority, y.priority);
    differs |= x.query != z.query || x.tenant != z.tenant;
    ASSERT_GE(x.tenant, 0);
    ASSERT_LT(x.tenant, 5);
    ASSERT_LT(x.query, 40u);
    ASSERT_GE(x.priority, 0);
    ASSERT_LT(x.priority, 3);
    tenants[x.tenant] += 1;
    templates[x.tenant][x.query % 10] += 1;
    instances[x.query / 10] += 1;
    classes[x.priority] += 1;
  }
  EXPECT_TRUE(differs);
  EXPECT_GT(tenants[0], tenants[1]);
  EXPECT_GT(tenants[1], tenants[4]);
  // Each tenant's hottest template is its own offset, 2 templates apart.
  for (int t = 0; t < 5; ++t) {
    const auto& counts = templates[t];
    const auto hottest = std::max_element(
        counts.begin(), counts.end(),
        [](const auto& l, const auto& r) { return l.second < r.second; });
    EXPECT_EQ(hottest->first, static_cast<size_t>(t) * 2) << "tenant " << t;
  }
  // Instances and classes are uniform: each within 5% of its share.
  for (size_t k = 0; k < 4; ++k) {
    EXPECT_NEAR(instances[k] / 20000.0, 1.0 / 4, 0.05) << "instance " << k;
  }
  for (int p = 0; p < 3; ++p) {
    EXPECT_NEAR(classes[p] / 20000.0, 1.0 / 3, 0.05) << "class " << p;
  }
}

TEST(ChromeJsonTest, EscapesAndOffsets) {
  std::vector<ChromeEvent> events(1);
  events[0].name = "a\"b";
  events[0].cat = "c";
  events[0].start_ns = 3000;
  events[0].dur_ns = 1500;
  events[0].args.emplace_back("k", "v\n");
  const std::string json = ToChromeTraceJson(events, 1000);
  EXPECT_NE(json.find("\"name\":\"a\\\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":2.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"k\":\"v\\n\""), std::string::npos);
}

}  // namespace
}  // namespace unify::perfbench
