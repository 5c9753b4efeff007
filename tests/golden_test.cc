// Golden outcomes: a reduced run over the four dataset profiles whose
// answers, virtual seconds, dollars, LLM calls per prompt type, hindsight
// impl audit counters and morsel counts are pinned in
// tests/golden/outcomes.txt. Any change to what a query computes or costs
// shows up as a differing line.
//
// The workload renders once with morsels run one after another, and its
// parallelism-4 half three more times on four worker threads. Every
// rendering must match the file, and every per-query counter must be
// bitwise equal across them: counters are virtual (calls, seconds,
// dollars), and each morsel records into a registry of its own that is
// merged in morsel order. The sports and wiki profiles also render at
// parallelism 1 under the other optimizer regimes (rule-based, ground-truth
// cardinalities, the dollar objective); those lines carry the regime's tag.
//
// A second case pins every view of an execution in
// tests/golden/views.txt: for the sports profile, each workload query's
// EXPLAIN ANALYZE, timeline and per-node rows; replanning queries' replan
// records and sentences, under the time and the dollar objective, and
// their flight-recorder events; and a plan that the Section V-D fallback
// answers.
//
// On a mismatch each case writes its rendering (golden_outcomes.actual.txt
// or golden_views.actual.txt) next to the test binary and names the first
// differing line. A change that moves these numbers on purpose copies
// that file over the golden one and says why in CHANGES.md.

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util.h"
#include "common/telemetry_names.h"
#include "core/runtime/plan_analysis.h"
#include "core/runtime/service.h"
#include "nlq/render.h"
#include "plan_util.h"

namespace unify::core {
namespace {

using testing::ChainedFilterQuery;
using testing::ZeroDenominatorPlan;

constexpr const char* kGoldenPath = UNIFY_GOLDEN_FILE;
constexpr const char* kActualPath = UNIFY_GOLDEN_ACTUAL;
constexpr const char* kViewsPath = UNIFY_GOLDEN_VIEWS_FILE;
constexpr const char* kViewsActualPath = UNIFY_GOLDEN_VIEWS_ACTUAL;

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// An optimizer regime the workload renders under; the default one has
/// no tag.
struct Regime {
  std::string tag;
  PhysicalMode mode = PhysicalMode::kFull;
  OptimizeObjective objective = OptimizeObjective::kTime;
};

/// One line per query: where it stopped, what it answered, what it cost,
/// which LLM calls it made, how the hindsight audit judged its impls, and
/// how each plan node split into morsels.
std::string RenderOutcome(const std::string& dataset, int parallelism,
                          const std::string& regime, size_t index,
                          const QueryResult& r) {
  std::ostringstream line;
  line << dataset << " p" << parallelism;
  if (!regime.empty()) line << " " << regime;
  line << " q" << index << " phase=" << QueryPhaseName(r.phase)
       << " answer=" << r.answer.ToString()
       << " plan_s=" << Num(r.plan_seconds)
       << " exec_s=" << Num(r.exec_seconds)
       << " pred_s=" << Num(r.predicted_exec_seconds)
       << " exec_usd=" << Num(r.exec_dollars);
  const std::string prefixes[] = {
      std::string(telemetry::kMetricLlmCalls) + ".",
      std::string(telemetry::kMetricImplChoiceOptimal),
      std::string(telemetry::kMetricImplChoiceSuboptimal),
      std::string(telemetry::kMetricImplChosen) + "."};
  for (const auto& [name, value] : r.metrics.counters) {
    for (const std::string& prefix : prefixes) {
      if (name.compare(0, prefix.size(), prefix) == 0) {
        line << " " << name << "=" << Num(value);
        break;
      }
    }
  }
  line << " nodes=";
  for (size_t i = 0; i < r.plan_analysis.size(); ++i) {
    const PlanNodeAnalysis& node = r.plan_analysis[i];
    if (i > 0) line << ",";
    line << node.impl << ":" << node.est_partitions << "/" << node.partitions;
  }
  return line.str();
}

/// The golden workload rendered at `threads` morsel workers: one line
/// per query, and each query's parallelism and counters in line order.
struct Rendering {
  std::string text;
  std::vector<int> parallelism;
  std::vector<MetricMap<double>> counters;
};

/// Renders the workload of `ds` on a fresh system under one regime.
void RenderWorkload(const bench::BenchDataset& ds, int threads,
                    int parallelism, const Regime& regime, Rendering& out) {
  UnifyOptions options;
  options.exec.threads = threads;
  UnifySystem system(ds.corpus.get(), ds.llm.get(), options);
  const Status setup = system.Setup();
  if (!setup.ok()) {
    out.text += ds.name + " setup failed: " + setup.ToString() + "\n";
    return;
  }
  for (size_t i = 0; i < ds.workload.size(); ++i) {
    QueryRequest request;
    request.text = ds.workload[i].text;
    request.overrides.max_intra_op_parallelism = parallelism;
    request.overrides.physical_mode = regime.mode;
    request.overrides.objective = regime.objective;
    const QueryResult r = system.Answer(request);
    out.text += RenderOutcome(ds.name, parallelism, regime.tag, i, r) + "\n";
    out.parallelism.push_back(parallelism);
    out.counters.push_back(r.metrics.counters);
  }
}

/// The regimes bench_physical_opt and bench_cost_objective run besides
/// the default one.
const Regime kOtherRegimes[] = {
    {"rule", PhysicalMode::kRule, OptimizeObjective::kTime},
    {"gtcards", PhysicalMode::kGroundTruthCards, OptimizeObjective::kTime},
    {"dollars", PhysicalMode::kFull, OptimizeObjective::kDollars},
};

/// Every profile at each of `parallelisms` under the default regime; with
/// `other_regimes`, the sports and wiki profiles at parallelism 1 under
/// each of kOtherRegimes too.
Rendering RenderAll(int threads, const std::vector<int>& parallelisms,
                    bool other_regimes) {
  bench::BenchScale scale;
  scale.per_template = 1;
  scale.max_docs = 300;
  Rendering out;
  for (const corpus::DatasetProfile& profile : corpus::AllProfiles()) {
    bench::BenchDataset ds = bench::MakeDataset(profile, scale);
    for (int parallelism : parallelisms) {
      RenderWorkload(ds, threads, parallelism, Regime{}, out);
    }
    if (!other_regimes || (ds.name != "sports" && ds.name != "wiki")) {
      continue;
    }
    for (const Regime& regime : kOtherRegimes) {
      RenderWorkload(ds, threads, /*parallelism=*/1, regime, out);
    }
  }
  return out;
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string GoldenFile(const char* path = kGoldenPath) {
  std::ifstream in(path);
  std::stringstream golden;
  golden << in.rdbuf();
  return golden.str();
}

/// The lines of `text` rendered at `parallelism`.
std::string LinesAt(const std::string& text, int parallelism) {
  const std::string tag = " p" + std::to_string(parallelism) + " ";
  std::string out;
  for (const std::string& line : Lines(text)) {
    const size_t space = line.find(' ');
    if (space != std::string::npos &&
        line.compare(space, tag.size(), tag) == 0) {
      out += line + "\n";
    }
  }
  return out;
}

/// Adds a failure naming the first line where `actual` differs from the
/// golden lines `want`; returns whether they are equal.
bool ExpectSameLines(const std::string& want, const std::string& actual,
                     const char* golden_path = kGoldenPath) {
  if (actual == want) return true;
  const std::vector<std::string> want_lines = Lines(want);
  const std::vector<std::string> got = Lines(actual);
  size_t first = 0;
  while (first < want_lines.size() && first < got.size() &&
         want_lines[first] == got[first]) {
    ++first;
  }
  ADD_FAILURE() << "rendering differs from " << golden_path
                << " at compared line " << first + 1 << "\n  golden: "
                << (first < want_lines.size() ? want_lines[first]
                                              : "<end of file>")
                << "\n  actual: "
                << (first < got.size() ? got[first] : "<end of file>");
  return false;
}

/// One EXPLAIN ANALYZE row with every field at full precision.
std::string RenderRow(const PlanNodeAnalysis& a) {
  std::ostringstream line;
  line << "row " << a.op_name << " <" << a.impl << "> " << a.output_var
       << " depth=" << a.depth << " executed=" << a.executed
       << " card=" << Num(a.est_in_card) << "->" << Num(a.est_out_card)
       << "/" << Num(a.actual_in_card) << "->" << Num(a.actual_out_card)
       << " qerr=" << Num(a.card_qerror) << " s=" << Num(a.est_seconds)
       << "/" << Num(a.actual_seconds) << " virt=" << Num(a.virt_start)
       << ".." << Num(a.virt_finish)
       << " wait=" << Num(a.queue_wait_seconds)
       << " usd=" << Num(a.est_dollars) << "/" << Num(a.actual_dollars)
       << " calls=" << a.llm_calls << " morsels=" << a.est_partitions << "/"
       << a.partitions << " adjusted=" << a.adjusted
       << " retries=" << a.retries << " replanned_by=" << a.replanned_by
       << " fallback=" << a.synthetic_fallback;
  return line.str();
}

/// Every view of one execution: its totals, EXPLAIN ANALYZE, timeline,
/// per-node rows, and each replan's record and sentence.
std::string RenderViews(const std::string& title, const QueryResult& r) {
  std::ostringstream out;
  out << "== " << title << " phase=" << QueryPhaseName(r.phase)
      << " status=" << r.status.ToString()
      << " answer=" << r.answer.ToString()
      << " exec_s=" << Num(r.exec_seconds)
      << " exec_usd=" << Num(r.exec_dollars) << " adjusted=" << r.adjusted
      << "\n";
  out << r.explain_analyze();
  out << r.timeline;
  for (const PlanNodeAnalysis& a : r.plan_analysis) {
    out << RenderRow(a) << "\n";
  }
  for (const ReplanRecord& rec : r.replans) {
    out << "replan node=" << rec.trigger_node << " var=" << rec.trigger_var
        << " card=" << Num(rec.observed_card) << "/"
        << Num(rec.estimated_card) << " qerr=" << Num(rec.qerror)
        << " at=" << Num(rec.elapsed_seconds)
        << " decision=" << Num(rec.decision_seconds) << "s/"
        << Num(rec.decision_dollars) << " adopted=" << rec.adopted
        << " rechosen=" << rec.nodes_rechosen
        << " bias=" << Num(rec.est_bias)
        << " suffix_cost=" << Num(rec.old_suffix_cost) << "->"
        << Num(rec.new_suffix_cost) << " relowered=";
    for (int u : rec.relowered_nodes) out << u << ",";
    out << " suffix=";
    for (int u : rec.suffix_nodes) out << u << ",";
    out << "\n";
    out << "sentence: " << rec.Sentence() << "\n";
  }
  return out.str();
}

/// bench_reoptimize's diamond: the count of documents matching both of
/// two semantic filters, run as an intersection.
std::string IntersectionQuery(const char* a, const char* b) {
  nlq::QueryAst ast;
  ast.task = nlq::TaskKind::kSetCount;
  ast.set_op = nlq::SetOpKind::kIntersect;
  ast.entity = "questions";
  ast.docset.conditions = {nlq::Condition::Semantic(a)};
  ast.docset_b.conditions = {nlq::Condition::Semantic(b)};
  return nlq::Render(ast);
}

/// Runs `plan` on the executor alone and assembles the QueryResult views
/// the pipeline would.
QueryResult ExecuteAlone(const PhysicalPlan& plan, const ExecContext& ctx) {
  ExecutionResult exec = PlanExecutor(ctx, {}).Execute(plan);
  QueryResult r;
  r.status = exec.status;
  r.answer = exec.answer;
  r.exec_seconds = exec.virtual_seconds;
  r.exec_dollars = exec.llm_dollars_total;
  r.timeline = exec.timeline;
  r.adjusted = exec.adjusted;
  const CostModel cost_model;
  r.plan_analysis = BuildPlanAnalysis(plan, std::move(exec.nodes), cost_model,
                                      OptimizeObjective::kTime, {});
  return r;
}

/// The views workload: the sports profile at 300 documents.
std::string RenderAllViews() {
  bench::BenchScale scale;
  scale.per_template = 1;
  scale.max_docs = 300;
  bench::BenchDataset ds = bench::MakeDataset(corpus::SportsProfile(), scale);
  std::string out;
  {
    UnifySystem system(ds.corpus.get(), ds.llm.get(), UnifyOptions{});
    EXPECT_TRUE(system.Setup().ok());
    for (size_t i = 0; i < ds.workload.size(); ++i) {
      QueryRequest request;
      request.text = ds.workload[i].text;
      request.overrides.max_intra_op_parallelism = 1;
      out += RenderViews(ds.name + " q" + std::to_string(i),
                         system.Answer(request));
    }
  }
  UnifyOptions replanning;
  replanning.card_est_scale = 12;
  replanning.exec.max_reoptimizations = 2;
  {
    UnifySystem system(ds.corpus.get(), ds.llm.get(), replanning);
    EXPECT_TRUE(system.Setup().ok());
    out += RenderViews("chained filters, replanning",
                       system.Answer(ChainedFilterQuery()));
    // The first adopts its replan; the second keeps the plan twice.
    out += RenderViews("nutrition and hockey, replanning",
                       system.Answer(IntersectionQuery("nutrition", "hockey")));
    out += RenderViews(
        "nutrition and badminton, replanning",
        system.Answer(IntersectionQuery("nutrition", "badminton")));
  }
  {
    // Under the dollar objective the replan costs its suffix in dollars.
    UnifySystem system(ds.corpus.get(), ds.llm.get(), replanning);
    EXPECT_TRUE(system.Setup().ok());
    QueryRequest request;
    request.text = IntersectionQuery("nutrition", "hockey");
    request.overrides.objective = OptimizeObjective::kDollars;
    out += RenderViews("nutrition and hockey, replanning, dollars",
                       system.Answer(request));
  }
  {
    UnifySystem system(ds.corpus.get(), ds.llm.get(), replanning);
    EXPECT_TRUE(system.Setup().ok());
    UnifyService::Options sopts;
    sopts.num_workers = 1;
    UnifyService service(&system, sopts);
    QueryRequest request;
    request.text = ChainedFilterQuery();
    out += RenderViews("chained filters, served",
                       service.Submit(std::move(request)).get());
    for (const ServeEvent& event : service.flight_recorder().events()) {
      out += std::string("event ") + ServeEventKindName(event.kind) + " " +
             event.detail + "\n";
    }
  }
  ExecContext ctx;
  ctx.corpus = ds.corpus.get();
  ctx.llm = ds.llm.get();
  out += RenderViews("zero denominator, V-D fallback",
                     ExecuteAlone(ZeroDenominatorPlan(), ctx));
  return out;
}

class GoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    serial_ = new Rendering(
        RenderAll(/*threads=*/1, {1, 4}, /*other_regimes=*/true));
  }
  static void TearDownTestSuite() { delete serial_; }
  static Rendering* serial_;
};
Rendering* GoldenTest::serial_ = nullptr;

TEST_F(GoldenTest, OutcomesMatchTheCommittedFile) {
  if (ExpectSameLines(GoldenFile(), serial_->text)) return;
  std::ofstream(kActualPath) << serial_->text;
  ADD_FAILURE() << "full rendering written to " << kActualPath;
}

// Worker threads matter only where a node splits into morsels, so the
// threaded passes render parallelism 4 alone.
TEST_F(GoldenTest, MorselWorkerThreadsChangeNoOutcomeOrCounter) {
  const std::string want = LinesAt(GoldenFile(), 4);
  std::vector<const MetricMap<double>*> want_counters;
  for (size_t q = 0; q < serial_->counters.size(); ++q) {
    if (serial_->parallelism[q] == 4) {
      want_counters.push_back(&serial_->counters[q]);
    }
  }
  for (int pass = 0; pass < 3; ++pass) {
    SCOPED_TRACE("pass " + std::to_string(pass));
    const Rendering threaded =
        RenderAll(/*threads=*/4, {4}, /*other_regimes=*/false);
    ExpectSameLines(want, threaded.text);
    ASSERT_EQ(threaded.counters.size(), want_counters.size());
    for (size_t q = 0; q < threaded.counters.size(); ++q) {
      const MetricMap<double>& got = threaded.counters[q];
      EXPECT_EQ(got.size(), want_counters[q]->size()) << "query " << q;
      for (const auto& [name, value] : *want_counters[q]) {
        auto it = got.find(name);
        const std::string seen = it == got.end() ? "absent" : Num(it->second);
        EXPECT_EQ(seen, Num(value)) << "query " << q << " counter " << name;
      }
    }
  }
}

// EXPLAIN ANALYZE, the timeline, the per-node rows, the replan sentences
// and the flight recorder's events of a fixed set of executions.
TEST_F(GoldenTest, ExecutionViewsMatchTheCommittedFile) {
  const std::string views = RenderAllViews();
  if (ExpectSameLines(GoldenFile(kViewsPath), views, kViewsPath)) return;
  std::ofstream(kViewsActualPath) << views;
  ADD_FAILURE() << "full rendering written to " << kViewsActualPath;
}

}  // namespace
}  // namespace unify::core
