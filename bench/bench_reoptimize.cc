// Mid-query re-optimization benchmark (docs/replanning.md): the same
// calibrated workload runs twice over one sports corpus — "static" with
// `exec.max_reoptimizations = 0` (the trigger disarmed) and "adaptive"
// with a budget of 2 — under a seeded 12x cardinality over-estimator
// (`card_est_scale`), the misestimation regime adaptive replanning exists
// for.
//
// The workload is two-sided set-count queries (|A ∩ B|) plus chained
// two-filter counts. The set-count shape is where adoption pays off:
// side A's materialization barrier fires the q-error trigger while side
// B's head-of-docs filter is still un-executed, so Reoptimize can re-lower
// it from LlmFilter (one call per document) to IndexScanFilter sized by
// the bias-corrected cardinality. The chained-count queries trigger the
// same decision but have no index-eligible suffix, so they measure the
// honest cost of *considering* a replan that is then kept.
//
// The headline metric is total execution dollars (the per-document LLM
// calls the re-lowered plans avoid, minus the replan-decision calls the
// adaptive run pays). Virtual makespan is reported but not gated: a
// replan barrier drains in-flight work, which serializes the two sides
// of a set-count plan — adaptive trades schedule overlap for fewer
// calls. Acceptance (docs/replanning.md):
//   1. every query completes in both configurations;
//   2. adaptive answers are byte-identical to static (zero regressions);
//   3. the adaptive run adopts at least one replan;
//   4. adaptive total execution dollars are strictly below static.
//
// Writes BENCH_reoptimize.json. `--smoke` shrinks the corpus so the
// binary doubles as a ctest smoke test (bench_reoptimize_smoke). Scale
// knobs: bench_util.h.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "nlq/render.h"

namespace unify::bench {
namespace {

/// The seeded misestimation: every planner cardinality estimate is
/// multiplied by this before lowering, so plans are sized for documents
/// that never arrive.
constexpr double kCardEstScale = 12.0;

/// One workload query: either |A ∩ B| (set count, two branches over the
/// corpus) or a chained two-filter count (one branch, no index-eligible
/// suffix once the first filter has run).
struct WorkloadQuery {
  const char* a;
  const char* b;
  bool chained;
};

/// Calibrated against the sports corpus (seed 2024): side A moderately
/// selective (~0.12-0.22 so the clamped estimate still misses by >= the
/// default q-error threshold 3), side B rare (~0.04) with clean embedding
/// separation so the re-lowered index scan loses no true matches.
constexpr WorkloadQuery kQueries[] = {
    {"nutrition", "badminton", false},
    {"nutrition", "hockey", false},
    {"nutrition", "swimming", false},
    {"nutrition", "rugby", false},
    {"nutrition", "baseball", false},
    {"rules", "badminton", false},
    {"nutrition", "badminton", true},
    {"rules", "hockey", true},
};

std::string RenderQuery(const WorkloadQuery& q) {
  nlq::QueryAst ast;
  ast.entity = "questions";
  if (q.chained) {
    ast.task = nlq::TaskKind::kCount;
    ast.docset.conditions = {nlq::Condition::Semantic(q.a),
                             nlq::Condition::Semantic(q.b)};
  } else {
    ast.task = nlq::TaskKind::kSetCount;
    ast.set_op = nlq::SetOpKind::kIntersect;
    ast.docset.conditions = {nlq::Condition::Semantic(q.a)};
    ast.docset_b.conditions = {nlq::Condition::Semantic(q.b)};
  }
  return nlq::Render(ast);
}

struct ConfigResult {
  std::string name;
  int requests = 0;
  int ok = 0;
  double exec_dollars = 0;   ///< sum of QueryResult::exec_dollars
  double exec_seconds = 0;   ///< sum of per-query virtual makespans
  int replans_considered = 0;
  int replans_adopted = 0;
  std::vector<std::string> answers;
};

/// One pass over the workload on a fresh system. Both configurations see
/// the same corpus, the same seeded over-estimator, and cost_feedback
/// off, so the only difference is whether the executor may pause and
/// re-lower at materialization barriers.
ConfigResult RunConfig(BenchDataset& ds, const std::string& name,
                       int max_reoptimizations) {
  core::UnifyOptions opts;
  opts.exec.threads = 4;
  opts.card_est_scale = kCardEstScale;
  // Plan choice must not depend on earlier queries' measured costs, or
  // the second configuration would inherit calibration the first earned.
  opts.cost_feedback = false;
  opts.exec.max_reoptimizations = max_reoptimizations;
  core::UnifySystem system(ds.corpus.get(), ds.llm.get(), opts);
  if (auto st = system.Setup(); !st.ok()) {
    std::printf("setup failed: %s\n", st.ToString().c_str());
    return ConfigResult{};
  }

  ConfigResult r;
  r.name = name;
  for (const WorkloadQuery& q : kQueries) {
    core::QueryResult qr = system.Answer(RenderQuery(q));
    r.requests += 1;
    if (qr.status.ok()) r.ok += 1;
    r.exec_dollars += qr.exec_dollars;
    r.exec_seconds += qr.exec_seconds;
    r.answers.push_back(qr.answer.ToString());
    for (const core::ReplanRecord& rec : qr.replans) {
      r.replans_considered += 1;
      if (rec.adopted) r.replans_adopted += 1;
    }
  }
  return r;
}

void AppendConfigJson(std::ofstream& out, const ConfigResult& r) {
  out << "{\"config\": \"" << r.name << "\", \"requests\": " << r.requests
      << ", \"ok\": " << r.ok << ", \"exec_dollars\": " << r.exec_dollars
      << ", \"exec_seconds\": " << r.exec_seconds
      << ", \"replans_considered\": " << r.replans_considered
      << ", \"replans_adopted\": " << r.replans_adopted << "}";
}

int Run(bool smoke) {
  BenchScale scale = BenchScale::FromEnv();
  if (smoke) {
    scale.max_docs = 1200;
  } else if (scale.max_docs == 0) {
    scale.max_docs = 3000;
  }
  BenchDataset ds = MakeDataset(corpus::SportsProfile(), scale);
  std::printf("dataset %s: %zu docs, %zu queries, card_est_scale %.0fx\n",
              ds.name.c_str(), ds.corpus->size(), std::size(kQueries),
              kCardEstScale);

  ConfigResult stat = RunConfig(ds, "static", /*max_reoptimizations=*/0);
  ConfigResult adpt = RunConfig(ds, "adaptive", /*max_reoptimizations=*/2);

  std::printf("%-10s %5s %4s %10s %12s %11s %9s\n", "config", "req", "ok",
              "exec_$", "exec_sec", "considered", "adopted");
  for (const ConfigResult* r : {&stat, &adpt}) {
    std::printf("%-10s %5d %4d %10.4f %12.1f %11d %9d\n", r->name.c_str(),
                r->requests, r->ok, r->exec_dollars, r->exec_seconds,
                r->replans_considered, r->replans_adopted);
  }
  int mismatches = 0;
  for (size_t i = 0; i < stat.answers.size() && i < adpt.answers.size();
       ++i) {
    if (stat.answers[i] != adpt.answers[i]) {
      mismatches += 1;
      std::printf("answer regression on query %zu: static=%s adaptive=%s\n",
                  i, stat.answers[i].c_str(), adpt.answers[i].c_str());
    }
  }
  const double reduction =
      stat.exec_dollars > 0
          ? 100.0 * (1.0 - adpt.exec_dollars / stat.exec_dollars)
          : 0.0;
  std::printf("adaptive re-optimization cut execution dollars by %.1f%% "
              "(%d/%d replans adopted, %d answer regressions)\n",
              reduction, adpt.replans_adopted, adpt.replans_considered,
              mismatches);

  std::ofstream out("BENCH_reoptimize.json");
  out << "{\n  \"benchmark\": \"reoptimize\",\n";
  out << "  \"dataset\": \"" << ds.name << "\",\n";
  out << "  \"docs\": " << ds.corpus->size() << ",\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  out << "  \"queries\": " << std::size(kQueries) << ",\n";
  out << "  \"card_est_scale\": " << kCardEstScale << ",\n";
  out << "  \"exec_dollar_reduction_pct\": " << reduction << ",\n";
  out << "  \"answer_mismatches\": " << mismatches << ",\n";
  out << "  \"configs\": [\n    ";
  AppendConfigJson(out, stat);
  out << ",\n    ";
  AppendConfigJson(out, adpt);
  out << "\n  ]\n}\n";
  std::printf("wrote BENCH_reoptimize.json\n");

  // Acceptance checks (also the ctest smoke assertions).
  for (const ConfigResult* r : {&stat, &adpt}) {
    if (r->requests != static_cast<int>(std::size(kQueries)) ||
        r->ok != r->requests) {
      std::printf("check failed: %s completed %d/%zu queries ok\n",
                  r->name.c_str(), r->ok, std::size(kQueries));
      return 1;
    }
  }
  if (mismatches != 0) {
    std::printf("check failed: %d answer regressions\n", mismatches);
    return 1;
  }
  if (adpt.replans_adopted < 1) {
    std::printf("check failed: adaptive adopted no replans\n");
    return 1;
  }
  if (adpt.exec_dollars >= stat.exec_dollars) {
    std::printf("check failed: adaptive dollars %.4f >= static %.4f\n",
                adpt.exec_dollars, stat.exec_dollars);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace unify::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  unify::bench::PrintHeaderLine(
      "reoptimize: cardinality-driven mid-query re-optimization vs the "
      "static pipeline under a seeded 12x over-estimator");
  return unify::bench::Run(smoke);
}
