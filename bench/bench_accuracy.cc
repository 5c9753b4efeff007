// Prediction-accuracy benchmark: how well Unify's estimators predict
// what actually happens. Two sweeps on the Sports dataset:
//
//   1. Semantic cardinality estimation — per-method (uniform, stratified,
//      AIS, importance) Q-error distribution over the workload's semantic
//      predicates, against the simulated corpus's latent ground truth.
//   2. End-to-end plan predictions — run the workload through
//      UnifySystem::Answer and compare the optimizer's predicted makespan
//      and dollars against the measured execution, plus per-node
//      cardinality Q-errors from QueryResult::plan_analysis.
//
// Writes BENCH_accuracy.json. `--smoke` shrinks the corpus and workload
// so the binary doubles as a ctest smoke test. Scale knobs: bench_util.h.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/stats.h"
#include "core/physical/sce.h"
#include "corpus/workload.h"

namespace unify::bench {
namespace {

using core::CardinalityEstimator;
using core::OpArgs;
using core::SceMethod;

/// All distinct semantic filter conditions appearing in the workload.
std::vector<OpArgs> WorkloadConditions(
    const std::vector<corpus::QueryCase>& workload) {
  std::set<std::string> seen;
  std::vector<OpArgs> out;
  auto add = [&](const nlq::Condition& c) {
    if (c.kind != nlq::Condition::Kind::kSemantic) return;
    if (!seen.insert(c.text).second) return;
    out.push_back({{"kind", "semantic"}, {"phrase", c.text}});
  };
  for (const auto& qc : workload) {
    for (const auto& c : qc.ast.docset.conditions) add(c);
    for (const auto& c : qc.ast.docset_b.conditions) add(c);
    if (qc.ast.metric.num.cond) add(*qc.ast.metric.num.cond);
    if (qc.ast.metric.den.cond) add(*qc.ast.metric.den.cond);
  }
  return out;
}

void AppendHistogramJson(std::ofstream& out, const SampleStats& h) {
  out << "{\"count\": " << h.count();
  if (h.count() > 0) {
    out << ", \"p50\": " << h.Quantile(0.5)
        << ", \"p90\": " << h.Quantile(0.9)
        << ", \"p99\": " << h.Quantile(0.99) << ", \"max\": " << h.Max()
        << ", \"mean\": " << h.Mean();
  }
  out << "}";
}

int Run(bool smoke) {
  BenchScale scale = BenchScale::FromEnv();
  if (smoke) {
    scale.per_template = 1;
    scale.max_docs = 200;
  } else if (scale.max_docs == 0) {
    scale.max_docs = 800;
  }
  corpus::DatasetProfile profile;
  for (const auto& p : corpus::AllProfiles()) {
    if (p.name == "sports") profile = p;
  }
  BenchDataset ds = MakeDataset(profile, scale);

  core::UnifySystem system(ds.corpus.get(), ds.llm.get(),
                           core::UnifyOptions{});
  if (auto st = system.Setup(); !st.ok()) {
    std::printf("setup failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const CardinalityEstimator& estimator = system.estimator();

  // --- sweep 1: per-method SCE Q-error -------------------------------
  auto conditions = WorkloadConditions(ds.workload);
  PrintHeaderLine("SCE accuracy (" + std::to_string(ds.corpus->size()) +
                  " docs, " + std::to_string(conditions.size()) +
                  " predicates)");
  std::printf("%-12s %8s %8s %8s %8s\n", "method", "p50", "p90", "p99",
              "max");
  std::map<std::string, SampleStats> sce_qerror;
  const uint64_t salts = smoke ? 2 : 5;
  for (SceMethod method :
       {SceMethod::kUniform, SceMethod::kStratified, SceMethod::kAis,
        SceMethod::kImportance}) {
    SampleStats h;
    for (const auto& cond : conditions) {
      const double truth = estimator.TrueCardinality(cond);
      for (uint64_t salt = 0; salt < salts; ++salt) {
        auto est = estimator.EstimateCondition(cond, method, salt);
        UNIFY_CHECK_OK(est.status());
        h.Add(QError(est->cardinality, truth));
      }
    }
    std::printf("%-12s %8.2f %8.2f %8.2f %8.2f\n", SceMethodName(method),
                h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99),
                h.Max());
    sce_qerror.emplace(SceMethodName(method), std::move(h));
  }

  // --- sweep 2: end-to-end plan predictions --------------------------
  SampleStats makespan_rel_error;
  SampleStats dollars_rel_error;
  SampleStats card_qerror;
  int queries_run = 0;
  int nodes_analyzed = 0;
  const size_t max_queries = smoke ? 4 : ds.workload.size();
  for (const auto& qc : ds.workload) {
    if (static_cast<size_t>(queries_run) >= max_queries) break;
    core::QueryResult result = system.Answer(qc.text);
    if (!result.status.ok()) continue;
    queries_run += 1;
    if (result.exec_seconds > 0) {
      makespan_rel_error.Add(
          std::abs(result.predicted_exec_seconds - result.exec_seconds) /
          result.exec_seconds);
    }
    if (result.exec_dollars > 0) {
      dollars_rel_error.Add(
          std::abs(result.predicted_exec_dollars - result.exec_dollars) /
          result.exec_dollars);
    }
    for (const auto& node : result.plan_analysis) {
      if (!node.executed) continue;
      card_qerror.Add(node.card_qerror);
      nodes_analyzed += 1;
    }
  }

  PrintHeaderLine("plan prediction accuracy (" +
                  std::to_string(queries_run) + " queries, " +
                  std::to_string(nodes_analyzed) + " executed nodes)");
  std::printf("%-22s %8s %8s %8s %8s\n", "distribution", "p50", "p90",
              "p99", "max");
  auto print_hist = [](const char* name, const SampleStats& h) {
    if (h.count() == 0) {
      std::printf("%-22s    (no observations)\n", name);
      return;
    }
    std::printf("%-22s %8.2f %8.2f %8.2f %8.2f\n", name, h.Quantile(0.5),
                h.Quantile(0.9), h.Quantile(0.99), h.Max());
  };
  print_hist("makespan rel-error", makespan_rel_error);
  print_hist("dollars rel-error", dollars_rel_error);
  print_hist("node card q-error", card_qerror);

  std::ofstream out("BENCH_accuracy.json");
  out << "{\n  \"benchmark\": \"accuracy\",\n";
  out << "  \"dataset\": \"" << ds.name << "\",\n";
  out << "  \"docs\": " << ds.corpus->size() << ",\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  out << "  \"sce_qerror\": {\n";
  size_t i = 0;
  for (const auto& [method, h] : sce_qerror) {
    out << "    \"" << method << "\": ";
    AppendHistogramJson(out, h);
    out << (++i < sce_qerror.size() ? "," : "") << "\n";
  }
  out << "  },\n";
  out << "  \"queries_run\": " << queries_run << ",\n";
  out << "  \"nodes_analyzed\": " << nodes_analyzed << ",\n";
  out << "  \"makespan_rel_error\": ";
  AppendHistogramJson(out, makespan_rel_error);
  out << ",\n  \"dollars_rel_error\": ";
  AppendHistogramJson(out, dollars_rel_error);
  out << ",\n  \"card_qerror\": ";
  AppendHistogramJson(out, card_qerror);
  out << "\n}\n";
  std::printf("wrote BENCH_accuracy.json\n");

  // Smoke mode doubles as a ctest check: the run must have produced
  // actual estimator observations end to end.
  if (smoke && (sce_qerror.empty() || queries_run == 0)) {
    std::printf("smoke check failed: no observations collected\n");
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
      "prediction accuracy: SCE q-error and cost-model calibration");
  return unify::bench::Run(smoke);
}
