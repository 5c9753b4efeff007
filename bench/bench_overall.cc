// Reproduces Figure 4 of the paper: accuracy (a)-(d) and end-to-end
// latency (e)-(h) of Unify against RAG, RecurRAG, LLMPlan, Sample,
// Exhaust, and Manual on the four datasets.
//
// Scale knobs: see bench_util.h (UNIFY_BENCH_FULL=1 for 100 queries per
// dataset; default is a faster subset with identical shape).
//
// --trace-out=PATH writes the last Unify query's lifecycle trace per
// dataset as Chrome trace-event JSON to PATH.<dataset>.json (open in
// chrome://tracing or Perfetto; see docs/observability.md).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>

#include "bench_util.h"
#include "common/logging.h"
#include "core/baselines/exhaust.h"
#include "core/baselines/llm_plan.h"
#include "core/baselines/manual.h"
#include "core/baselines/rag.h"
#include "core/baselines/retrieval.h"
#include "core/baselines/sample.h"

namespace unify::bench {
namespace {

using core::ExecContext;
using core::MethodResult;
using corpus::Answer;

void RunDataset(const corpus::DatasetProfile& profile,
                const BenchScale& scale, const std::string& trace_out) {
  BenchDataset ds = MakeDataset(profile, scale);
  std::printf("\n--- dataset %s: %zu docs, %zu queries ---\n",
              ds.name.c_str(), ds.corpus->size(), ds.workload.size());

  // Unify system (shared preprocessing).
  core::UnifyOptions uopts;
  core::UnifySystem system(ds.corpus.get(), ds.llm.get(), uopts);
  UNIFY_CHECK_OK(system.Setup());

  // Shared sentence retriever for RAG-family baselines.
  core::SentenceRetriever retriever(ds.corpus.get(), &system.doc_embedder());
  UNIFY_CHECK_OK(retriever.Build());

  ExecContext ctx;
  ctx.corpus = ds.corpus.get();
  ctx.llm = ds.llm.get();
  ctx.phrase_probes = &system.phrase_probes();

  core::RagBaseline rag(&retriever, ds.llm.get(), {});
  core::RecurRagBaseline recur_rag(&retriever, ds.llm.get(), {});
  core::LlmPlanBaseline llm_plan(&retriever, ctx, {});
  core::SampleBaseline sample(ds.corpus.get(), ds.llm.get(), {});
  core::ExhaustBaseline exhaust(ctx, core::ExhaustBaseline::Options{});
  core::ManualBaseline manual(ctx, &system.estimator(), &system.cost_model(),
                              core::ManualBaseline::Options{});

  struct Row {
    std::string name;
    std::function<MethodResult(const std::string&)> run;
    MethodStats stats;
  };
  std::vector<Row> rows;
  rows.push_back({"RAG", [&](const std::string& q) { return rag.Run(q); },
                  {}});
  rows.push_back(
      {"RecurRAG", [&](const std::string& q) { return recur_rag.Run(q); },
       {}});
  rows.push_back(
      {"LLMPlan", [&](const std::string& q) { return llm_plan.Run(q); }, {}});
  rows.push_back(
      {"Sample", [&](const std::string& q) { return sample.Run(q); }, {}});
  rows.push_back(
      {"Exhaust", [&](const std::string& q) { return exhaust.Run(q); }, {}});
  rows.push_back(
      {"Manual", [&](const std::string& q) { return manual.Run(q); }, {}});
  std::shared_ptr<Trace> last_trace;
  rows.push_back({"Unify",
                  [&](const std::string& q) {
                    auto r = system.Answer(q);
                    last_trace = r.trace;
                    MethodResult m;
                    m.status = r.status;
                    m.answer = r.answer;
                    m.plan_seconds = r.plan_seconds;
                    m.exec_seconds = r.exec_seconds;
                    m.total_seconds = r.total_seconds;
                    return m;
                  },
                  {}});

  // Per-query latency ratios behind the paper's "up to 40× vs Exhaust,
  // ~10× vs Manual" headline.
  double max_vs_exhaust = 0;
  double max_vs_manual = 0;
  for (const auto& qc : ds.workload) {
    double unify_total = 0;
    double exhaust_total = 0;
    double manual_total = 0;
    for (auto& row : rows) {
      MethodResult r = row.run(qc.text);
      bool ok = r.status.ok() &&
                Answer::Equivalent(r.answer, qc.ground_truth);
      row.stats.Add(ok, r.plan_seconds, r.exec_seconds);
      double total = r.plan_seconds + r.exec_seconds;
      if (row.name == "Unify") unify_total = total;
      if (row.name == "Exhaust") exhaust_total = total;
      if (row.name == "Manual") manual_total = total;
    }
    if (unify_total > 0) {
      max_vs_exhaust = std::max(max_vs_exhaust, exhaust_total / unify_total);
      max_vs_manual = std::max(max_vs_manual, manual_total / unify_total);
    }
  }

  std::printf("%-10s %9s %12s %12s %12s\n", "method", "acc(%)", "plan(min)",
              "exec(min)", "total(min)");
  for (const auto& row : rows) {
    std::printf("%-10s %9.1f %12.2f %12.2f %12.2f\n", row.name.c_str(),
                row.stats.accuracy(), row.stats.avg_plan_minutes(),
                row.stats.avg_exec_minutes(), row.stats.avg_total_minutes());
  }
  std::printf("per-query max speedup of Unify:  %.1fx vs Exhaust, "
              "%.1fx vs Manual\n",
              max_vs_exhaust, max_vs_manual);

  if (!trace_out.empty() && last_trace != nullptr) {
    const std::string path = trace_out + "." + ds.name + ".json";
    std::ofstream out(path);
    if (out) {
      out << last_trace->ToChromeJson();
      std::printf("trace of the last Unify query written to %s\n",
                  path.c_str());
    } else {
      std::printf("cannot open %s for the trace\n", path.c_str());
    }
  }
}

}  // namespace
}  // namespace unify::bench

int main(int argc, char** argv) {
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_out = argv[i] + 12;
    } else {
      std::printf("usage: %s [--trace-out=PATH]\n", argv[0]);
      return 1;
    }
  }
  auto scale = unify::bench::BenchScale::FromEnv();
  unify::bench::PrintHeaderLine(
      "Figure 4: overall accuracy and latency of all methods");
  for (const auto& profile : unify::corpus::AllProfiles()) {
    unify::bench::RunDataset(profile, scale, trace_out);
  }
  return 0;
}
