// Morsel-driven intra-operator parallelism benchmark: sweeps the
// max_intra_op_parallelism knob over {1, 2, 4, 8} on the paper's 4-server
// virtual pool, at 1 client (the standalone latency view) and 16 clients
// (the shared-pool serving view).
//
// The 1-client sweep runs an LLM-filter-heavy query (a semantic predicate
// forces per-document LLM verification) standalone and reports the
// measured virtual makespan next to the optimizer's predicted makespan —
// partitioning the filter into 4 morsels on 4 servers should improve the
// measured makespan >= 2x at parallelism 4 vs 1, with the prediction
// tracking. The 16-client sweep shows how much of that latency win
// survives when concurrent queries already keep the pool busy (morsels of
// one query then compete with other queries' streams). Answers are
// byte-identical at every setting; the binary verifies this as it runs.
//
// Writes BENCH_partition.json. Scale knobs: see bench_util.h.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "nlq/render.h"

namespace unify::bench {
namespace {

std::string SemanticCountQuery() {
  nlq::QueryAst ast;
  ast.task = nlq::TaskKind::kCount;
  ast.entity = "questions";
  ast.docset.conditions = {nlq::Condition::Semantic("injury")};
  return nlq::Render(ast);
}

struct SoloResult {
  int parallelism = 0;
  double exec_seconds = 0;
  double predicted_seconds = 0;
  double plan_seconds = 0;
  std::string answer;
};

SoloResult RunSolo(const core::UnifySystem& system, const std::string& query,
                   int parallelism) {
  core::QueryRequest request;
  request.text = query;
  request.overrides.max_intra_op_parallelism = parallelism;
  core::QueryResult result = system.Answer(request);
  SoloResult solo;
  solo.parallelism = parallelism;
  if (!result.status.ok()) {
    std::printf("solo query failed at parallelism %d: %s\n", parallelism,
                result.status.ToString().c_str());
    return solo;
  }
  solo.exec_seconds = result.exec_seconds;
  solo.predicted_seconds = result.predicted_exec_seconds;
  solo.plan_seconds = result.plan_seconds;
  solo.answer = result.answer.ToString();
  return solo;
}

struct ServedResult {
  int parallelism = 0;
  int clients = 0;
  int queries = 0;
  double virtual_makespan = 0;
  double virtual_qps = 0;
};

ServedResult RunServed(const core::UnifySystem& system,
                       const std::vector<std::string>& queries, int clients,
                       int parallelism, int total_queries) {
  core::UnifyService::Options sopts;
  sopts.num_workers = clients;
  sopts.max_queue_depth = 2 * clients + 8;
  core::UnifyService service(&system, sopts);

  const int per_client = std::max(1, total_queries / clients);
  std::vector<double> completions(
      static_cast<size_t>(clients * per_client), 0);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c]() {
      double clock = 0;  // this client's closed-loop virtual clock
      for (int i = 0; i < per_client; ++i) {
        const size_t slot = static_cast<size_t>(c * per_client + i);
        core::QueryRequest request;
        request.text = queries[slot % queries.size()];
        request.arrival_seconds = clock;
        request.overrides.max_intra_op_parallelism = parallelism;
        core::QueryResult result = service.Answer(std::move(request));
        if (!result.status.ok()) continue;
        clock = result.completion_seconds;
        completions[slot] = result.completion_seconds;
      }
    });
  }
  for (auto& t : threads) t.join();

  ServedResult served;
  served.parallelism = parallelism;
  served.clients = clients;
  served.queries = clients * per_client;
  served.virtual_makespan =
      *std::max_element(completions.begin(), completions.end());
  served.virtual_qps = served.virtual_makespan > 0
                           ? served.queries / served.virtual_makespan
                           : 0;
  return served;
}

int Run() {
  BenchScale scale = BenchScale::FromEnv();
  if (scale.max_docs == 0) scale.max_docs = 400;
  corpus::DatasetProfile profile;
  for (const auto& p : corpus::AllProfiles()) {
    if (p.name == "sports") profile = p;
  }
  BenchDataset ds = MakeDataset(profile, scale);

  core::UnifyOptions uopts;
  uopts.collect_trace = false;
  // Frozen cost model: every parallelism level must plan identically.
  uopts.cost_feedback = false;
  core::UnifySystem system(ds.corpus.get(), ds.llm.get(), uopts);
  if (auto st = system.Setup(); !st.ok()) {
    std::printf("setup failed: %s\n", st.ToString().c_str());
    return 1;
  }

  const std::vector<int> sweep = {1, 2, 4, 8};
  const std::string solo_query = SemanticCountQuery();

  // --- 1 client: standalone latency of an LLM-filter-heavy query ---
  PrintHeaderLine("intra-op parallelism, 1 client (LLM-filter-heavy, " +
                  std::to_string(ds.corpus->size()) + " docs, 4 servers)");
  std::printf("%12s %12s %12s %10s\n", "parallelism", "exec-virt",
              "predicted", "speedup");
  std::vector<SoloResult> solos;
  for (int parallelism : sweep) {
    solos.push_back(RunSolo(system, solo_query, parallelism));
  }
  bool answers_identical = true;
  for (const auto& solo : solos) {
    if (solo.answer != solos.front().answer) answers_identical = false;
    const double speedup = solo.exec_seconds > 0
                               ? solos.front().exec_seconds / solo.exec_seconds
                               : 0;
    std::printf("%12d %11.1fs %11.1fs %9.2fx\n", solo.parallelism,
                solo.exec_seconds, solo.predicted_seconds, speedup);
  }
  double speedup_p4 = 0;
  for (const auto& solo : solos) {
    if (solo.parallelism == 4 && solo.exec_seconds > 0) {
      speedup_p4 = solos.front().exec_seconds / solo.exec_seconds;
    }
  }
  std::printf("\nmakespan speedup at parallelism 4 vs 1: %.2fx %s\n",
              speedup_p4,
              speedup_p4 >= 2.0 ? "(>= 2x target met)"
                                : "(below the 2x target)");
  std::printf("answers byte-identical across the sweep: %s\n",
              answers_identical ? "yes" : "NO (bug!)");

  // --- 16 clients: the same sweep under cross-query contention ---
  const int total_queries = 64;
  std::vector<std::string> queries;
  for (const auto& qc : ds.workload) {
    queries.push_back(qc.text);
    if (queries.size() >= 16) break;
  }
  PrintHeaderLine("intra-op parallelism, 16 clients (shared pool)");
  std::printf("%12s %8s %12s %12s\n", "parallelism", "queries", "virt-span",
              "virt-q/min");
  std::vector<ServedResult> served_levels;
  for (int parallelism : sweep) {
    ServedResult served =
        RunServed(system, queries, /*clients=*/16, parallelism,
                  total_queries);
    std::printf("%12d %8d %11.0fs %12.2f\n", served.parallelism,
                served.queries, served.virtual_makespan,
                60.0 * served.virtual_qps);
    served_levels.push_back(served);
  }

  std::ofstream out("BENCH_partition.json");
  out << "{\n  \"benchmark\": \"partition\",\n";
  out << "  \"dataset\": \"" << ds.name << "\",\n";
  out << "  \"docs\": " << ds.corpus->size() << ",\n";
  out << "  \"num_servers\": " << system.options().exec.num_servers
      << ",\n";
  out << "  \"answers_identical\": "
      << (answers_identical ? "true" : "false") << ",\n";
  out << "  \"makespan_speedup_p4_vs_p1\": " << speedup_p4 << ",\n";
  out << "  \"solo\": [\n";
  for (size_t i = 0; i < solos.size(); ++i) {
    const auto& solo = solos[i];
    out << "    {\"parallelism\": " << solo.parallelism
        << ", \"clients\": 1"
        << ", \"exec_virtual_seconds\": " << solo.exec_seconds
        << ", \"predicted_exec_seconds\": " << solo.predicted_seconds
        << ", \"plan_seconds\": " << solo.plan_seconds << "}"
        << (i + 1 < solos.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"served\": [\n";
  for (size_t i = 0; i < served_levels.size(); ++i) {
    const auto& served = served_levels[i];
    out << "    {\"parallelism\": " << served.parallelism
        << ", \"clients\": " << served.clients
        << ", \"queries\": " << served.queries
        << ", \"virtual_makespan_seconds\": " << served.virtual_makespan
        << ", \"virtual_queries_per_second\": " << served.virtual_qps
        << "}" << (i + 1 < served_levels.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote BENCH_partition.json\n");
  return 0;
}

}  // namespace
}  // namespace unify::bench

int main() { return unify::bench::Run(); }
