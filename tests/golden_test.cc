// Golden outcomes: a reduced run over the four dataset profiles whose
// answers, virtual seconds, dollars, LLM calls per prompt type and morsel
// counts are pinned in tests/golden/outcomes.txt. Any change to what a
// query computes or costs shows up as a differing line.
//
// On a mismatch the test writes its rendering to
// golden_outcomes.actual.txt next to the test binary and names the first
// differing line. A change that moves these numbers on purpose copies
// that file over tests/golden/outcomes.txt and says why in CHANGES.md.

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util.h"
#include "common/telemetry_names.h"

namespace unify::core {
namespace {

constexpr const char* kGoldenPath = UNIFY_GOLDEN_FILE;
constexpr const char* kActualPath = UNIFY_GOLDEN_ACTUAL;

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// One line per query: where it stopped, what it answered, what it cost,
/// which LLM calls it made, and how each plan node split into morsels.
std::string RenderOutcome(const std::string& dataset, int parallelism,
                          size_t index, const QueryResult& r) {
  std::ostringstream line;
  line << dataset << " p" << parallelism << " q" << index
       << " phase=" << QueryPhaseName(r.phase)
       << " answer=" << r.answer.ToString()
       << " plan_s=" << Num(r.plan_seconds)
       << " exec_s=" << Num(r.exec_seconds)
       << " pred_s=" << Num(r.predicted_exec_seconds)
       << " exec_usd=" << Num(r.exec_dollars);
  const std::string calls_prefix =
      std::string(telemetry::kMetricLlmCalls) + ".";
  for (const auto& [name, value] : r.metrics.counters) {
    if (name.compare(0, calls_prefix.size(), calls_prefix) == 0) {
      line << " " << name << "=" << Num(value);
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

std::string RenderAll() {
  bench::BenchScale scale;
  scale.per_template = 1;
  scale.max_docs = 300;
  std::string out;
  for (const corpus::DatasetProfile& profile : corpus::AllProfiles()) {
    bench::BenchDataset ds = bench::MakeDataset(profile, scale);
    for (int parallelism : {1, 4}) {
      UnifyOptions options;
      options.exec.threads = 1;
      UnifySystem system(ds.corpus.get(), ds.llm.get(), options);
      const Status setup = system.Setup();
      if (!setup.ok()) {
        out += ds.name + " setup failed: " + setup.ToString() + "\n";
        continue;
      }
      for (size_t i = 0; i < ds.workload.size(); ++i) {
        QueryRequest request;
        request.text = ds.workload[i].text;
        request.overrides.max_intra_op_parallelism = parallelism;
        out += RenderOutcome(ds.name, parallelism, i, system.Answer(request));
        out += "\n";
      }
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

TEST(GoldenTest, OutcomesMatchTheCommittedFile) {
  const std::string actual = RenderAll();
  std::ifstream golden_in(kGoldenPath);
  std::stringstream golden;
  golden << golden_in.rdbuf();
  if (actual == golden.str()) return;

  std::ofstream(kActualPath) << actual;
  const std::vector<std::string> want = Lines(golden.str());
  const std::vector<std::string> got = Lines(actual);
  size_t first = 0;
  while (first < want.size() && first < got.size() &&
         want[first] == got[first]) {
    ++first;
  }
  ADD_FAILURE() << "outcomes differ from " << kGoldenPath << " at line "
                << first + 1 << "\n  golden: "
                << (first < want.size() ? want[first] : "<end of file>")
                << "\n  actual: "
                << (first < got.size() ? got[first] : "<end of file>")
                << "\nfull rendering written to " << kActualPath;
}

}  // namespace
}  // namespace unify::core
