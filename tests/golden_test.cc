// Golden outcomes: a reduced run over the four dataset profiles whose
// answers, virtual seconds, dollars, LLM calls per prompt type and morsel
// counts are pinned in tests/golden/outcomes.txt. Any change to what a
// query computes or costs shows up as a differing line.
//
// The workload renders once with morsels run one after another, and its
// parallelism-4 half three more times on four worker threads. Every
// rendering must match the file, and every per-query counter must be
// bitwise equal across them: counters are virtual (calls, seconds,
// dollars), and each morsel records into a registry of its own that is
// merged in morsel order.
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

/// The golden workload rendered at `threads` morsel workers: one line
/// per query, and each query's parallelism and counters in line order.
struct Rendering {
  std::string text;
  std::vector<int> parallelism;
  std::vector<MetricMap<double>> counters;
};

Rendering RenderAll(int threads, const std::vector<int>& parallelisms) {
  bench::BenchScale scale;
  scale.per_template = 1;
  scale.max_docs = 300;
  Rendering out;
  for (const corpus::DatasetProfile& profile : corpus::AllProfiles()) {
    bench::BenchDataset ds = bench::MakeDataset(profile, scale);
    for (int parallelism : parallelisms) {
      UnifyOptions options;
      options.exec.threads = threads;
      UnifySystem system(ds.corpus.get(), ds.llm.get(), options);
      const Status setup = system.Setup();
      if (!setup.ok()) {
        out.text += ds.name + " setup failed: " + setup.ToString() + "\n";
        continue;
      }
      for (size_t i = 0; i < ds.workload.size(); ++i) {
        QueryRequest request;
        request.text = ds.workload[i].text;
        request.overrides.max_intra_op_parallelism = parallelism;
        const QueryResult r = system.Answer(request);
        out.text += RenderOutcome(ds.name, parallelism, i, r) + "\n";
        out.parallelism.push_back(parallelism);
        out.counters.push_back(r.metrics.counters);
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

std::string GoldenFile() {
  std::ifstream in(kGoldenPath);
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
bool ExpectSameLines(const std::string& want, const std::string& actual) {
  if (actual == want) return true;
  const std::vector<std::string> want_lines = Lines(want);
  const std::vector<std::string> got = Lines(actual);
  size_t first = 0;
  while (first < want_lines.size() && first < got.size() &&
         want_lines[first] == got[first]) {
    ++first;
  }
  ADD_FAILURE() << "outcomes differ from " << kGoldenPath
                << " at compared line " << first + 1 << "\n  golden: "
                << (first < want_lines.size() ? want_lines[first]
                                              : "<end of file>")
                << "\n  actual: "
                << (first < got.size() ? got[first] : "<end of file>");
  return false;
}

class GoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    serial_ = new Rendering(RenderAll(/*threads=*/1, {1, 4}));
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
    const Rendering threaded = RenderAll(/*threads=*/4, {4});
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

}  // namespace
}  // namespace unify::core
