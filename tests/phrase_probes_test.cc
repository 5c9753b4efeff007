#include "core/physical/phrase_probes.h"

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/telemetry_names.h"
#include "core/runtime/unify.h"
#include "corpus/dataset_profile.h"
#include "corpus/workload.h"
#include "embedding/hashed_embedder.h"
#include "index/hnsw_index.h"
#include "llm/sim_llm.h"

namespace unify::core {
namespace {

using Ids = std::vector<uint32_t>;

class PhraseProbesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto profile = corpus::SportsProfile();
    profile.doc_count = 600;
    corpus_ = new corpus::Corpus(corpus::GenerateCorpus(profile, 41));
    auto spec = corpus::BuildEmbeddingSpec(corpus_->profile());
    embedder_ = new embedding::TopicEmbedder(
        embedding::TopicEmbedder::Options{}, spec.topic_tokens,
        spec.aliases);
    vecs_ = new std::vector<embedding::Vec>();
    index_ = new index::HnswIndex(index::HnswIndex::Options{});
    for (const auto& doc : corpus_->docs()) {
      vecs_->push_back(embedder_->Embed(doc.text));
      ASSERT_TRUE(index_->Add(doc.id, vecs_->back()).ok());
    }
  }
  static void TearDownTestSuite() {
    delete index_;
    delete vecs_;
    delete embedder_;
    delete corpus_;
  }

  static PhraseProbes Probes() { return {embedder_, vecs_, index_}; }

  /// Category names, multi-word phrases, a phrase no category resolves,
  /// and the empty phrase.
  static std::vector<std::string> Phrases() {
    std::vector<std::string> phrases = corpus_->knowledge().categories();
    for (const char* p : {"ball sports", "injury", "training", "zyzzyva",
                          ""}) {
      phrases.emplace_back(p);
    }
    return phrases;
  }

  /// The reference ranking: every document sorted by (distance, id).
  static Ids BruteForceRanking(const std::string& phrase) {
    const embedding::Vec query = embedder_->Embed(phrase);
    std::vector<std::pair<float, uint32_t>> dist;
    for (uint32_t i = 0; i < vecs_->size(); ++i) {
      dist.emplace_back(embedding::L2Distance(query, (*vecs_)[i]), i);
    }
    std::sort(dist.begin(), dist.end());
    Ids ids;
    for (const auto& [d, id] : dist) ids.push_back(id);
    return ids;
  }

  static Ids SearchIds(const std::string& phrase, size_t k) {
    Ids ids;
    for (const auto& hit : index_->Search(embedder_->Embed(phrase), k)) {
      ids.push_back(static_cast<uint32_t>(hit.id));
    }
    return ids;
  }

  static corpus::Corpus* corpus_;
  static embedding::TopicEmbedder* embedder_;
  static std::vector<embedding::Vec>* vecs_;
  static index::HnswIndex* index_;
};
corpus::Corpus* PhraseProbesTest::corpus_ = nullptr;
embedding::TopicEmbedder* PhraseProbesTest::embedder_ = nullptr;
std::vector<embedding::Vec>* PhraseProbesTest::vecs_ = nullptr;
index::HnswIndex* PhraseProbesTest::index_ = nullptr;

TEST_F(PhraseProbesTest, RankingMatchesBruteForceDistanceSort) {
  const PhraseProbes probes = Probes();
  for (const std::string& phrase : Phrases()) {
    const Ids expected = BruteForceRanking(phrase);
    ASSERT_EQ(expected.size(), corpus_->size());
    EXPECT_EQ(*probes.Ranking(phrase), expected) << "'" << phrase << "'";
    // The second probe is served from the memo.
    EXPECT_EQ(probes.Ranking(phrase), probes.Ranking(phrase));
    EXPECT_EQ(*probes.Ranking(phrase), expected) << "'" << phrase << "'";
  }
}

TEST_F(PhraseProbesTest, NearestMatchesIndexSearchForEveryK) {
  const PhraseProbes probes = Probes();
  const size_t n = corpus_->size();
  for (const std::string& phrase : {std::string("tennis"),
                                    std::string("ball sports")}) {
    // Twice over, so the second round reads every k from the memo.
    for (int round = 0; round < 2; ++round) {
      for (size_t k : {size_t{1}, n / 4, n - 1, n, n + 5}) {
        EXPECT_EQ(*probes.Nearest(phrase, k), SearchIds(phrase, k))
            << phrase << " k=" << k << " round " << round;
      }
    }
  }
  // A ranking and a full-corpus Nearest of one phrase are different
  // probes (exact sort vs HNSW beam search) and must not share an entry.
  EXPECT_EQ(*probes.Ranking("tennis"), BruteForceRanking("tennis"));
  EXPECT_EQ(*probes.Nearest("tennis", n), SearchIds("tennis", n));
}

TEST_F(PhraseProbesTest, MemoStaysWithinItsCapAndRecomputesEvictedProbes) {
  constexpr size_t kCap = BoundedMemo<int, int>::kMaxEntries;
  const PhraseProbes probes = Probes();
  std::vector<Ids> first;
  for (size_t i = 0; i <= kCap; ++i) {
    first.push_back(*probes.Ranking("phrase " + std::to_string(i)));
    if (i + 1 == kCap) {
      EXPECT_EQ(probes.memo_size(), kCap);
    }
    EXPECT_LE(probes.memo_size(), kCap);
  }
  // The (cap + 1)-th probe cleared the full memo, so phrase 0 is gone and
  // comes back recomputed, equal to its first value.
  EXPECT_LT(probes.memo_size(), kCap);
  EXPECT_EQ(*probes.Ranking("phrase 0"), first[0]);
  EXPECT_EQ(*probes.Ranking("phrase 0"), BruteForceRanking("phrase 0"));
}

TEST_F(PhraseProbesTest, ConcurrentProbesMatchASequentialRun) {
  const std::vector<std::string> phrases = Phrases();
  const size_t n = corpus_->size();
  const std::vector<size_t> ks = {7, n / 4, n};
  // One probe per (phrase, kind) pair; kind 0 is the ranking.
  auto probe = [&](const PhraseProbes& probes, size_t phrase, size_t kind) {
    return kind == 0 ? *probes.Ranking(phrases[phrase])
                     : *probes.Nearest(phrases[phrase], ks[kind - 1]);
  };
  const size_t kinds = ks.size() + 1;

  const PhraseProbes sequential = Probes();
  std::vector<std::vector<Ids>> expected(phrases.size());
  for (size_t p = 0; p < phrases.size(); ++p) {
    for (size_t kind = 0; kind < kinds; ++kind) {
      expected[p].push_back(probe(sequential, p, kind));
    }
  }

  const PhraseProbes shared = Probes();
  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  // got[t] lists thread t's (phrase, kind, result) in probe order.
  std::vector<std::vector<std::pair<std::pair<size_t, size_t>, Ids>>> got(
      kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at its own offset, so threads overlap on every
      // probe but reach them in different orders.
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < phrases.size() * kinds; ++i) {
          const size_t slot = (i + static_cast<size_t>(t) * 5) %
                              (phrases.size() * kinds);
          const size_t p = slot / kinds;
          const size_t kind = slot % kinds;
          got[t].push_back({{p, kind}, probe(shared, p, kind)});
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), kRounds * phrases.size() * kinds);
    for (const auto& [key, ids] : got[t]) {
      EXPECT_EQ(ids, expected[key.first][key.second])
          << "thread " << t << " phrase '" << phrases[key.first]
          << "' kind " << key.second;
    }
  }
  EXPECT_EQ(shared.memo_size(), phrases.size() * kinds);
}

/// The query's `llm.calls` counters, one per prompt type.
std::map<std::string, double> LlmCallCounters(const QueryResult& result) {
  std::map<std::string, double> calls;
  for (const auto& [name, value] : result.metrics.counters) {
    if (name.rfind(telemetry::kMetricLlmCalls, 0) == 0) calls[name] = value;
  }
  EXPECT_FALSE(calls.empty());
  return calls;
}

// One system answering a query list whose phrases repeat serves the
// repeats from its memos; every result must equal that of a fresh system
// answering the query alone.
class WarmProbesTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WarmProbesTest, RepeatedPhrasesAnswerLikeAFreshSystem) {
  corpus::DatasetProfile profile;
  for (const auto& p : corpus::AllProfiles()) {
    if (p.name == GetParam()) profile = p;
  }
  ASSERT_EQ(profile.name, GetParam());
  profile.doc_count = 200;
  const corpus::Corpus corp = corpus::GenerateCorpus(profile, 47);
  llm::SimulatedLlm llm(&corp, llm::SimLlmOptions{});
  UnifyOptions options;
  // Execution feedback would make plans depend on earlier queries.
  options.cost_feedback = false;

  corpus::WorkloadOptions wopts;
  wopts.per_template = 1;
  const auto workload = corpus::GenerateWorkload(corp, wopts);
  // Every third template, asked twice: the templates share condition
  // phrases, and the second pass repeats each query's probes exactly.
  std::vector<std::string> distinct;
  for (size_t i = 0; i < workload.size(); i += 3) {
    distinct.push_back(workload[i].text);
  }
  ASSERT_GE(distinct.size(), 6u);

  std::vector<QueryResult> fresh;
  for (const std::string& text : distinct) {
    UnifySystem system(&corp, &llm, options);
    ASSERT_TRUE(system.Setup().ok());
    fresh.push_back(system.Answer(text));
  }

  UnifySystem warm(&corp, &llm, options);
  ASSERT_TRUE(warm.Setup().ok());
  int index_scans = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < distinct.size(); ++i) {
      SCOPED_TRACE(distinct[i] + " (pass " + std::to_string(pass) + ")");
      const QueryResult got = warm.Answer(distinct[i]);
      const QueryResult& want = fresh[i];
      ASSERT_EQ(got.status.ToString(), want.status.ToString());
      EXPECT_EQ(got.answer.kind, want.answer.kind);
      EXPECT_EQ(got.answer.number, want.answer.number);
      EXPECT_EQ(got.answer.text, want.answer.text);
      EXPECT_EQ(got.answer.list, want.answer.list);
      EXPECT_EQ(got.plan_seconds, want.plan_seconds);
      EXPECT_EQ(got.exec_seconds, want.exec_seconds);
      EXPECT_EQ(got.exec_dollars, want.exec_dollars);
      EXPECT_EQ(LlmCallCounters(got), LlmCallCounters(want));
      EXPECT_EQ(got.explain_analyze(), want.explain_analyze());
      for (const auto& node : got.plan_analysis) {
        index_scans += node.impl == "IndexScanFilter";
      }
    }
  }
  // The list exercises both probes: SCE rankings for every semantic
  // estimate, and index candidates for IndexScanFilter.
  EXPECT_GT(index_scans, 0);
  EXPECT_GT(warm.phrase_probes().memo_size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, WarmProbesTest,
                         ::testing::Values("sports", "ai", "law", "wiki"));

}  // namespace
}  // namespace unify::core
