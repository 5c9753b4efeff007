// Sample-budget sweep for semantic cardinality estimation: how the
// q-error of each method scales with the fraction of data the LLM is
// allowed to inspect (the paper fixes 1%; this shows why that point is a
// reasonable operating budget for Unify's estimator while the baselines
// need far more samples — the motivation in Section VI-B).

#include <cstdio>

#include "bench_util.h"
#include "common/logging.h"
#include "common/stats.h"
#include "core/physical/sce.h"
#include "embedding/hashed_embedder.h"
#include "index/linear_index.h"

namespace unify::bench {
namespace {

void RunBudget(const BenchDataset& ds, double fraction) {
  auto spec = corpus::BuildEmbeddingSpec(ds.corpus->profile());
  embedding::TopicEmbedder::Options eopts;
  eopts.seed = 17 ^ 0xe1be;
  embedding::TopicEmbedder embedder(eopts, spec.topic_tokens, spec.aliases);
  std::vector<embedding::Vec> vecs;
  vecs.reserve(ds.corpus->size());
  index::LinearIndex index;
  for (const auto& doc : ds.corpus->docs()) {
    vecs.push_back(embedder.Embed(doc.text));
    UNIFY_CHECK_OK(index.Add(doc.id, vecs.back()));
  }
  core::PhraseProbes probes(&embedder, &vecs, &index);
  core::SceOptions sopts;
  sopts.sample_fraction = fraction;
  core::CardinalityEstimator estimator(ds.corpus.get(), &probes,
                                       ds.llm.get(), sopts);
  estimator.LearnImportanceFunction(
      corpus::GenerateHistoricalPredicates(*ds.corpus, 32, 17 ^ 0x31));

  std::printf("budget %4.1f%%:", fraction * 100);
  for (core::SceMethod method :
       {core::SceMethod::kUniform, core::SceMethod::kImportance}) {
    SampleStats qerrors;
    for (const auto& phrase : ds.corpus->knowledge().categories()) {
      core::OpArgs cond{{"kind", "semantic"}, {"phrase", phrase}};
      double truth = estimator.TrueCardinality(cond);
      for (uint64_t salt = 0; salt < 3; ++salt) {
        auto est = estimator.EstimateCondition(cond, method, salt);
        UNIFY_CHECK_OK(est.status());
        qerrors.Add(QError(est->cardinality, truth));
      }
    }
    std::printf("  %s p50 %6.2f p95 %7.2f", core::SceMethodName(method),
                qerrors.Quantile(0.5), qerrors.Quantile(0.95));
  }
  std::printf("\n");
}

}  // namespace
}  // namespace unify::bench

int main() {
  auto scale = unify::bench::BenchScale::FromEnv();
  unify::bench::PrintHeaderLine(
      "SCE sample-budget sweep (Uniform vs Unify importance sampling)");
  auto ds = unify::bench::MakeDataset(unify::corpus::SportsProfile(), scale);
  std::printf("dataset %s: %zu docs, category predicates\n", ds.name.c_str(),
              ds.corpus->size());
  for (double fraction : {0.0025, 0.005, 0.01, 0.02, 0.05}) {
    unify::bench::RunBudget(ds, fraction);
  }
  return 0;
}
