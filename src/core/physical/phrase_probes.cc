#include "core/physical/phrase_probes.h"

#include <algorithm>

namespace unify::core {

PhraseProbes::PhraseProbes(const embedding::Embedder* embedder,
                           const std::vector<embedding::Vec>* doc_vecs,
                           const index::VectorIndex* index)
    : embedder_(embedder), doc_vecs_(doc_vecs), index_(index) {}

PhraseProbes::Ids PhraseProbes::Ranking(const std::string& phrase) const {
  return memo_.GetOrCompute(Key(phrase, std::nullopt), [&] {
    const embedding::Vec query = embedder_->Embed(phrase);
    std::vector<std::pair<float, uint32_t>> dist(doc_vecs_->size());
    for (uint32_t i = 0; i < doc_vecs_->size(); ++i) {
      dist[i] = {embedding::L2Distance(query, (*doc_vecs_)[i]), i};
    }
    std::sort(dist.begin(), dist.end());
    auto ranked = std::make_shared<std::vector<uint32_t>>(dist.size());
    for (size_t r = 0; r < dist.size(); ++r) (*ranked)[r] = dist[r].second;
    return Ids(std::move(ranked));
  });
}

PhraseProbes::Ids PhraseProbes::Nearest(const std::string& phrase,
                                        size_t k) const {
  return memo_.GetOrCompute(Key(phrase, k), [&] {
    const std::vector<index::SearchResult> hits =
        index_->Search(embedder_->Embed(phrase), k);
    auto ids = std::make_shared<std::vector<uint32_t>>();
    ids->reserve(hits.size());
    for (const auto& hit : hits) ids->push_back(static_cast<uint32_t>(hit.id));
    return Ids(std::move(ids));
  });
}

}  // namespace unify::core
