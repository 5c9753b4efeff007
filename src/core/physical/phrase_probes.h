#ifndef UNIFY_CORE_PHYSICAL_PHRASE_PROBES_H_
#define UNIFY_CORE_PHYSICAL_PHRASE_PROBES_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "embedding/embedder.h"
#include "index/vector_index.h"

namespace unify::core {

/// A thread-safe memo of values that are pure functions of their key,
/// holding at most kMaxEntries of them. A miss computes outside the lock,
/// so concurrent misses on one key compute equal values and the first
/// insert wins; a miss on a full memo clears it first. An entry is never
/// stale, only recomputed after a clear.
template <typename Key, typename Value>
class BoundedMemo {
 public:
  /// Bounds a memo of per-phrase document rankings near 5 MB at
  /// N = 5137 documents (256 × 4 bytes × N).
  static constexpr size_t kMaxEntries = 256;

  /// The memoized value of `key`, computing it with `compute()` on a miss.
  template <typename Compute>
  Value GetOrCompute(const Key& key, Compute&& compute) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = entries_.find(key);
      if (it != entries_.end()) return it->second;
    }
    Value value = compute();
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) return it->second;
    if (entries_.size() >= kMaxEntries) entries_.clear();
    entries_.emplace(key, value);
    return value;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

 private:
  mutable std::mutex mu_;
  std::map<Key, Value> entries_;
};

/// The embedding probes a semantic filter phrase needs, computed once per
/// system: the SCE's distance ranking of the whole corpus (Section VI-B)
/// and IndexScanFilter's nearest-neighbour candidates (Section IV-B).
/// Both are pure functions of the phrase and of the document embedder,
/// vectors and index that Setup builds (Section III-A), so repeated
/// phrases are served from one BoundedMemo instead of re-embedding and
/// re-searching. Thread-safe.
class PhraseProbes {
 public:
  /// Document ids in probe order, shared with the memo.
  using Ids = std::shared_ptr<const std::vector<uint32_t>>;

  /// `doc_vecs[i]` is the embedding of document i and `index` holds the
  /// same vector under id i, so every id fits in 32 bits. All pointers
  /// must outlive the probes.
  PhraseProbes(const embedding::Embedder* embedder,
               const std::vector<embedding::Vec>* doc_vecs,
               const index::VectorIndex* index);

  /// Every document id, ascending by (L2 distance to the phrase's
  /// embedding, id).
  Ids Ranking(const std::string& phrase) const;

  /// The ids of `index.Search(embedder.Embed(phrase), k)`, in result order.
  Ids Nearest(const std::string& phrase, size_t k) const;

  /// Probes currently memoized (at most BoundedMemo::kMaxEntries).
  size_t memo_size() const { return memo_.size(); }

 private:
  /// (phrase, k) of a Nearest probe; k is empty for a Ranking.
  using Key = std::pair<std::string, std::optional<size_t>>;

  const embedding::Embedder* embedder_;
  const std::vector<embedding::Vec>* doc_vecs_;
  const index::VectorIndex* index_;
  mutable BoundedMemo<Key, Ids> memo_;
};

}  // namespace unify::core

#endif  // UNIFY_CORE_PHYSICAL_PHRASE_PROBES_H_
