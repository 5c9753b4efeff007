#ifndef UNIFY_CORE_PHYSICAL_SCE_H_
#define UNIFY_CORE_PHYSICAL_SCE_H_

#include <vector>

#include "common/status.h"
#include "common/trace.h"
#include "core/operators/physical.h"
#include "corpus/corpus.h"
#include "corpus/workload.h"
#include "core/physical/numeric_stats.h"
#include "core/physical/phrase_probes.h"
#include "llm/llm_client.h"

namespace unify::core {

/// Sampling strategies evaluated in the paper (Table III).
enum class SceMethod {
  kUniform,     ///< plain uniform sampling (as in PALIMPZEST)
  kStratified,  ///< equi-width distance strata, proportional allocation
  kAis,         ///< adaptive importance sampling (VEGAS-style, 2 rounds)
  kImportance,  ///< Unify: learned piecewise importance function
};

const char* SceMethodName(SceMethod method);

struct SceOptions {
  /// Fraction of the corpus evaluated with the LLM (paper: 1%).
  double sample_fraction = 0.01;
  /// Lower bound on the sample budget for small corpora.
  int min_samples = 24;
  /// Pieces of the importance function / number of strata.
  int num_buckets = 10;
  /// Sample size for pre-programmed numeric selectivity probing.
  int numeric_sample = 200;
  uint64_t seed = 7;
};

struct SceEstimate {
  double cardinality = 0;
  /// LLM cost of the estimate (counted into planning time).
  double llm_seconds = 0;
  int64_t llm_calls = 0;
  int64_t samples = 0;
};

/// Semantic cardinality estimation (paper Section VI-B): predicts the
/// result size of a semantic predicate θ over N unstructured records
/// without executing it, by sampling documents and asking the LLM θ(x) on
/// the sample.
///
/// Unify's estimator exploits the Figure-3 observation — documents
/// satisfying θ concentrate at small embedding distance to the query — via
/// a piecewise importance function over distance ranks, learned from
/// historical queries, and the estimator
///     Σ_i n_i · (Σ_{x∈S_i} θ(x)) / |S_i| ,
/// sampling |S_i| ∝ f_i from group i (the paper's formula with
/// n_s · f_i samples per group).
class CardinalityEstimator {
 public:
  /// `probes` ranks the corpus by embedding distance to a phrase. All
  /// pointers must outlive the estimator.
  CardinalityEstimator(const corpus::Corpus* corpus,
                       const PhraseProbes* probes, llm::LlmClient* llm,
                       SceOptions options);

  /// Learns the importance function from executed historical queries
  /// (whose true result sets are known). Without this, kImportance falls
  /// back to uniform weights.
  void LearnImportanceFunction(
      const std::vector<corpus::HistoricalPredicate>& history);

  /// Estimates the cardinality of the filter condition described by
  /// `condition` (the operator-argument map: kind/phrase or
  /// attribute/cmp/value). Numeric conditions are probed with
  /// pre-programmed sampling (no LLM). `salt` decorrelates repeated
  /// estimates of the same predicate. When `trace` is non-null, a
  /// telemetry::kSpanSceEstimate span (child of `parent`) records the
  /// method, sample count, and resulting cardinality.
  /// Thread-safe: estimation state is per-call (the RNG is seeded from the
  /// condition and salt) and the memos are locked, so concurrent queries
  /// may share one estimator.
  StatusOr<SceEstimate> EstimateCondition(const OpArgs& condition,
                                          SceMethod method, uint64_t salt = 0,
                                          Trace* trace = nullptr,
                                          SpanId parent = kNoSpan) const;

  /// The learned importance values f_i (empty before learning).
  const std::vector<double>& importance() const { return importance_; }

  /// Attaches precomputed numeric-attribute histograms; when set and
  /// ready, numeric conditions are estimated from them instead of by
  /// sampling. `stats` must outlive the estimator.
  void set_numeric_stats(const NumericStats* stats) {
    numeric_stats_ = stats;
  }

  /// Exact selectivity from latent attributes — the Unify-GD oracle
  /// (Section VII-E) and the ground truth for q-error evaluation. Counted
  /// once per distinct condition, then memoized.
  double TrueCardinality(const OpArgs& condition) const;

 private:
  /// The untraced estimation algorithm behind EstimateCondition().
  StatusOr<SceEstimate> EstimateImpl(const OpArgs& condition,
                                     SceMethod method, uint64_t salt) const;

  /// Batched θ(x) evaluation via the LLM.
  StatusOr<std::vector<bool>> EvalTheta(const OpArgs& condition,
                                        const std::vector<uint64_t>& ids,
                                        SceEstimate& accounting) const;

  const corpus::Corpus* corpus_;
  const PhraseProbes* probes_;
  llm::LlmClient* llm_;
  SceOptions options_;
  std::vector<double> importance_;
  const NumericStats* numeric_stats_ = nullptr;
  /// TrueCardinality by every condition argument it reads.
  mutable BoundedMemo<std::string, double> truth_memo_;
};

}  // namespace unify::core

#endif  // UNIFY_CORE_PHYSICAL_SCE_H_
