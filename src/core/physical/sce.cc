#include "core/physical/sce.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "common/telemetry_names.h"
#include "core/operators/physical_common.h"

namespace unify::core {

namespace {

/// Every condition argument TrueCardinality reads, each with its name and
/// length, so distinct conditions never share a key.
std::string TruthKey(const OpArgs& condition) {
  std::string key;
  for (const char* k : {"kind", "phrase", "condition", "attribute", "cmp",
                        "value", "value2"}) {
    auto it = condition.find(k);
    if (it == condition.end()) continue;
    key += k;
    key += ':';
    key += std::to_string(it->second.size());
    key += ':';
    key += it->second;
  }
  return key;
}

bool IsNumericCondition(const OpArgs& condition) {
  auto it = condition.find("kind");
  return it != condition.end() && it->second == "numeric";
}

std::string PhraseOf(const OpArgs& condition) {
  auto it = condition.find("phrase");
  if (it != condition.end()) return it->second;
  it = condition.find("condition");
  return it == condition.end() ? "" : it->second;
}

/// The latent field behind a known numeric attribute; nullptr for any
/// other attribute (whose latent value reads as 0).
int64_t corpus::DocAttrs::*LatentField(const std::string& attr) {
  if (attr == "views") return &corpus::DocAttrs::views;
  if (attr == "score") return &corpus::DocAttrs::score;
  if (attr == "answers") return &corpus::DocAttrs::answers;
  if (attr == "comments") return &corpus::DocAttrs::comments;
  if (attr == "words") return &corpus::DocAttrs::words;
  return nullptr;
}

}  // namespace

const char* SceMethodName(SceMethod method) {
  switch (method) {
    case SceMethod::kUniform:
      return "Uniform";
    case SceMethod::kStratified:
      return "Stratified";
    case SceMethod::kAis:
      return "AIS";
    case SceMethod::kImportance:
      return "Unify";
  }
  return "?";
}

CardinalityEstimator::CardinalityEstimator(const corpus::Corpus* corpus,
                                           const PhraseProbes* probes,
                                           llm::LlmClient* llm,
                                           SceOptions options)
    : corpus_(corpus), probes_(probes), llm_(llm), options_(options) {}

void CardinalityEstimator::LearnImportanceFunction(
    const std::vector<corpus::HistoricalPredicate>& history) {
  const int buckets = options_.num_buckets;
  std::vector<double> rates(buckets, 0.0);
  int used = 0;
  const auto& kb = corpus_->knowledge();
  for (const auto& hp : history) {
    const PhraseProbes::Ids ranking = probes_->Ranking(hp.phrase);
    const std::vector<uint32_t>& ranked = *ranking;
    if (ranked.empty()) continue;
    // Results of already-executed historical queries are known; an
    // unknown phrase matched nothing.
    const std::optional<corpus::SemanticPredicate> pred =
        kb.Resolve(hp.phrase);
    size_t per_bucket = std::max<size_t>(1, ranked.size() / buckets);
    for (int b = 0; b < buckets; ++b) {
      size_t begin = b * per_bucket;
      size_t end = (b == buckets - 1) ? ranked.size()
                                      : std::min(ranked.size(),
                                                 begin + per_bucket);
      if (begin >= end) continue;
      size_t hit = 0;
      if (pred.has_value()) {
        for (size_t r = begin; r < end; ++r) {
          if (pred->Matches(corpus_->doc(ranked[r]).attrs)) ++hit;
        }
      }
      rates[b] += static_cast<double>(hit) / static_cast<double>(end - begin);
    }
    ++used;
  }
  if (used == 0) return;
  double total = std::accumulate(rates.begin(), rates.end(), 0.0);
  if (total <= 0) return;
  // Blend with a uniform floor: keeps every distance group represented in
  // the sample, so broad predicates (whose matches extend to far groups)
  // are not underestimated.
  const double kFloor = 0.15;
  importance_.assign(buckets, 0.0);
  for (int b = 0; b < buckets; ++b) {
    importance_[b] =
        (1.0 - kFloor) * rates[b] / total + kFloor / buckets;
  }
}

StatusOr<std::vector<bool>> CardinalityEstimator::EvalTheta(
    const OpArgs& condition, const std::vector<uint64_t>& ids,
    SceEstimate& accounting) const {
  std::vector<bool> out;
  out.reserve(ids.size());
  // Same call shape as the LLM filter operator, so θ decisions during
  // estimation agree with execution.
  constexpr size_t kBatch = 16;
  for (size_t begin = 0; begin < ids.size(); begin += kBatch) {
    llm::LlmCall call;
    call.type = llm::PromptType::kEvalPredicate;
    call.tier = llm::ModelTier::kWorker;
    for (const char* key :
         {"kind", "phrase", "attribute", "cmp", "value", "value2",
          "condition"}) {
      auto it = condition.find(key);
      if (it != condition.end()) call.fields[key] = it->second;
    }
    size_t end = std::min(ids.size(), begin + kBatch);
    for (size_t i = begin; i < end; ++i) {
      call.items.push_back(std::to_string(ids[i]));
    }
    llm::LlmResult result = llm_->Call(call);
    if (!result.status.ok()) return result.status;
    accounting.llm_seconds += result.seconds;
    accounting.llm_calls += 1;
    for (const auto& item : result.items) out.push_back(item == "yes");
  }
  accounting.samples += static_cast<int64_t>(ids.size());
  return out;
}

double CardinalityEstimator::TrueCardinality(const OpArgs& condition) const {
  return truth_memo_.GetOrCompute(TruthKey(condition), [&]() -> double {
    size_t n = 0;
    if (IsNumericCondition(condition)) {
      // Latent numeric truth.
      auto it = condition.find("attribute");
      int64_t corpus::DocAttrs::*field =
          LatentField(it == condition.end() ? "" : it->second);
      const auto comparison = internal::NumericComparison::Parse(condition);
      for (const auto& doc : corpus_->docs()) {
        if (comparison.Holds(field == nullptr ? 0 : doc.attrs.*field)) ++n;
      }
      return static_cast<double>(n);
    }
    const std::optional<corpus::SemanticPredicate> pred =
        corpus_->knowledge().Resolve(PhraseOf(condition));
    if (!pred.has_value()) return 0;
    for (const auto& doc : corpus_->docs()) {
      if (pred->Matches(doc.attrs)) ++n;
    }
    return static_cast<double>(n);
  });
}

StatusOr<SceEstimate> CardinalityEstimator::EstimateCondition(
    const OpArgs& condition, SceMethod method, uint64_t salt, Trace* trace,
    SpanId parent) const {
  ScopedSpan span(trace, telemetry::kSpanSceEstimate, parent);
  if (trace != nullptr) {
    span.AddAttr("method", SceMethodName(method));
    std::string desc;
    for (const char* key :
         {"kind", "phrase", "attribute", "cmp", "value", "value2"}) {
      auto it = condition.find(key);
      if (it == condition.end()) continue;
      if (!desc.empty()) desc += ' ';
      desc += it->second;
    }
    span.AddAttr("condition", desc);
  }
  StatusOr<SceEstimate> est = EstimateImpl(condition, method, salt);
  MetricAddCounter(telemetry::kMetricSceEstimates);
  if (est.ok()) {
    MetricAddCounter(telemetry::kMetricSceSamples,
                     static_cast<double>(est->samples));
    MetricAddCounter(telemetry::kMetricSceLlmSeconds, est->llm_seconds);
    // The simulated corpus carries latent ground truth, so every
    // estimate's q-error is observable at estimation time (no extra LLM
    // cost — TrueCardinality reads latent attributes directly).
    MetricObserve(std::string(telemetry::kMetricSceQError) + "." +
                      SceMethodName(method),
                  QError(est->cardinality, TrueCardinality(condition)));
    span.AddAttr("cardinality", est->cardinality);
    span.AddAttr("samples", est->samples);
    span.AddAttr("llm_calls", est->llm_calls);
    span.AddAttr("llm_seconds", est->llm_seconds);
  } else {
    span.AddAttr("status", est.status().ToString());
  }
  return est;
}

StatusOr<SceEstimate> CardinalityEstimator::EstimateImpl(
    const OpArgs& condition, SceMethod method, uint64_t salt) const {
  SceEstimate est;
  const size_t N = corpus_->size();
  if (N == 0) return est;
  Rng rng(HashCombine(HashCombine(options_.seed, salt),
                      StableHash64(ConditionKey(condition))));

  // Numeric predicates: histogram lookup when statistics exist,
  // otherwise pre-programmed surface sampling. Never any LLM.
  if (IsNumericCondition(condition)) {
    if (numeric_stats_ != nullptr && numeric_stats_->ready()) {
      double card = numeric_stats_->EstimateCardinality(condition);
      if (card >= 0) {
        est.cardinality = card;
        return est;
      }
    }
    size_t sample = std::min<size_t>(
        N, static_cast<size_t>(options_.numeric_sample));
    auto picks = rng.SampleWithoutReplacement(N, sample);
    const internal::SurfaceCondition surface(corpus_, numeric_stats_,
                                             condition);
    size_t hit = 0;
    for (size_t i : picks) {
      if (surface.Matches(i)) ++hit;
    }
    est.cardinality = static_cast<double>(N) * static_cast<double>(hit) /
                      static_cast<double>(sample);
    est.samples = static_cast<int64_t>(sample);
    return est;
  }

  const std::string phrase = PhraseOf(condition);
  size_t n_s = std::max<size_t>(
      static_cast<size_t>(options_.min_samples),
      static_cast<size_t>(std::llround(options_.sample_fraction *
                                       static_cast<double>(N))));
  n_s = std::min(n_s, N);

  if (method == SceMethod::kUniform) {
    auto picks = rng.SampleWithoutReplacement(N, n_s);
    std::vector<uint64_t> ids(picks.begin(), picks.end());
    UNIFY_ASSIGN_OR_RETURN(std::vector<bool> theta,
                           EvalTheta(condition, ids, est));
    size_t hit = 0;
    for (bool t : theta) hit += t;
    est.cardinality = static_cast<double>(N) * static_cast<double>(hit) /
                      static_cast<double>(n_s);
    return est;
  }

  const PhraseProbes::Ids ranking = probes_->Ranking(phrase);
  const std::vector<uint32_t>& ranked = *ranking;
  const int buckets = options_.num_buckets;
  size_t per_bucket = std::max<size_t>(1, N / buckets);

  // Bucket boundaries over ranks (equal-population groups). The
  // stratified baseline instead uses equi-width *distance* strata; with
  // unit-normalized embeddings rank-quantile strata of a monotone
  // transform are equivalent up to stratum sizes, so we model equi-width
  // strata by merging rank groups proportionally to distance spread.
  // A corpus smaller than `buckets` leaves its trailing buckets empty.
  auto bucket_range = [&](int b) {
    size_t begin = std::min(N, static_cast<size_t>(b) * per_bucket);
    size_t end = (b == buckets - 1) ? N : std::min(N, begin + per_bucket);
    return std::make_pair(begin, end);
  };

  // Per-bucket sampling plan.
  std::vector<double> alloc(buckets, 0.0);
  switch (method) {
    case SceMethod::kStratified: {
      // Proportional to stratum population (== uniform across ranks, but
      // guaranteed coverage of every stratum).
      for (int b = 0; b < buckets; ++b) {
        auto [begin, end] = bucket_range(b);
        alloc[b] = static_cast<double>(end - begin) / static_cast<double>(N);
      }
      break;
    }
    case SceMethod::kImportance: {
      if (importance_.size() == static_cast<size_t>(buckets)) {
        alloc = importance_;
      } else {
        for (int b = 0; b < buckets; ++b) alloc[b] = 1.0 / buckets;
      }
      break;
    }
    case SceMethod::kAis: {
      // Round 1: equal allocation of half the budget.
      size_t half = std::max<size_t>(buckets, n_s / 2);
      std::vector<double> rate(buckets, 0.0);
      std::vector<size_t> seen(buckets, 0);
      std::vector<size_t> hits(buckets, 0);
      size_t per = std::max<size_t>(1, half / buckets);
      for (int b = 0; b < buckets; ++b) {
        auto [begin, end] = bucket_range(b);
        size_t take = std::min(per, end - begin);
        auto picks = rng.SampleWithoutReplacement(end - begin, take);
        std::vector<uint64_t> ids;
        for (size_t p : picks) ids.push_back(ranked[begin + p]);
        UNIFY_ASSIGN_OR_RETURN(std::vector<bool> theta,
                               EvalTheta(condition, ids, est));
        seen[b] = theta.size();
        for (bool t : theta) hits[b] += t;
        rate[b] = theta.empty()
                      ? 0.0
                      : static_cast<double>(hits[b]) /
                            static_cast<double>(theta.size());
      }
      // Round 2: allocate the remaining budget proportional to the
      // estimated rates (plus smoothing), then combine all samples.
      double total_rate = 0;
      for (double r : rate) total_rate += r + 0.01;
      size_t remaining = n_s > half ? n_s - half : 0;
      double estimate = 0;
      for (int b = 0; b < buckets; ++b) {
        auto [begin, end] = bucket_range(b);
        size_t extra = static_cast<size_t>(std::llround(
            static_cast<double>(remaining) * (rate[b] + 0.01) / total_rate));
        extra = std::min(extra, (end - begin) - std::min(end - begin, seen[b]));
        if (extra > 0) {
          auto picks = rng.SampleWithoutReplacement(end - begin, extra);
          std::vector<uint64_t> ids;
          for (size_t p : picks) ids.push_back(ranked[begin + p]);
          UNIFY_ASSIGN_OR_RETURN(std::vector<bool> theta,
                                 EvalTheta(condition, ids, est));
          seen[b] += theta.size();
          for (bool t : theta) hits[b] += t;
        }
        if (seen[b] > 0) {
          estimate += static_cast<double>(end - begin) *
                      static_cast<double>(hits[b]) /
                      static_cast<double>(seen[b]);
        }
      }
      est.cardinality = estimate;
      return est;
    }
    default:
      break;
  }

  // Stratified / importance execution: sample n_s · f_b from group b and
  // apply the paper's estimator Σ_b n_b · mean_b(θ).
  double estimate = 0;
  for (int b = 0; b < buckets; ++b) {
    auto [begin, end] = bucket_range(b);
    size_t n_b = end - begin;
    size_t take = static_cast<size_t>(
        std::llround(static_cast<double>(n_s) * alloc[b]));
    take = std::min(take, n_b);
    if (take == 0) continue;
    auto picks = rng.SampleWithoutReplacement(n_b, take);
    std::vector<uint64_t> ids;
    for (size_t p : picks) ids.push_back(ranked[begin + p]);
    UNIFY_ASSIGN_OR_RETURN(std::vector<bool> theta,
                           EvalTheta(condition, ids, est));
    size_t hit = 0;
    for (bool t : theta) hit += t;
    estimate += static_cast<double>(n_b) * static_cast<double>(hit) /
                static_cast<double>(take);
  }
  est.cardinality = estimate;
  return est;
}

}  // namespace unify::core
