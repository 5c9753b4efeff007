#include "core/runtime/unify.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/runtime/query_pipeline.h"
#include "corpus/workload.h"

namespace unify::core {

UnifySystem::UnifySystem(const corpus::Corpus* corpus, llm::LlmClient* llm,
                         UnifyOptions options)
    : corpus_(corpus), llm_(llm), options_(options) {
  registry_ = OperatorRegistry::Default();
}

Status UnifySystem::Setup() {
  // The internal client stack: fault injection under the resilience
  // decorator (so injected faults are what retries/hedges recover from),
  // the shared answer cache above resilience (only final, retry-survived
  // OK completions are admitted — a faulty result cannot poison it),
  // metering outermost so per-PromptType counters always see the final
  // logical call. Injection stays off for all of Setup() — calibration
  // and importance learning must be fault-free.
  fault_llm_ =
      std::make_unique<llm::FaultInjectingLlmClient>(llm_, options_.faults);
  fault_llm_->set_rate_scale(0.0);
  resilient_llm_ = std::make_unique<llm::ResilientLlmClient>(
      fault_llm_.get(), options_.resilience);
  cache_ = std::make_unique<llm::SharedLlmCache>(options_.cache);
  cache_llm_ = std::make_unique<llm::SharedCacheLlmClient>(
      resilient_llm_.get(), cache_.get(), options_.cache.enabled);
  traced_llm_ = std::make_unique<llm::TracingLlmClient>(cache_llm_.get());
  // The cache also stays off for all of Setup(): calibration measures the
  // real per-call costs, and a cache hit during a micro-execution would
  // record zero-cost samples into the cost model (changing plan choice
  // depending on whether the cache is on — exactly the coupling the
  // byte-identity guarantee forbids).
  llm::SharedCacheLlmClient::ScopedUse setup_cache_off(false);

  // --- Operator indexing: embed every logical representation offline ---
  matcher_ = std::make_unique<OperatorMatcher>(&registry_, /*dim=*/48,
                                               options_.seed ^ 0x5151);

  // --- Document embedding + HNSW vector index (Section III-A) ---
  corpus::EmbeddingSpec spec = corpus::BuildEmbeddingSpec(corpus_->profile());
  embedding::TopicEmbedder::Options eopts;
  eopts.seed = options_.seed ^ 0xe1be;
  doc_embedder_ = std::make_unique<embedding::TopicEmbedder>(
      eopts, spec.topic_tokens, spec.aliases);
  doc_vecs_.clear();
  doc_vecs_.reserve(corpus_->size());
  index::HnswIndex::Options hopts;
  hopts.M = 16;
  hopts.ef_construction = 120;
  hopts.ef_search = 96;
  hopts.seed = options_.seed ^ 0x1d8;
  doc_index_ = std::make_unique<index::HnswIndex>(hopts);
  for (const auto& doc : corpus_->docs()) {
    doc_vecs_.push_back(doc_embedder_->Embed(doc.text));
    UNIFY_RETURN_IF_ERROR(doc_index_->Add(doc.id, doc_vecs_.back()));
  }
  phrase_probes_ = std::make_unique<PhraseProbes>(
      doc_embedder_.get(), &doc_vecs_, doc_index_.get());

  // --- Semantic cardinality estimation (Section VI-B) + numeric
  // histograms over surface-extractable attributes ---
  numeric_stats_.Build(*corpus_);
  estimator_ = std::make_unique<CardinalityEstimator>(
      corpus_, phrase_probes_.get(), traced_llm_.get(), options_.sce);
  estimator_->set_numeric_stats(&numeric_stats_);
  estimator_->LearnImportanceFunction(corpus::GenerateHistoricalPredicates(
      *corpus_, /*count=*/32, options_.seed ^ 0x31));

  // --- Planning engine ---
  generator_ = std::make_unique<PlanGenerator>(
      &registry_, matcher_.get(), traced_llm_.get(), options_.plan);
  OptimizerOptions oopts;
  oopts.mode = options_.physical_mode;
  oopts.objective = options_.objective;
  oopts.corpus_size = corpus_->size();
  oopts.num_categories = corpus_->knowledge().categories().size();
  oopts.num_servers = options_.exec.num_servers;
  oopts.max_intra_op_parallelism =
      std::max(1, options_.exec.max_intra_op_parallelism);
  oopts.llm_batch_size = options_.llm_batch_size;
  oopts.index_candidate_factor = options_.index_candidate_factor;
  oopts.card_est_scale = options_.card_est_scale;
  oopts.seed = options_.seed ^ 0xabcd;
  optimizer_ = std::make_unique<PhysicalOptimizer>(&cost_model_,
                                                   estimator_.get(), oopts);

  // --- Cost-model calibration from "historical executions" ---
  if (options_.calibrate) {
    UNIFY_RETURN_IF_ERROR(CalibrateCostModel());
  }
  fault_llm_->set_rate_scale(1.0);
  ready_ = true;
  return Status::OK();
}

Status UnifySystem::CalibrateCostModel() {
  // Execute each implementation family on a small document sample and
  // record the measured virtual costs — the paper's "estimating these
  // parameters based on historical execution data" (Section VI-A).
  ExecContext ctx;
  ctx.corpus = corpus_;
  ctx.llm = traced_llm_.get();
  ctx.numeric_stats = &numeric_stats_;
  ctx.phrase_probes = phrase_probes_.get();
  ctx.llm_batch_size = options_.llm_batch_size;

  const size_t sample_n = std::min<size_t>(32, corpus_->size());
  DocList sample;
  for (size_t i = 0; i < sample_n; ++i) {
    sample.push_back(i * (corpus_->size() / sample_n));
  }
  std::vector<Value> doc_input = {Value::Docs(sample)};
  const auto& kb = corpus_->knowledge();
  const std::string phrase =
      kb.categories().empty() ? "anything" : kb.categories().front();

  // Semantic filter (LLM per document).
  {
    OpArgs args{{"kind", "semantic"}, {"phrase", phrase}};
    UNIFY_ASSIGN_OR_RETURN(
        OpOutput out, ExecuteOp("Filter", PhysicalImpl::kLlmFilter, args,
                                doc_input, ctx));
    cost_model_.Record("Filter", PhysicalImpl::kLlmFilter, sample_n,
                       out.stats.llm_seconds, out.stats.cpu_seconds,
                       out.stats.llm_dollars);
    // IndexScanFilter verifies candidates with the same per-document call.
    cost_model_.Record("Filter", PhysicalImpl::kIndexScanFilter, sample_n,
                       out.stats.llm_seconds, out.stats.cpu_seconds,
                       out.stats.llm_dollars);
    setup_llm_seconds_ += out.stats.llm_seconds;
  }
  // Exact (pre-programmed) filter.
  {
    OpArgs args{{"kind", "numeric"}, {"attribute", "views"},
                {"cmp", "gt"},      {"value", "100"}};
    UNIFY_ASSIGN_OR_RETURN(
        OpOutput out, ExecuteOp("Filter", PhysicalImpl::kExactFilter, args,
                                doc_input, ctx));
    cost_model_.Record("Filter", PhysicalImpl::kExactFilter, sample_n,
                       out.stats.llm_seconds, out.stats.cpu_seconds);
    cost_model_.Record("Filter", PhysicalImpl::kKeywordFilter, sample_n,
                       out.stats.llm_seconds, out.stats.cpu_seconds);
  }
  // LLM extraction and aggregation.
  {
    OpArgs args{{"attribute", "views"}};
    UNIFY_ASSIGN_OR_RETURN(
        OpOutput out, ExecuteOp("Extract", PhysicalImpl::kLlmExtract, args,
                                doc_input, ctx));
    cost_model_.Record("Extract", PhysicalImpl::kLlmExtract, sample_n,
                       out.stats.llm_seconds, out.stats.cpu_seconds,
                       out.stats.llm_dollars);
    setup_llm_seconds_ += out.stats.llm_seconds;
    for (const char* agg :
         {"Sum", "Average", "Min", "Max", "Median", "Percentile"}) {
      cost_model_.Record(agg, PhysicalImpl::kLlmAggregate, sample_n,
                         out.stats.llm_seconds, out.stats.cpu_seconds,
                         out.stats.llm_dollars);
    }
  }
  // Regex extraction.
  {
    OpArgs args{{"attribute", "views"}};
    UNIFY_ASSIGN_OR_RETURN(
        OpOutput out, ExecuteOp("Extract", PhysicalImpl::kRegexExtract, args,
                                doc_input, ctx));
    cost_model_.Record("Extract", PhysicalImpl::kRegexExtract, sample_n,
                       out.stats.llm_seconds, out.stats.cpu_seconds);
    for (const char* agg :
         {"Sum", "Average", "Min", "Max", "Median", "Percentile"}) {
      cost_model_.Record(agg, PhysicalImpl::kPreAggregate, sample_n,
                         out.stats.llm_seconds, out.stats.cpu_seconds);
    }
  }
  // Grouping / classification.
  {
    OpArgs args{{"by", corpus_->category_kind()}};
    UNIFY_ASSIGN_OR_RETURN(
        OpOutput out, ExecuteOp("GroupBy", PhysicalImpl::kLlmGroupBy, args,
                                doc_input, ctx));
    cost_model_.Record("GroupBy", PhysicalImpl::kLlmGroupBy, sample_n,
                       out.stats.llm_seconds, out.stats.cpu_seconds,
                       out.stats.llm_dollars);
    cost_model_.Record("Classify", PhysicalImpl::kLlmClassify, sample_n,
                       out.stats.llm_seconds, out.stats.cpu_seconds,
                       out.stats.llm_dollars);
    setup_llm_seconds_ += out.stats.llm_seconds;
  }
  {
    OpArgs args{{"by", corpus_->category_kind()}};
    UNIFY_ASSIGN_OR_RETURN(
        OpOutput out, ExecuteOp("GroupBy", PhysicalImpl::kRuleGroupBy, args,
                                doc_input, ctx));
    cost_model_.Record("GroupBy", PhysicalImpl::kRuleGroupBy, sample_n,
                       out.stats.llm_seconds, out.stats.cpu_seconds);
    cost_model_.Record("Classify", PhysicalImpl::kRuleClassify, sample_n,
                       out.stats.llm_seconds, out.stats.cpu_seconds);
  }
  return Status::OK();
}

ResolvedQueryOptions QueryRequest::Overrides::ResolveAgainst(
    const UnifyOptions& defaults) const {
  ResolvedQueryOptions r;
  r.objective = objective.value_or(defaults.objective);
  r.physical_mode = physical_mode.value_or(defaults.physical_mode);
  r.collect_trace = collect_trace.value_or(defaults.collect_trace);
  r.max_intra_op_parallelism = std::max(
      1, max_intra_op_parallelism.value_or(
             defaults.exec.max_intra_op_parallelism));
  r.graceful_degradation =
      graceful_degradation.value_or(defaults.graceful_degradation);
  r.retry_budget_seconds =
      retry_budget_seconds.value_or(defaults.default_retry_budget_seconds);
  r.use_llm_cache = use_llm_cache.value_or(defaults.cache.enabled);
  r.reoptimize_qerror_threshold = reoptimize_qerror_threshold.value_or(
      defaults.exec.reoptimize_qerror_threshold);
  r.max_reoptimizations = std::max(
      0, max_reoptimizations.value_or(defaults.exec.max_reoptimizations));
  return r;
}

const char* QueryPhaseName(QueryPhase phase) {
  switch (phase) {
    case QueryPhase::kAdmission:
      return "admission";
    case QueryPhase::kPlanning:
      return "planning";
    case QueryPhase::kOptimization:
      return "optimization";
    case QueryPhase::kExecution:
      return "execution";
    case QueryPhase::kDegraded:
      return "degraded";
    case QueryPhase::kComplete:
      return "complete";
  }
  return "unknown";
}

QueryResult UnifySystem::Answer(const std::string& query) const {
  QueryRequest request;
  request.text = query;
  return Answer(request);
}

QueryResult UnifySystem::Answer(const QueryRequest& request) const {
  return AnswerInternal(request, /*shared_pool=*/nullptr, /*trace=*/nullptr,
                        kNoSpan);
}

QueryResult UnifySystem::AnswerInternal(const QueryRequest& request,
                                        exec::VirtualLlmPool* shared_pool,
                                        std::shared_ptr<Trace> trace,
                                        SpanId parent) const {
  return QueryPipeline(*this, request, shared_pool, std::move(trace), parent)
      .Run();
}

}  // namespace unify::core
