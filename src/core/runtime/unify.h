#ifndef UNIFY_CORE_RUNTIME_UNIFY_H_
#define UNIFY_CORE_RUNTIME_UNIFY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/logical/operator_matcher.h"
#include "core/logical/plan_generator.h"
#include "core/operators/custom_ops.h"
#include "core/operators/operator_def.h"
#include "core/physical/cost_model.h"
#include "core/physical/optimizer.h"
#include "core/physical/numeric_stats.h"
#include "core/physical/phrase_probes.h"
#include "core/physical/sce.h"
#include "core/runtime/executor.h"
#include "core/runtime/query.h"
#include "corpus/corpus.h"
#include "embedding/hashed_embedder.h"
#include "index/hnsw_index.h"
#include "llm/fault_client.h"
#include "llm/llm_client.h"
#include "llm/resilient_client.h"
#include "llm/shared_cache.h"
#include "llm/tracing_client.h"

namespace unify::core {

class UnifyService;

/// Configuration of a UnifySystem instance. Defaults follow the paper's
/// hyper-parameters (Section VII-A): k = 5 candidate operators, n_c = 3
/// candidate plans, τ = 0.75, 4 LLM servers, HNSW indexing, 1% SCE
/// samples.
struct UnifyOptions {
  PlanGenerator::Options plan;
  SceOptions sce;
  PhysicalMode physical_mode = PhysicalMode::kFull;
  OptimizeObjective objective = OptimizeObjective::kTime;
  PlanExecutor::Options exec;
  /// User-registered operators (Section IV-B3); may be null. Must outlive
  /// the system.
  const CustomOpRegistry* custom_ops = nullptr;
  int llm_batch_size = 16;
  uint64_t seed = 17;
  /// Run cost-model calibration micro-executions during Setup().
  bool calibrate = true;
  double index_candidate_factor = 9.0;
  /// Calibration-testing knob forwarded to
  /// OptimizerOptions::card_est_scale: every semantic cardinality
  /// estimate is multiplied by this factor (clamped to the corpus size).
  /// 1 = faithful estimates (exact pass-through); anything else emulates
  /// a systematically skewed estimator — the scenario mid-query
  /// re-optimization (UnifyOptions::exec.max_reoptimizations,
  /// docs/replanning.md) exists to repair.
  double card_est_scale = 1.0;
  /// Record a query-lifecycle trace for every Answer() call (attached to
  /// QueryResult::trace). Negligible overhead; disable for pure
  /// throughput benchmarking.
  bool collect_trace = true;
  /// Feed measured execution costs back into the cost model after each
  /// query (running calibration). Disable to make plan choice independent
  /// of the order in which earlier queries ran — the setting under which
  /// concurrent serving is byte-identical to a sequential replay.
  bool cost_feedback = true;
  /// Deterministic fault injection on the LLM path (docs/resilience.md).
  /// All rates default to 0 = pass-through; injection is always disabled
  /// during Setup() so calibration stays fault-free.
  llm::FaultInjectionOptions faults;
  /// Retry / hedge / circuit-breaker policies of the resilience decorator
  /// that sits between the (possibly faulty) client and the tracer.
  llm::ResilienceOptions resilience;
  /// Default virtual seconds of retry overhead (backoff sleeps + retry
  /// attempts) a query may spend recovering from transient LLM faults,
  /// when the request sets neither `retry_budget_seconds` nor a deadline.
  double default_retry_budget_seconds = 120.0;
  /// When a transient LLM failure survives retries and the executor's
  /// fallback strategies, finish with a partial answer and
  /// QueryPhase::kDegraded instead of failing (overridable per request).
  bool graceful_degradation = false;
  /// The shared cross-query LLM answer cache (docs/caching.md): sharded
  /// bounded CLOCK + singleflight coalescing over per-document completions.
  /// `cache.enabled` defaults to false (opt-in, overridable per request
  /// via QueryRequest::Overrides::use_llm_cache).
  llm::SharedLlmCacheOptions cache;
};

/// The top-level system (paper Figure 1): offline preprocessing
/// (embedding + HNSW indexing of documents, operator-representation
/// indexing, cost calibration, importance-function learning), the planning
/// engine (logical + physical), and the execution module.
///
/// After Setup(), Answer() is const and safe to call from multiple
/// threads: planning/optimization keep their state on the caller's stack,
/// the phrase-probe and ground-truth memos and the cost model are
/// mutex-guarded, and the per-query RNG streams are derived from stable
/// content hashes, so concurrent calls produce byte-identical answers to a
/// sequential run (with cost_feedback off; see docs/api.md). For a managed
/// worker pool with admission control and a shared virtual server pool,
/// wrap the system in a UnifyService.
class UnifySystem {
 public:
  /// `corpus` and `llm` must outlive the system.
  UnifySystem(const corpus::Corpus* corpus, llm::LlmClient* llm,
              UnifyOptions options);

  /// Offline preprocessing (Section III-A). Must be called once (from one
  /// thread) before Answer().
  Status Setup();

  /// The request/response types of the public query API (see
  /// core/runtime/query.h). The aliases keep the historical spellings
  /// UnifySystem::QueryResult valid.
  using Request = core::QueryRequest;
  using Result = core::QueryResult;
  using QueryResult = core::QueryResult;

  /// Answers one analytics query end to end, honoring the request's
  /// per-query overrides (objective, physical mode, tracing, deadline).
  QueryResult Answer(const QueryRequest& request) const;

  /// Convenience overload: a request with default options.
  QueryResult Answer(const std::string& query) const;

  // --- component access (read-only) ---
  const CardinalityEstimator& estimator() const { return *estimator_; }
  const CostModel& cost_model() const { return cost_model_; }
  const OperatorRegistry& registry() const { return registry_; }
  const OperatorMatcher& matcher() const { return *matcher_; }
  const embedding::Embedder& doc_embedder() const { return *doc_embedder_; }
  /// Per-phrase distance rankings and index candidates over the corpus.
  const PhraseProbes& phrase_probes() const { return *phrase_probes_; }

  /// The fault injector in the client stack (null before Setup()). Its
  /// `set_rate_scale()` is the runtime kill switch the shell's `\faults`
  /// command flips; the injected faults are `llm.fault.*` counters.
  llm::FaultInjectingLlmClient* fault_injector() const {
    return fault_llm_.get();
  }
  /// The resilience decorator (null before Setup()): breaker states for
  /// the shell and tests; its events are `llm.retry.*`, `llm.hedge.*` and
  /// `breaker.*` counters.
  const llm::ResilientLlmClient* resilient_client() const {
    return resilient_llm_.get();
  }
  /// The shared cross-query answer cache (null before Setup()). One
  /// instance per system, so every query served through this system —
  /// concurrent or not — shares it. stats()/Clear() back the shell's
  /// `\cache` command and UnifyService::Stats.
  llm::SharedLlmCache* llm_cache() const { return cache_.get(); }

  const UnifyOptions& options() const { return options_; }

  /// Mutable access to internal components, for benchmarks, ablation
  /// studies and tests only — nothing here is part of the stable API, and
  /// mutating components concurrently with in-flight queries is not
  /// thread-safe. Production code should configure behavior through
  /// UnifyOptions / QueryRequest instead.
  struct TestingHooks {
    CardinalityEstimator* estimator = nullptr;
    CostModel* cost_model = nullptr;
    llm::TracingLlmClient* llm = nullptr;
  };
  TestingHooks testing_hooks() {
    TestingHooks hooks;
    hooks.estimator = estimator_.get();
    hooks.cost_model = &cost_model_;
    hooks.llm = traced_llm_.get();
    return hooks;
  }

 private:
  friend class UnifyService;
  /// The staged query pipeline (core/runtime/query_pipeline.h) drives
  /// every Answer() call and reads the system's components directly.
  friend class QueryPipeline;

  Status CalibrateCostModel();

  /// Trampoline into QueryPipeline: parse -> optimize -> execute (with
  /// the mid-query replan loop) -> analyze. `shared_pool` non-null
  /// schedules execution streams on a serving session's shared virtual
  /// server pool (times become absolute on its clock); null uses a fresh
  /// private pool. `trace` non-null lets the caller nest the query under
  /// its own spans (`parent`); null creates a trace per the effective
  /// collect_trace.
  QueryResult AnswerInternal(const QueryRequest& request,
                             exec::VirtualLlmPool* shared_pool,
                             std::shared_ptr<Trace> trace,
                             SpanId parent) const;

  const corpus::Corpus* corpus_;
  llm::LlmClient* llm_;
  UnifyOptions options_;
  /// The decorator stack every internal component calls through
  /// (innermost first): llm_ -> fault injection -> resilience
  /// (retry/hedge/breaker) -> shared answer cache -> metering. The cache
  /// sits *above* resilience so only final, retry-survived OK completions
  /// are ever admitted (a malformed or transient-failed result cannot
  /// poison it), and *below* the tracer so hits/coalesces still meter as
  /// zero-cost logical calls. With fault rates 0 and the cache disabled
  /// the extra layers are pure pass-throughs — default behavior is
  /// unchanged.
  std::unique_ptr<llm::FaultInjectingLlmClient> fault_llm_;
  std::unique_ptr<llm::ResilientLlmClient> resilient_llm_;
  std::unique_ptr<llm::SharedLlmCache> cache_;
  std::unique_ptr<llm::SharedCacheLlmClient> cache_llm_;
  std::unique_ptr<llm::TracingLlmClient> traced_llm_;

  OperatorRegistry registry_;
  std::unique_ptr<OperatorMatcher> matcher_;
  std::unique_ptr<embedding::TopicEmbedder> doc_embedder_;
  std::vector<embedding::Vec> doc_vecs_;
  std::unique_ptr<index::HnswIndex> doc_index_;
  std::unique_ptr<PhraseProbes> phrase_probes_;
  /// Mutable: absorbs feedback from const Answer() calls (internally
  /// mutex-guarded).
  mutable CostModel cost_model_;
  NumericStats numeric_stats_;
  std::unique_ptr<CardinalityEstimator> estimator_;
  std::unique_ptr<PlanGenerator> generator_;
  std::unique_ptr<PhysicalOptimizer> optimizer_;
  bool ready_ = false;
};

}  // namespace unify::core

#endif  // UNIFY_CORE_RUNTIME_UNIFY_H_
