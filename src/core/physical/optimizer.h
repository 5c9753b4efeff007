#ifndef UNIFY_CORE_PHYSICAL_OPTIMIZER_H_
#define UNIFY_CORE_PHYSICAL_OPTIMIZER_H_

#include <map>
#include <optional>
#include <vector>

#include "common/trace.h"
#include "core/physical/cost_model.h"
#include "core/physical/physical_plan.h"
#include "core/physical/sce.h"

namespace unify::core {

/// Which optimization regime to run (Section VII-E ablations).
enum class PhysicalMode {
  /// Unify: cost-based ordering + implementation + plan selection driven
  /// by semantic cardinality estimation.
  kFull,
  /// Unify-Rule: no cost-based optimization; implementations picked
  /// (seeded-)randomly among the semantically valid ones, original
  /// operator order kept.
  kRule,
  /// Unify-GD: like kFull but with ground-truth cardinalities.
  kGroundTruthCards,
};

/// What the optimizer minimizes (Section VI-A footnote: total execution
/// time and total dollar cost are different objectives served by the same
/// machinery).
enum class OptimizeObjective {
  kTime,     ///< minimize predicted makespan on the LLM server pool
  kDollars,  ///< minimize predicted total API spend
};

struct OptimizerOptions {
  PhysicalMode mode = PhysicalMode::kFull;
  OptimizeObjective objective = OptimizeObjective::kTime;
  /// Corpus statistics used for cardinality propagation.
  size_t corpus_size = 0;
  size_t num_categories = 10;
  /// LLM servers assumed when predicting plan makespans.
  int num_servers = 4;
  /// Morsel-driven intra-operator parallelism the executor will run with:
  /// a per-document LLM impl (ImplSplitsPerDoc) splits into up to this many
  /// concurrent partition streams, so its predicted cost shrinks when
  /// servers are idle (the cost objective models it, Section III-C
  /// extended). 1 = the sequential stream model.
  int max_intra_op_parallelism = 1;
  /// Documents per batched LLM call — partitions are whole batches, so
  /// this bounds how finely an operator can split.
  int llm_batch_size = 16;
  /// IndexScanFilter verifies factor × estimated-cardinality candidates.
  double index_candidate_factor = 9.0;
  /// Which SCE method powers the cost model (Unify uses importance
  /// sampling; exposed for ablations).
  SceMethod sce_method = SceMethod::kImportance;
  /// Calibration-testing knob: every semantic cardinality estimate in
  /// kFull mode is multiplied by this factor (clamped to [0, corpus]).
  /// 1 = faithful estimates; anything else emulates a systematically
  /// skewed estimator, the scenario mid-query re-optimization exists to
  /// repair (docs/replanning.md, tests/reoptimize_test.cc,
  /// bench/bench_reoptimize.cc).
  double card_est_scale = 1.0;
  uint64_t seed = 5;
};

/// Measured mid-query facts handed to PhysicalOptimizer::Reoptimize: the
/// exact cardinalities execution has already materialized, keyed by the
/// producing node's output variable. Estimates for still-unobserved
/// variables are corrected by the systematic bias these observations
/// reveal; no variable with a measurement is ever re-estimated.
struct CardinalityOverrides {
  std::map<std::string, double> var_cards;
};

/// Outcome of one re-entrant suffix re-optimization.
struct ReoptimizeResult {
  /// The plan with every un-executed node re-lowered under the measured
  /// cardinalities. Executed nodes are pinned verbatim: same impl, args,
  /// and original estimates (so postmortems still show the mis-estimate).
  PhysicalPlan plan;
  /// The un-executed nodes whose impl or args the re-lowering changed, in
  /// plan-index order.
  std::vector<int> relowered_nodes;
  /// Geometric-mean observed/estimated cardinality ratio across executed
  /// nodes — the systematic estimator bias applied to unobserved
  /// selectivities.
  double est_bias = 1.0;
  /// Predicted cost-to-go of the un-executed suffix under the measured
  /// cardinalities, in the objective's unit: keeping the old impls vs
  /// adopting the re-lowered ones. Under kTime the suffix's completion
  /// time (absolute virtual seconds, scheduled from `elapsed_seconds` on
  /// a fresh pool of num_servers); under kDollars its predicted spend.
  double old_suffix_cost = 0;
  double new_suffix_cost = 0;
};

/// Implementations valid for `node`: its CandidateImpls that can meet its
/// semantic requirement, IndexScanFilter only over the corpus head
/// ($docs); the raw candidates when that rejects all. Implementation
/// choice, filter ordering and the hindsight audit apply this one rule.
std::vector<PhysicalImpl> ValidImpls(const LogicalNode& node);

/// An implementation of a node and its cost; `args` is set when it runs
/// with args other than the node's (a sized IndexScanFilter).
struct PricedImpl {
  PhysicalImpl impl = PhysicalImpl::kLinearScan;
  std::optional<OpArgs> args;
  double cost = -1;
};

/// Cost-based implementation choice (Section VI-C): the cheapest of
/// `impls` (non-empty) for `node` at `in_card` input rows by estimated
/// sequential seconds or dollars, per `objective`; ties go to the earlier
/// impl. With `index_candidates`, IndexScanFilter verifies that many
/// candidates, rounded; without, every impl runs with the node's args.
PricedImpl CheapestImpl(const LogicalNode& node,
                        const std::vector<PhysicalImpl>& impls,
                        double in_card, OptimizeObjective objective,
                        const CostModel& cost_model,
                        std::optional<double> index_candidates = {});

/// Physical plan generation (paper Section VI): lowers a logical plan by
/// (1) estimating cardinalities (SCE), (2) reordering commuting filter
/// chains so selective/cheap filters run first, (3) choosing each
/// operator's physical implementation by estimated cost subject to
/// semantic requirements, and (4) ranking whole plans by predicted
/// makespan for plan selection. Re-optimization re-runs (3) and (4) on
/// the un-executed suffix through the same helpers.
///
/// Thread-safe: per-call state lives on the caller's stack, so one
/// optimizer may serve concurrent queries.
class PhysicalOptimizer {
 public:
  /// The longest filter chain ordered by cost: the search tries every
  /// order (720 here). A longer chain keeps the order it was given.
  static constexpr size_t kMaxOrderedFilterChain = 6;

  /// Pointers must outlive the optimizer. `estimator` may be null only in
  /// kRule mode.
  PhysicalOptimizer(const CostModel* cost_model,
                    const CardinalityEstimator* estimator,
                    OptimizerOptions options);

  /// Lowers one logical plan. When `trace` is non-null a
  /// telemetry::kSpanOptimizeCandidate span (child of `parent`) records
  /// per-node cardinality/cost estimates and nests the kSpanSceEstimate
  /// spans.
  StatusOr<PhysicalPlan> Optimize(const LogicalPlan& plan,
                                  Trace* trace = nullptr,
                                  SpanId parent = kNoSpan) const;

  /// Plan selection (Section VI-C): optimizes every candidate and returns
  /// the one with the smallest predicted makespan. SCE results are cached
  /// across candidates, so shared predicates are estimated once. Traced
  /// as a telemetry::kSpanPlanPhysical span over the per-candidate spans.
  StatusOr<PhysicalPlan> SelectBest(const std::vector<LogicalPlan>& plans,
                                    Trace* trace = nullptr,
                                    SpanId parent = kNoSpan) const;

  /// Per-query variant: same machinery under call-specific options (how
  /// QueryRequest's objective / physical-mode overrides reach the
  /// optimizer without mutating shared state). `opts` should be derived
  /// from options() so corpus statistics stay intact.
  StatusOr<PhysicalPlan> SelectBest(const std::vector<LogicalPlan>& plans,
                                    const OptimizerOptions& opts,
                                    Trace* trace = nullptr,
                                    SpanId parent = kNoSpan) const;

  /// Re-entrant mid-query re-optimization (docs/replanning.md): re-lowers
  /// only the nodes of `plan` not yet marked in `executed`, substituting
  /// the measured cardinalities of `observed` for their estimates (no
  /// re-sampling for observed variables; unobserved filter selectivities
  /// are corrected by the measured systematic bias) and re-costing the
  /// suffix from `elapsed_seconds` of already-spent virtual time.
  /// Executed nodes are pinned: their impls, args, and estimates are
  /// copied verbatim. Deterministic — keyed on the measured cardinalities
  /// only; performs no LLM calls. In kRule mode returns the plan
  /// unchanged (there is no cost model to re-consult).
  StatusOr<ReoptimizeResult> Reoptimize(const PhysicalPlan& plan,
                                        const std::vector<bool>& executed,
                                        const CardinalityOverrides& observed,
                                        const OptimizerOptions& opts,
                                        double elapsed_seconds) const;

  const OptimizerOptions& options() const { return options_; }

 private:
  /// Per-call mutable state threaded through the lowering algorithm.
  struct OptCtx {
    /// SCE cache of one Optimize/SelectBest call: condition key ->
    /// estimated cardinality.
    std::map<std::string, double>* cache = nullptr;
    /// Trace context of the candidate in flight; null when untraced.
    Trace* trace = nullptr;
    SpanId candidate_span = kNoSpan;
  };

  /// Traced lowering of one candidate using an established cache context.
  StatusOr<PhysicalPlan> OptimizeCandidate(const LogicalPlan& plan,
                                           const OptimizerOptions& opts,
                                           std::map<std::string, double>* cache,
                                           Trace* trace, SpanId parent) const;

  /// The untraced lowering algorithm behind Optimize().
  StatusOr<PhysicalPlan> OptimizeImpl(const LogicalPlan& plan,
                                      const OptimizerOptions& opts,
                                      OptCtx& ctx) const;

  /// Selectivity of a filter node's condition in [0, 1]; LLM cost is
  /// accumulated on `plan`.
  StatusOr<double> Selectivity(const OpArgs& condition,
                               const OptimizerOptions& opts, OptCtx& ctx,
                               PhysicalPlan& plan) const;

  const CostModel* cost_model_;
  const CardinalityEstimator* estimator_;
  OptimizerOptions options_;
};

}  // namespace unify::core

#endif  // UNIFY_CORE_PHYSICAL_OPTIMIZER_H_
