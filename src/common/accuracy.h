#ifndef UNIFY_COMMON_ACCURACY_H_
#define UNIFY_COMMON_ACCURACY_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/stats.h"

namespace unify {

/// Process-wide ledger of prediction accuracy: how well the semantic
/// cardinality estimator, the per-node cardinality propagation, and the
/// cost model's makespan/dollar predictions match what execution actually
/// measured. Hooks in CardinalityEstimator (per-estimate SCE q-error
/// against the simulated corpus's latent ground truth) and in
/// UnifySystem::Answer (per-node q-error, makespan/dollars relative
/// error, hindsight impl-choice audit) feed it; benches and tests read it
/// to assert calibration bounds instead of only speed
/// (bench/bench_accuracy.cc, docs/observability.md "Prediction
/// accuracy").
///
/// Every Record* call also mirrors the observation into the metrics
/// registry (via the Metric* helpers, so into the running query's sink
/// when there is one) under the corresponding telemetry name — the ledger
/// adds bounded per-method histograms and the chosen-vs-best counters in
/// one resettable place.
class AccuracyLedger {
 public:
  struct Snapshot {
    /// SCE q-error per estimation method name (SceMethodName).
    std::map<std::string, Histogram> sce_qerror;
    /// Per-executed-node q-error of est_out_card vs measured cardinality.
    Histogram card_qerror;
    /// |predicted - measured| / measured execution makespan.
    Histogram makespan_rel_error;
    /// |predicted - measured| / measured execution dollars.
    Histogram dollars_rel_error;
    /// Executed-node count per chosen physical impl (PhysicalImplName).
    std::map<std::string, int64_t> impl_chosen;
    /// Nodes whose chosen impl is/isn't the cost-model argmin when
    /// re-costed with the cardinalities execution measured.
    int64_t impl_optimal = 0;
    int64_t impl_suboptimal = 0;
    /// Mid-query re-optimization outcomes (docs/replanning.md): replans
    /// considered (trigger fired), suffixes adopted, and — audited at
    /// query completion — adopted replans whose measured suffix cost beat
    /// the pre-replan suffix estimate.
    int64_t replan_considered = 0;
    int64_t replan_triggered = 0;
    int64_t replan_improved = 0;
    int64_t replan_not_improved = 0;
  };

  AccuracyLedger() = default;
  AccuracyLedger(const AccuracyLedger&) = delete;
  AccuracyLedger& operator=(const AccuracyLedger&) = delete;

  void RecordSceQError(const std::string& method, double qerror);
  void RecordCardQError(double qerror);
  void RecordMakespanRelError(double rel_error);
  void RecordDollarsRelError(double rel_error);
  void RecordImplChoice(const std::string& impl_name, bool hindsight_optimal);
  void RecordReplanConsidered();
  void RecordReplanTriggered();
  void RecordReplanOutcome(bool improved);

  Snapshot snapshot() const;

  /// Human-readable calibration report (the shell's \accuracy command).
  std::string ToText() const;

  /// Drops everything (tests and benches that need isolated windows).
  void Reset();

  /// The process-wide ledger all hooks write to.
  static AccuracyLedger& Global();

 private:
  mutable std::mutex mu_;
  Snapshot data_;
};

}  // namespace unify

#endif  // UNIFY_COMMON_ACCURACY_H_
