#ifndef UNIFY_COMMON_ACCURACY_H_
#define UNIFY_COMMON_ACCURACY_H_

#include <cstdint>
#include <string>

#include "common/metrics.h"

namespace unify {

/// The prediction-accuracy report: how well the semantic cardinality
/// estimator, the per-node cardinality propagation, the cost model's
/// makespan/dollar predictions and its implementation choices matched
/// what execution measured, read from the metrics the estimator and
/// QueryPipeline record (`sce.qerror.<method>`, `card.qerror`,
/// `plan.*_rel_error`, `plan.impl_chosen.<impl>`, `plan.impl_choice.*`,
/// `plan.reoptimize.*`; docs/observability.md, "Prediction accuracy").
/// The shell's \accuracy and \replan and the /accuracy route render
/// MetricsRegistry::Global().Snapshot(); a QueryResult::metrics gives
/// one query's report.
struct AccuracyReport {
  explicit AccuracyReport(const MetricsSnapshot& snapshot);

  /// Mid-query replans considered, adopted, and (audited when their
  /// query completes) improved or not. Not improved is adopted minus
  /// improved: exact, because QueryPipeline::Analyze audits every adopted
  /// replan once.
  int64_t replans_considered = 0;
  int64_t replans_adopted = 0;
  int64_t replans_improved = 0;
  int64_t replans_not_improved = 0;

  /// The calibration report, one line per distribution or count.
  std::string text;
};

}  // namespace unify

#endif  // UNIFY_COMMON_ACCURACY_H_
