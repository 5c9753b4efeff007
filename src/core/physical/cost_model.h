#ifndef UNIFY_CORE_PHYSICAL_COST_MODEL_H_
#define UNIFY_CORE_PHYSICAL_COST_MODEL_H_

#include <map>
#include <mutex>
#include <string>

#include "core/operators/physical.h"

namespace unify::core {

/// The unified cost model of Section VI-A: execution-time estimates for
/// both physical families.
///
///   * LLM-based implementations: cost ≈ card · μ · out_op, where μ (time
///     per output token) and out_op (average output tokens per element)
///     are *learned from historical execution data* — the `Record` path.
///   * Pre-programmed implementations: cost ≈ f_op(card) = a_op + b_op ·
///     card, calibrated the same way.
///
/// Before any history exists the model falls back to conservative
/// defaults. All estimates are deterministic.
///
/// Thread-safe: concurrent queries read estimates while completed queries
/// feed measurements back through Record(); one internal mutex covers
/// both paths.
class CostModel {
 public:
  CostModel() = default;

  /// Records one historical execution: `card` input elements cost
  /// `llm_seconds` + `cpu_seconds` (and optionally `dollars` of API
  /// spend). Estimates use running averages.
  void Record(const std::string& op_name, PhysicalImpl impl, size_t card,
              double llm_seconds, double cpu_seconds, double dollars = 0);

  /// Estimated sequential seconds for running `impl` of `op_name` over
  /// `card_in` elements: a fixed per-run cost plus a per-element cost
  /// times EffectiveCardinality (for IndexScanFilter, the ANN candidate
  /// count in args["index_candidates"]).
  double EstimateSeconds(const std::string& op_name, PhysicalImpl impl,
                         const OpArgs& args, double card_in) const;

  /// The input cardinality `impl` actually touches: IndexScanFilter only
  /// LLM-verifies its ANN candidate set (args["index_candidates"]);
  /// everything else touches `card_in`. Exposed so the optimizer can size
  /// partitions from the same number the estimates use.
  static double EffectiveCardinality(PhysicalImpl impl, const OpArgs& args,
                                     double card_in);

  /// Estimated per-element LLM seconds for `impl` (after calibration).
  double PerElementSeconds(const std::string& op_name,
                           PhysicalImpl impl) const;

  /// Estimated dollars for running `impl` over `card_in` elements
  /// (EffectiveCardinality, as for seconds) — the alternative objective
  /// of Section VI-A's footnote (optimize total cost instead of total
  /// time).
  double EstimateDollars(const std::string& op_name, PhysicalImpl impl,
                         const OpArgs& args, double card_in) const;

  /// Number of calibration records absorbed.
  int64_t records() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_;
  }

 private:
  struct Entry {
    double total_seconds = 0;
    double total_dollars = 0;
    double total_card = 0;
    double flat_seconds = 0;  ///< running average of per-run fixed cost
    int64_t runs = 0;
  };
  std::string Key(const std::string& op_name, PhysicalImpl impl) const;

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
  int64_t records_ = 0;
};

}  // namespace unify::core

#endif  // UNIFY_CORE_PHYSICAL_COST_MODEL_H_
