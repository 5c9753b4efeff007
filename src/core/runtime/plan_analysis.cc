#include "core/runtime/plan_analysis.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/metrics.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "common/telemetry_names.h"
#include "core/operators/physical.h"

namespace unify::core {

namespace {

/// Hindsight impl audit: with the measured input cardinality in hand, is
/// the chosen implementation still the cost-model argmin among the valid
/// ones (ValidImpls, priced by CheapestImpl under the query's objective)?
/// Index-scan alternatives are skipped unless chosen — their cost depends
/// on an index_candidates argument the optimizer only computes when it
/// selects them.
bool HindsightOptimal(const PhysicalNode& node, double actual_in_card,
                      const CostModel& cost_model,
                      OptimizeObjective objective) {
  std::vector<PhysicalImpl> alternatives = ValidImpls(node.logical);
  std::erase_if(alternatives, [&node](PhysicalImpl alt) {
    return alt == PhysicalImpl::kIndexScanFilter && alt != node.impl;
  });
  // Impls outside the valid list (custom operators) have no alternative
  // to compare against.
  if (std::find(alternatives.begin(), alternatives.end(), node.impl) ==
      alternatives.end()) {
    return true;
  }
  const double best = CheapestImpl(node.logical, alternatives,
                                   actual_in_card, objective, cost_model)
                          .cost;
  const double chosen = CheapestImpl(node.logical, {node.impl},
                                     actual_in_card, objective, cost_model)
                            .cost;
  return chosen <= best * (1 + 1e-9);
}

}  // namespace

std::vector<PlanNodeAnalysis> BuildPlanAnalysis(
    const PhysicalPlan& plan, std::vector<PlanNodeAnalysis> rows,
    const CostModel& cost_model, OptimizeObjective objective,
    const std::vector<ReplanRecord>& replans) {
  const size_t n = plan.nodes.size();
  // Which replan (1-based ordinal) re-lowered each node.
  for (size_t r = 0; r < replans.size(); ++r) {
    for (int u : replans[r].relowered_nodes) {
      if (u >= 0 && static_cast<size_t>(u) < n) {
        rows[u].replanned_by = static_cast<int>(r) + 1;
      }
    }
  }
  // Render order and indentation depth, matching Explain().
  auto order = plan.dag.TopologicalOrder();
  std::vector<int> render;
  if (order.ok()) {
    render = *order;
    for (int u : render) {
      for (int v : plan.dag.children(u)) {
        rows[v].depth = std::max(rows[v].depth, rows[u].depth + 1);
      }
    }
  } else {
    render.resize(n);
    for (size_t i = 0; i < n; ++i) render[i] = static_cast<int>(i);
  }
  std::vector<PlanNodeAnalysis> analysis;
  analysis.reserve(rows.size());
  for (int u : render) {
    PlanNodeAnalysis& a = rows[u];
    if (a.executed) {
      a.card_qerror = QError(a.est_out_card, a.actual_out_card);
      MetricObserve(telemetry::kMetricCardQError, a.card_qerror);
      MetricAddCounter(std::string(telemetry::kMetricImplChosen) + "." +
                       a.impl);
      MetricAddCounter(
          HindsightOptimal(plan.nodes[u], a.actual_in_card, cost_model,
                           objective)
              ? telemetry::kMetricImplChoiceOptimal
              : telemetry::kMetricImplChoiceSuboptimal);
    }
    analysis.push_back(std::move(a));
  }
  // The Section V-D fallback's synthetic row, when it answered, trails.
  if (rows.size() > n) analysis.push_back(std::move(rows.back()));
  return analysis;
}

void AuditReplanOutcomes(const std::vector<ReplanRecord>& replans,
                         const std::vector<PlanNodeAnalysis>& rows,
                         OptimizeObjective objective, double base_seconds) {
  for (const ReplanRecord& rec : replans) {
    if (!rec.adopted) continue;
    bool complete = !rec.suffix_nodes.empty();
    double suffix_dollars = rec.decision_dollars;
    double suffix_completion = 0;
    for (int u : rec.suffix_nodes) {
      if (u < 0 || static_cast<size_t>(u) >= rows.size() ||
          !rows[u].executed) {
        complete = false;
        break;
      }
      suffix_dollars += rows[u].actual_dollars;
      suffix_completion =
          std::max(suffix_completion, rows[u].virt_finish + base_seconds);
    }
    // The predicted costs-to-go in the record are on the execution
    // pool's absolute clock for time, plain dollars otherwise; compare
    // the measured suffix against the predicted cost of keeping the old
    // plan. An aborted suffix never counts as an improvement.
    bool improved = false;
    if (complete) {
      improved = objective == OptimizeObjective::kDollars
                     ? suffix_dollars < rec.old_suffix_cost
                     : suffix_completion < rec.old_suffix_cost;
    }
    if (improved) MetricAddCounter(telemetry::kMetricReplanImproved);
  }
}

std::string ReplanRecord::Sentence(int ordinal) const {
  std::ostringstream os;
  os << "replan ";
  if (ordinal > 0) os << "#" << ordinal << " ";
  os << "@ t=" << FormatDouble(elapsed_seconds, 1) << "s: " << trigger_var
     << " observed " << FormatDouble(observed_card, 0) << " vs est "
     << FormatDouble(estimated_card, 0) << " (q-err "
     << FormatDouble(qerror, 2) << ") -> ";
  if (adopted) {
    os << "adopted (" << nodes_rechosen << " nodes re-lowered, suffix est "
       << FormatDouble(old_suffix_cost, 3) << " -> "
       << FormatDouble(new_suffix_cost, 3) << ")";
  } else {
    os << "kept plan";
  }
  return os.str();
}

std::string RenderTimeline(const std::vector<PlanNodeAnalysis>& rows,
                           const std::vector<ReplanRecord>& replans,
                           double base_seconds) {
  std::string timeline;
  char line[256];
  for (const PlanNodeAnalysis& row : rows) {
    if (row.executed) {
      std::snprintf(line, sizeof(line),
                    "t=%8.2fs..%8.2fs  %-10s <%s> -> %s  (llm %.2fs, %lld "
                    "calls)\n",
                    row.virt_start, row.virt_finish, row.op_name.c_str(),
                    row.impl.c_str(), row.output_var.c_str(), row.llm_seconds,
                    static_cast<long long>(row.llm_calls));
    } else {
      std::snprintf(line, sizeof(line),
                    "t=%9s..%9s  %-10s <%s> -> %s  [not executed]\n", "-",
                    "-", row.op_name.c_str(), row.impl.c_str(),
                    row.output_var.c_str());
    }
    timeline += line;
  }
  for (size_t r = 0; r < replans.size(); ++r) {
    const ReplanRecord& rec = replans[r];
    std::snprintf(line, sizeof(line),
                  "t=%8.2fs  -- replan #%zu after %s: observed %.0f vs "
                  "est %.0f (q-err %.1f) -> %s\n",
                  rec.elapsed_seconds - base_seconds, r + 1,
                  rec.trigger_var.c_str(), rec.observed_card,
                  rec.estimated_card, rec.qerror,
                  rec.adopted ? "suffix re-lowered" : "kept plan");
    timeline += line;
  }
  return timeline;
}

std::string QueryResult::explain_analyze() const {
  if (plan_analysis.empty()) return "";
  std::ostringstream os;
  os << "EXPLAIN ANALYZE (makespan est " << FormatDouble(
         predicted_exec_seconds, 1)
     << "s -> actual " << FormatDouble(exec_seconds, 1) << "s";
  if (exec_seconds > 0) {
    const double rel = (predicted_exec_seconds - exec_seconds) /
                       exec_seconds;
    char relbuf[32];
    std::snprintf(relbuf, sizeof(relbuf), "%+.1f%%", 100.0 * rel);
    os << " (" << relbuf << ")";
  }
  os << ", $ est " << FormatDouble(predicted_exec_dollars, 3)
     << " -> actual " << FormatDouble(exec_dollars, 3) << ")\n";
  // Replan boundaries: one line per mid-query re-optimization, before
  // the node rows its markers refer to (docs/replanning.md).
  for (size_t r = 0; r < replans.size(); ++r) {
    os << replans[r].Sentence(static_cast<int>(r) + 1) << "\n";
  }
  for (const PlanNodeAnalysis& a : plan_analysis) {
    for (int i = 0; i < a.depth; ++i) os << "  ";
    os << "+- " << a.op_name << " <" << a.impl << "> -> " << a.output_var;
    if (!a.executed) {
      os << "  [not executed]\n";
      continue;
    }
    if (a.synthetic_fallback) {
      os << "  [fallback] actual " << FormatDouble(a.actual_in_card, 0)
         << "->" << FormatDouble(a.actual_out_card, 0) << " | "
         << FormatDouble(a.actual_seconds, 2) << "s | $ "
         << FormatDouble(a.actual_dollars, 3) << "\n";
      continue;
    }
    os << "  card est " << FormatDouble(a.est_in_card, 0) << "->"
       << FormatDouble(a.est_out_card, 0) << " actual "
       << FormatDouble(a.actual_in_card, 0) << "->"
       << FormatDouble(a.actual_out_card, 0) << " (q-err "
       << FormatDouble(a.card_qerror, 2) << ")";
    os << " | est " << FormatDouble(a.est_seconds, 2) << "s actual "
       << FormatDouble(a.actual_seconds, 2) << "s";
    if (a.queue_wait_seconds > 0.005) {
      os << " (+" << FormatDouble(a.queue_wait_seconds, 2) << "s wait)";
    }
    os << " | $ est " << FormatDouble(a.est_dollars, 3) << " actual "
       << FormatDouble(a.actual_dollars, 3);
    if (a.partitions > 1 || a.est_partitions > 1) {
      os << " | x" << a.partitions << " morsels (est x" << a.est_partitions
         << ")";
    }
    if (a.adjusted) {
      os << " | adjusted (" << a.retries << " retries)";
    }
    if (a.replanned_by > 0) {
      os << " | replanned (#" << a.replanned_by << ")";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace unify::core
