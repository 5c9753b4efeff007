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

/// Hindsight impl audit: with the measured cardinalities in hand, is the
/// chosen implementation still the cost-model argmin among the
/// semantically valid candidates? Index-scan alternatives are skipped
/// unless chosen — their cost depends on an index_candidates argument the
/// optimizer only computes when it selects them.
bool HindsightOptimal(const PhysicalNode& node, const NodeExecution& actual,
                      const CostModel& cost_model,
                      OptimizeObjective objective) {
  double chosen_cost = -1;
  double best_cost = -1;
  for (PhysicalImpl alt :
       CandidateImpls(node.logical.op_name, node.logical.args)) {
    if (node.logical.requires_semantics && !ImplSemanticCapable(alt)) {
      continue;
    }
    if (alt == PhysicalImpl::kIndexScanFilter && alt != node.impl) {
      continue;
    }
    const double cost =
        objective == OptimizeObjective::kDollars
            ? cost_model.EstimateDollars(node.logical.op_name, alt,
                                         node.logical.args,
                                         actual.actual_in_card,
                                         actual.actual_out_card)
            : cost_model.EstimateSeconds(node.logical.op_name, alt,
                                         node.logical.args,
                                         actual.actual_in_card,
                                         actual.actual_out_card);
    if (alt == node.impl) chosen_cost = cost;
    if (best_cost < 0 || cost < best_cost) best_cost = cost;
  }
  // Impls outside the candidate list (custom operators) have no
  // alternative to compare against.
  if (chosen_cost < 0) return true;
  return chosen_cost <= best_cost * (1 + 1e-9);
}

}  // namespace

std::vector<PlanNodeAnalysis> BuildPlanAnalysis(
    const PhysicalPlan& plan, const PlanExecutor& executor,
    const CostModel& cost_model, OptimizeObjective objective,
    const std::vector<ReplanRecord>& replans) {
  const auto& stats = executor.node_stats();
  const auto& actuals = executor.node_executions();
  // Which replan (1-based ordinal) re-lowered each node.
  std::vector<int> replanned_by(plan.nodes.size(), 0);
  for (size_t r = 0; r < replans.size(); ++r) {
    for (int u : replans[r].relowered_nodes) {
      if (u >= 0 && static_cast<size_t>(u) < replanned_by.size()) {
        replanned_by[u] = static_cast<int>(r) + 1;
      }
    }
  }
  // Render order and indentation depth, matching Explain().
  auto order = plan.dag.TopologicalOrder();
  std::vector<int> render;
  std::vector<int> depth(plan.nodes.size(), 0);
  if (order.ok()) {
    render = *order;
    for (int u : render) {
      for (int v : plan.dag.children(u)) {
        depth[v] = std::max(depth[v], depth[u] + 1);
      }
    }
  } else {
    render.resize(plan.nodes.size());
    for (size_t i = 0; i < render.size(); ++i) {
      render[i] = static_cast<int>(i);
    }
  }
  std::vector<PlanNodeAnalysis> analysis;
  analysis.reserve(render.size() + 1);
  for (int u : render) {
    const PhysicalNode& node = plan.nodes[u];
    const NodeExecution& actual = actuals[u];
    const OpStats& st = stats[u];
    PlanNodeAnalysis a;
    a.op_name = node.logical.op_name;
    a.impl = PhysicalImplName(node.impl);
    a.output_var = node.logical.output_var;
    a.depth = depth[u];
    a.executed = actual.executed;
    a.est_in_card = node.est_in_card;
    a.est_out_card = node.est_out_card;
    a.actual_in_card = actual.actual_in_card;
    a.actual_out_card = actual.actual_out_card;
    a.est_seconds = node.est_seconds;
    a.actual_seconds = st.cpu_seconds + st.llm_seconds;
    a.virt_start = actual.virt_start;
    a.virt_finish = actual.virt_finish;
    a.queue_wait_seconds = actual.queue_wait_seconds;
    a.est_dollars = node.est_dollars;
    a.actual_dollars = st.llm_dollars;
    a.llm_calls = st.llm_calls;
    a.est_partitions = node.est_partitions;
    a.partitions = actual.partitions;
    a.adjusted = actual.adjusted;
    a.retries = actual.retries;
    a.replanned_by = replanned_by[u];
    if (actual.executed) {
      a.card_qerror = QError(a.est_out_card, a.actual_out_card);
      MetricObserve(telemetry::kMetricCardQError, a.card_qerror);
      MetricAddCounter(std::string(telemetry::kMetricImplChosen) + "." +
                       a.impl);
      MetricAddCounter(
          HindsightOptimal(node, actual, cost_model, objective)
              ? telemetry::kMetricImplChoiceOptimal
              : telemetry::kMetricImplChoiceSuboptimal);
    }
    analysis.push_back(std::move(a));
  }
  // The Section V-D fallback generation answers the query outside the
  // plan; surface it as a trailing synthetic record so EXPLAIN ANALYZE
  // shows what actually ran.
  if (executor.fallback_execution().has_value()) {
    const NodeExecution& fb = *executor.fallback_execution();
    const OpStats& st = executor.fallback_stats();
    PlanNodeAnalysis a;
    a.op_name = "Generate";
    a.impl = PhysicalImplName(PhysicalImpl::kLlmGenerate);
    a.output_var = "(fallback)";
    a.executed = true;
    a.synthetic_fallback = true;
    a.adjusted = true;
    a.actual_in_card = fb.actual_in_card;
    a.actual_out_card = fb.actual_out_card;
    a.actual_seconds = st.cpu_seconds + st.llm_seconds;
    a.virt_start = fb.virt_start;
    a.virt_finish = fb.virt_finish;
    a.queue_wait_seconds = fb.queue_wait_seconds;
    a.actual_dollars = st.llm_dollars;
    a.llm_calls = st.llm_calls;
    analysis.push_back(std::move(a));
  }
  return analysis;
}

void AuditReplanOutcomes(const std::vector<ReplanRecord>& replans,
                         const PlanExecutor& executor,
                         OptimizeObjective objective, double base_seconds) {
  const auto& stats = executor.node_stats();
  const auto& actuals = executor.node_executions();
  for (const ReplanRecord& rec : replans) {
    if (!rec.adopted) continue;
    bool complete = !rec.suffix_nodes.empty();
    double suffix_dollars = rec.decision_dollars;
    double suffix_completion = 0;
    for (int u : rec.suffix_nodes) {
      if (u < 0 || static_cast<size_t>(u) >= actuals.size() ||
          !actuals[u].executed) {
        complete = false;
        break;
      }
      suffix_dollars += stats[u].llm_dollars;
      suffix_completion = std::max(suffix_completion,
                                   actuals[u].virt_finish + base_seconds);
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
    const ReplanRecord& rec = replans[r];
    os << "replan #" << (r + 1) << " @ t="
       << FormatDouble(rec.elapsed_seconds, 1) << "s: " << rec.trigger_var
       << " observed " << FormatDouble(rec.observed_card, 0) << " vs est "
       << FormatDouble(rec.estimated_card, 0) << " (q-err "
       << FormatDouble(rec.qerror, 2) << ") -> ";
    if (rec.adopted) {
      os << "adopted (" << rec.nodes_rechosen
         << " nodes re-lowered, suffix est "
         << FormatDouble(rec.old_suffix_cost, 3) << " -> "
         << FormatDouble(rec.new_suffix_cost, 3) << ")";
    } else {
      os << "kept plan";
    }
    os << "\n";
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
