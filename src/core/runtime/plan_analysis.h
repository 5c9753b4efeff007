#ifndef UNIFY_CORE_RUNTIME_PLAN_ANALYSIS_H_
#define UNIFY_CORE_RUNTIME_PLAN_ANALYSIS_H_

#include <string>
#include <vector>

#include "core/physical/cost_model.h"
#include "core/physical/optimizer.h"
#include "core/physical/physical_plan.h"
#include "core/runtime/executor.h"
#include "core/runtime/query.h"

namespace unify::core {

/// Turns the executor's rows for one executed plan (ExecutionResult::nodes,
/// indexed like `plan.nodes` plus the trailing Section V-D fallback row)
/// into EXPLAIN ANALYZE: moves them into the plan's topological render
/// order and sets each row's depth, replanned-node marker and cardinality
/// q-error. Every executed node also records that q-error (`card.qerror`)
/// and the hindsight impl-choice audit (`plan.impl_chosen.<impl>`,
/// `plan.impl_choice.*`: is the chosen impl still the cost-model argmin
/// when re-costed with the measured input cardinality under
/// `objective`?), in render order.
std::vector<PlanNodeAnalysis> BuildPlanAnalysis(
    const PhysicalPlan& plan, std::vector<PlanNodeAnalysis> rows,
    const CostModel& cost_model, OptimizeObjective objective,
    const std::vector<ReplanRecord>& replans);

/// Audits the adopted mid-query replans of one completed query against
/// what the suffix actually cost (docs/replanning.md): an adopted replan
/// is "improved" when the measured suffix outcome beats the predicted
/// cost-to-go of keeping the old plan — suffix completion time under
/// kTime, suffix dollars under kDollars. `rows` are the executor's rows,
/// indexed like the plan's nodes. `base_seconds` is the absolute virtual
/// time execution became ready (0 for a private pool), lifting the
/// rows' query-relative node times onto the clock the record's
/// predictions use. Improved replans are counted in
/// `plan.reoptimize.improved`.
void AuditReplanOutcomes(const std::vector<ReplanRecord>& replans,
                         const std::vector<PlanNodeAnalysis>& rows,
                         OptimizeObjective objective, double base_seconds);

/// The execution timeline (ExecutionResult::timeline), rendered from the
/// executor's `rows` (indexed like the plan's nodes, plus the trailing
/// Section V-D fallback row) and `replans`: one line per row in that
/// order with its virtual interval and LLM use (an un-executed row reads
/// `[not executed]`, as in EXPLAIN ANALYZE), then one marker line per
/// mid-query replan. `base_seconds` is the absolute virtual time
/// execution became ready; markers are printed relative to it, like the
/// rows' intervals.
std::string RenderTimeline(const std::vector<PlanNodeAnalysis>& rows,
                           const std::vector<ReplanRecord>& replans,
                           double base_seconds);

}  // namespace unify::core

#endif  // UNIFY_CORE_RUNTIME_PLAN_ANALYSIS_H_
