#ifndef UNIFY_CORE_RUNTIME_PLAN_ANALYSIS_H_
#define UNIFY_CORE_RUNTIME_PLAN_ANALYSIS_H_

#include <vector>

#include "core/physical/cost_model.h"
#include "core/physical/optimizer.h"
#include "core/physical/physical_plan.h"
#include "core/runtime/executor.h"
#include "core/runtime/query.h"

namespace unify::core {

/// Builds the EXPLAIN ANALYZE records for one executed plan: the
/// optimizer's estimates next to what execution measured, in the plan's
/// topological render order, with replanned-node markers and (when the
/// Section V-D fallback produced the answer) a trailing synthetic record
/// for the fallback generation. Every executed node also records its
/// cardinality q-error (`card.qerror`) and the hindsight impl-choice
/// audit (`plan.impl_chosen.<impl>`, `plan.impl_choice.*`: is the chosen
/// impl still the cost-model argmin when re-costed with measured
/// cardinalities under `objective`?).
std::vector<PlanNodeAnalysis> BuildPlanAnalysis(
    const PhysicalPlan& plan, const PlanExecutor& executor,
    const CostModel& cost_model, OptimizeObjective objective,
    const std::vector<ReplanRecord>& replans);

/// Audits the adopted mid-query replans of one completed query against
/// what the suffix actually cost (docs/replanning.md): an adopted replan
/// is "improved" when the measured suffix outcome beats the predicted
/// cost-to-go of keeping the old plan — suffix completion time under
/// kTime, suffix dollars under kDollars. `base_seconds` is the absolute
/// virtual time execution became ready (0 for a private pool), lifting
/// the executor's query-relative node times onto the clock the record's
/// predictions use. Improved replans are counted in
/// `plan.reoptimize.improved`.
void AuditReplanOutcomes(const std::vector<ReplanRecord>& replans,
                         const PlanExecutor& executor,
                         OptimizeObjective objective, double base_seconds);

}  // namespace unify::core

#endif  // UNIFY_CORE_RUNTIME_PLAN_ANALYSIS_H_
