#ifndef UNIFY_PERFBENCH_LAYERS_H_
#define UNIFY_PERFBENCH_LAYERS_H_

// Per-layer self time of one traced request: the program's own span tree
// (QueryResult::trace) plus the simulator spans the benchmark recorded in
// its decorator, placed on one steady clock. A simulator span counts as a
// child of the innermost program span that contains its midpoint, so an
// operator's or planner's self time never includes the stand-in model.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_lib.h"
#include "common/trace.h"
#include "timed_llm.h"

namespace unify::perfbench {

/// Layer names self time is reported under.
inline constexpr char kLayerLogical[] = "plan.logical";
inline constexpr char kLayerPhysical[] = "plan.physical";
inline constexpr char kLayerSce[] = "sce.estimate";
inline constexpr char kLayerOther[] = "engine.other";
/// Operator families (core/operators/op_families.h), reported as
/// "exec.node.<family>".
inline constexpr const char* kOperatorFamilies[] = {
    "scan", "filter", "join", "group", "aggregate", "order", "scalar"};

/// Operator family of a physical implementation name (PhysicalImplName);
/// "other" for names no family claims.
std::string FamilyOfImpl(const std::string& impl);

struct RequestLayers {
  /// Self nanoseconds per layer name.
  std::map<std::string, int64_t> self_ns;
  /// Simulator nanoseconds attributed to the request.
  int64_t sim_ns = 0;
  /// The program's root span (query or serve.query).
  int64_t root_ns = 0;
  size_t program_spans = 0;
};

/// Self time per layer of one request. `epoch_ns` places the trace's
/// relative microseconds on the benchmark clock; `sims` are the simulator
/// spans that ran on the request's behalf.
RequestLayers AnalyzeRequest(const std::vector<TraceSpan>& spans,
                             int64_t epoch_ns,
                             const std::vector<TimedLlm::SimSpan>& sims);

}  // namespace unify::perfbench

#endif  // UNIFY_PERFBENCH_LAYERS_H_
