#include "layers.h"

namespace unify::perfbench {
namespace {

std::string Attr(const TraceSpan& span, const std::string& key) {
  std::string value;
  for (const auto& [k, v] : span.attrs) {
    if (k == key) value = v;  // the exporters keep the last occurrence
  }
  return value;
}

}  // namespace

std::string FamilyOfImpl(const std::string& impl) {
  static const std::map<std::string, std::string> kFamilies = {
      {"LinearScan", "scan"},        {"Identity", "scan"},
      {"ExactFilter", "filter"},     {"KeywordFilter", "filter"},
      {"LlmFilter", "filter"},       {"IndexScanFilter", "filter"},
      {"RuleGroupBy", "group"},      {"LlmGroupBy", "group"},
      {"RuleClassify", "group"},     {"LlmClassify", "group"},
      {"PreCount", "aggregate"},     {"LlmCount", "aggregate"},
      {"PreAggregate", "aggregate"}, {"LlmAggregate", "aggregate"},
      {"RegexExtract", "aggregate"}, {"LlmExtract", "aggregate"},
      {"NumericSort", "order"},      {"LlmSort", "order"},
      {"NumericTopK", "order"},      {"LlmTopK", "order"},
      {"HashJoin", "join"},          {"LlmJoin", "join"},
      {"PreSetOp", "join"},          {"PreCompare", "scalar"},
      {"PreCompute", "scalar"},      {"LlmGenerate", "scalar"},
  };
  const auto it = kFamilies.find(impl);
  return it == kFamilies.end() ? "other" : it->second;
}

RequestLayers AnalyzeRequest(const std::vector<TraceSpan>& spans,
                             int64_t epoch_ns,
                             const std::vector<TimedLlm::SimSpan>& sims) {
  RequestLayers out;
  out.program_spans = spans.size();
  std::vector<Interval> abs(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    abs[i].start = epoch_ns + static_cast<int64_t>(spans[i].wall_start_us * 1e3);
    abs[i].end = epoch_ns + static_cast<int64_t>(spans[i].wall_end_us * 1e3);
  }

  std::vector<std::vector<Interval>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanId parent = spans[i].parent;
    if (parent >= 0 && static_cast<size_t>(parent) < spans.size()) {
      children[static_cast<size_t>(parent)].push_back(abs[i]);
    } else {
      out.root_ns = std::max(out.root_ns, abs[i].length());
    }
  }
  for (const auto& sim : sims) {
    out.sim_ns += sim.end_ns - sim.start_ns;
    const int64_t mid = sim.start_ns + (sim.end_ns - sim.start_ns) / 2;
    size_t innermost = spans.size();
    for (size_t i = 0; i < spans.size(); ++i) {
      if (abs[i].start <= mid && mid <= abs[i].end &&
          (innermost == spans.size() ||
           abs[i].length() < abs[innermost].length())) {
        innermost = i;
      }
    }
    if (innermost < spans.size()) {
      children[innermost].push_back({sim.start_ns, sim.end_ns});
    }
  }

  // exec.partition spans inherit their exec.node parent's family.
  auto layer_of = [&](size_t i) -> std::string {
    const std::string& name = spans[i].name;
    if (name == "plan.logical" || name == "plan.reduce" ||
        name == "plan.fallback") {
      return kLayerLogical;
    }
    if (name == "plan.physical" || name == "optimize.candidate") {
      return kLayerPhysical;
    }
    if (name == "sce.estimate") return kLayerSce;
    if (name == "exec.node") {
      return "exec.node." + FamilyOfImpl(Attr(spans[i], "impl"));
    }
    if (name == "exec.partition" && spans[i].parent >= 0 &&
        static_cast<size_t>(spans[i].parent) < spans.size() &&
        spans[static_cast<size_t>(spans[i].parent)].name == "exec.node") {
      return "exec.node." +
             FamilyOfImpl(
                 Attr(spans[static_cast<size_t>(spans[i].parent)], "impl"));
    }
    return kLayerOther;
  };
  for (size_t i = 0; i < spans.size(); ++i) {
    out.self_ns[layer_of(i)] += SelfTime(abs[i], children[i]);
  }
  return out;
}

}  // namespace unify::perfbench
