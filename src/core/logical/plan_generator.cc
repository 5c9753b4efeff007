#include "core/logical/plan_generator.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/telemetry_names.h"

namespace unify::core {

namespace {

/// Rerank categories, best first (paper Section V-A).
int DegreeRank(const std::string& degree) {
  if (degree == "fully") return 0;
  if (degree == "partially") return 1;
  return 2;
}

}  // namespace

PlanGenerator::PlanGenerator(const OperatorRegistry* registry,
                             const OperatorMatcher* matcher,
                             llm::LlmClient* llm, Options options)
    : registry_(registry),
      matcher_(matcher),
      llm_(llm),
      options_(options) {}

llm::LlmResult PlanGenerator::CallLlm(llm::LlmCall call,
                                      Result& result) const {
  call.tier = llm::ModelTier::kPlanner;
  llm::LlmResult r = llm_->Call(call);
  result.planning_seconds += r.seconds;
  result.llm_calls += 1;
  // Status contract (llm_client.h): a failure is accounted (time above)
  // and callers see empty fields, which the DFS treats as "this path
  // yields nothing" (docs/resilience.md, "Planning").
  return r;
}

StatusOr<PlanGenerator::Result> PlanGenerator::Generate(
    const std::string& query, Trace* trace, SpanId parent) const {
  Result result;
  GenCtx ctx;
  ctx.trace = trace;
  ScopedSpan span(trace, telemetry::kSpanPlanLogical, parent);

  SearchState state;
  state.query = query;
  state.plan.query_text = query;
  state.vars[kDocsVar] = "the document collection";
  state.span = span.id();
  Dfs(std::move(state), 0, ctx, result);

  if (result.plans.empty()) {
    ScopedSpan fallback(trace, telemetry::kSpanPlanFallback, span.id());
    // Error handling (Section V-D): no reduction path fully decomposed the
    // query. The LLM picks one of two strategies for the remainder:
    // (1) a Generate operator over retrieved context (RAG fallback), or
    // (2) LLM-generated code solving the task directly.
    result.used_fallback = true;
    llm::LlmCall choose;
    choose.type = llm::PromptType::kChooseFallbackStrategy;
    choose.fields["query"] = query;
    std::string strategy =
        CallLlm(std::move(choose), result).Get("strategy", "rag");

    LogicalPlan plan;
    plan.query_text = query;
    LogicalNode node;
    node.op_name = "Generate";
    node.args["query"] = query;
    node.args["strategy"] = strategy;
    if (strategy == "rag") node.args["retrieve_k"] = "100";
    node.input_vars = {kDocsVar};
    node.output_var = "V1";
    node.output_desc = "a generated answer";
    node.requires_semantics = true;
    plan.nodes.push_back(std::move(node));
    plan.dag.AddNode();
    plan.answer_var = "V1";
    result.plans.push_back(std::move(plan));
    fallback.AddAttr("strategy", strategy);
  }

  span.AddAttr("plans", static_cast<int64_t>(result.plans.size()));
  span.AddAttr("llm_calls", result.llm_calls);
  span.AddAttr("planning_seconds", result.planning_seconds);
  span.AddAttr("backtracks", result.backtracks);
  span.AddAttr("widenings", result.widenings);
  span.AddAttr("unresolved",
               static_cast<int64_t>(result.unresolved_queries.size()));
  span.AddAttr("used_fallback", result.used_fallback);
  MetricAddCounter(telemetry::kMetricPlanBacktracks, result.backtracks);
  MetricAddCounter(telemetry::kMetricPlanWidenings, result.widenings);
  MetricAddCounter(telemetry::kMetricPlanUnresolved,
                   static_cast<double>(result.unresolved_queries.size()));
  return result;
}

void PlanGenerator::AddNodeWithDeps(SearchState& state, LogicalNode node,
                                    Result& result) const {
  int new_id = state.plan.dag.AddNode();
  state.plan.nodes.push_back(node);
  UNIFY_CHECK(state.plan.nodes.size() == state.plan.dag.size());

  // Dependency check (Section V-C): walk preceding operators in reverse.
  // A predecessor that already reaches a confirmed prerequisite is a
  // prerequisite by transitivity — no LLM call needed. Otherwise ask the
  // LLM whether its output feeds this operator, and add a direct edge.
  std::vector<int> confirmed;
  const std::string inputs = StrJoin(node.input_vars, ",");
  for (int i = new_id - 1; i >= 0; --i) {
    bool transitive = false;
    for (int p : confirmed) {
      if (state.plan.dag.Reaches(i, p)) {
        transitive = true;
        break;
      }
    }
    if (transitive) continue;
    llm::LlmCall call;
    call.type = llm::PromptType::kDependencyCheck;
    call.fields["producer_output"] = state.plan.nodes[i].output_var;
    call.fields["consumer_inputs"] = inputs;
    llm::LlmResult r = CallLlm(std::move(call), result);
    if (r.Get("depends") == "true") {
      confirmed.push_back(i);
      UNIFY_CHECK_OK(state.plan.dag.AddEdge(i, new_id));
    }
  }
}

void PlanGenerator::Dfs(SearchState state, int depth, GenCtx& ctx,
                        Result& result) const {
  if (static_cast<int>(result.plans.size()) >= options_.n_c) return;
  if (depth > options_.max_steps) return;
  if (result.llm_calls > options_.max_llm_calls) return;

  // --- End of reduction (Section V-B) ---
  {
    llm::LlmCall call;
    call.type = llm::PromptType::kSimpleQuestion;
    call.fields["query"] = state.query;
    llm::LlmResult r = CallLlm(std::move(call), result);
    if (r.Get("final") == "true") {
      if (state.plan.nodes.empty()) return;  // nothing to execute
      std::string final_var = r.Get("final_var");
      state.plan.answer_var =
          final_var.empty() ? state.plan.nodes.back().output_var : final_var;
      if (ctx.seen_signatures.insert(state.plan.Signature()).second) {
        result.plans.push_back(state.plan);
      }
      return;
    }
  }

  // --- Semantic parsing + operator matching stage 1 (Section V-A) ---
  std::string query_lr;
  {
    llm::LlmCall call;
    call.type = llm::PromptType::kSemanticParse;
    call.fields["query"] = state.query;
    query_lr = CallLlm(std::move(call), result).Get("lr", state.query);
  }
  auto matches = matcher_->TopK(query_lr, static_cast<size_t>(options_.k));
  if (matches.empty()) return;
  size_t first_round = matches.size();

  // --- Stage 2: LLM reranking with the available-variable set ---
  std::vector<std::string> degrees(matches.size(), "not");
  if (options_.use_rerank) {
    llm::LlmCall call;
    call.type = llm::PromptType::kRerankOperators;
    call.fields["query"] = state.query;
    std::string vars;
    for (const auto& [name, desc] : state.vars) {
      vars += name + ": " + desc + "\n";
    }
    call.fields["variables"] = vars;
    for (const auto& m : matches) call.items.push_back(m.op_name);
    llm::LlmResult r = CallLlm(std::move(call), result);
    for (size_t i = 0; i < r.items.size() && i < matches.size(); ++i) {
      auto parts = StrSplit(r.items[i], '\t');
      if (parts.size() == 2) degrees[i] = parts[1];
    }
  }
  std::vector<size_t> order(matches.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    int ra = DegreeRank(degrees[a]);
    int rb = DegreeRank(degrees[b]);
    if (ra != rb) return ra < rb;
    return matches[a].distance < matches[b].distance;
  });

  // --- Query reduction over ranked candidates, with branch budget τ ---
  int branch_budget = std::max(
      1, static_cast<int>(std::ceil(options_.tau *
                                    static_cast<double>(matches.size()))));
  int branches_tried = 0;
  bool widened = false;

retry_with_wider_candidates:
  for (size_t idx : order) {
    // Once at least one plan exists, τ limits how many alternatives each
    // search node explores (diversity vs. depth, Section V-D).
    if (branches_tried >= branch_budget && !result.plans.empty()) break;
    if (static_cast<int>(result.plans.size()) >= options_.n_c) return;
    if (result.llm_calls > options_.max_llm_calls) return;
    const std::string& op_name = matches[idx].op_name;

    for (int variant = 0; variant < options_.max_variants; ++variant) {
      llm::LlmCall call;
      call.type = llm::PromptType::kReduceQuery;
      call.fields["query"] = state.query;
      call.fields["operator"] = op_name;
      call.fields["variant"] = std::to_string(variant);
      call.fields["next_var"] =
          "V" + std::to_string(state.var_counter + 1);
      llm::LlmResult r = CallLlm(std::move(call), result);
      if (r.Get("applicable") != "true") break;
      ++branches_tried;

      // Available-variable gating (Section V-A): every input must already
      // be a known variable.
      std::vector<std::string> inputs = StrSplit(r.Get("inputs"), ',');
      bool inputs_ok = true;
      for (const auto& in : inputs) {
        if (state.vars.count(in) == 0) inputs_ok = false;
      }
      if (!inputs_ok) continue;

      LogicalNode node;
      node.op_name = r.Get("op", op_name);
      node.input_vars = inputs;
      node.output_var = "V" + std::to_string(state.var_counter + 1);
      node.output_desc = r.Get("output_desc");
      node.requires_semantics = r.Get("requires_semantics") == "true";
      for (const auto& [key, value] : r.fields) {
        if (StartsWith(key, "arg.")) node.args[key.substr(4)] = value;
      }

      const size_t plans_before = result.plans.size();
      ScopedSpan step(ctx.trace, telemetry::kSpanPlanReduce, state.span);
      step.AddAttr("op", node.op_name);
      step.AddAttr("depth", depth);
      step.AddAttr("variant", variant);
      step.AddAttr("output_var", node.output_var);
      MetricAddCounter(telemetry::kMetricPlanReductions);

      SearchState child = state;
      child.var_counter += 1;
      child.query = r.Get("reduced_query");
      child.vars[node.output_var] = node.output_desc;
      child.span = step.id();
      AddNodeWithDeps(child, std::move(node), result);
      Dfs(std::move(child), depth + 1, ctx, result);
      // Backtrack accounting: a reduction whose whole subtree produced no
      // new complete plan was searched in vain.
      if (result.plans.size() == plans_before) {
        result.backtracks += 1;
        step.AddAttr("backtracked", true);
      }
      if (static_cast<int>(result.plans.size()) >= options_.n_c) return;
      if (branches_tried >= branch_budget && !result.plans.empty()) break;
    }
  }

  // Error handling (Section V-D): if none of the embedding candidates
  // could reduce the query, widen the candidate set once before giving up
  // on this branch.
  if (branches_tried == 0 && !widened &&
      result.llm_calls <= options_.max_llm_calls) {
    widened = true;
    result.widenings += 1;
    matches = matcher_->TopK(query_lr, static_cast<size_t>(options_.k) * 4);
    if (matches.size() > first_round) {
      // Rerank only the new tail (the head was already judged "not").
      std::vector<OperatorMatcher::Match> tail(
          matches.begin() + static_cast<long>(first_round), matches.end());
      llm::LlmCall call;
      call.type = llm::PromptType::kRerankOperators;
      call.fields["query"] = state.query;
      for (const auto& m : tail) call.items.push_back(m.op_name);
      llm::LlmResult r = CallLlm(std::move(call), result);
      matches = std::move(tail);
      degrees.assign(matches.size(), "not");
      for (size_t i = 0; i < r.items.size() && i < matches.size(); ++i) {
        auto parts = StrSplit(r.items[i], '\t');
        if (parts.size() == 2) degrees[i] = parts[1];
      }
      order.resize(matches.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        int ra = DegreeRank(degrees[a]);
        int rb = DegreeRank(degrees[b]);
        if (ra != rb) return ra < rb;
        return matches[a].distance < matches[b].distance;
      });
      branch_budget = static_cast<int>(matches.size());
      goto retry_with_wider_candidates;
    }
  }

  // Dead end even after widening: collect the unreduced query state so
  // operators tailored to it can be added later (Section V-D).
  if (branches_tried == 0) {
    result.unresolved_queries.push_back(state.query);
  }
}

}  // namespace unify::core
