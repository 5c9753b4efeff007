#include "core/physical/optimizer.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/telemetry_names.h"
#include "core/operators/physical_operator.h"
#include "exec/schedule.h"

namespace unify::core {

namespace {

bool IsDocProducing(const std::string& op) {
  return op == "Scan" || op == "Filter" || op == "GroupBy" ||
         op == "Union" || op == "Intersection" || op == "Complementary" ||
         op == "OrderBy" || op == "Join" || op == "Identity";
}

/// Morsels the executor would split a lowered node into: per-document
/// LLM impls (ImplSplitsPerDoc) over flat inputs divide their per-element
/// cost by up to max_intra_op_parallelism whole-batch partitions. Grouped
/// inputs don't partition (the executor broadcasts per group instead).
int PartitionsFor(const OptimizerOptions& opts, const PhysicalNode& node,
                  bool in_grouped) {
  if (opts.max_intra_op_parallelism <= 1 || in_grouped ||
      !ImplSplitsPerDoc(node.impl)) {
    return 1;
  }
  const double card = CostModel::EffectiveCardinality(
      node.impl, node.logical.args, node.est_in_card);
  return PlanPartitionCount(card, opts.llm_batch_size,
                            opts.max_intra_op_parallelism);
}

/// IndexScanFilter's candidate budget for a filter expected to keep
/// `out_card` documents: index_candidate_factor times that, plus slack,
/// capped at the corpus.
double IndexCandidates(const OptimizerOptions& opts, double out_card) {
  return std::min(std::max<double>(1.0, opts.corpus_size),
                  out_card * opts.index_candidate_factor + 48);
}

/// Cardinality state after propagation.
struct CardPropagation {
  std::map<std::string, double> var_card;
  std::map<std::string, bool> var_grouped;
  /// Per node: whether any input is grouped (such a node runs per group).
  std::vector<bool> in_grouped;
};

/// Applies Section VI's per-operator output-cardinality rules in
/// topological order, writing est_in_card/est_out_card on each node. When
/// `pinned` is non-null, nodes marked there keep their existing estimates
/// and bind their output variable to the measured cardinality in
/// `observed` when one exists (the Reoptimize path) — downstream
/// un-executed nodes then propagate from measured reality instead of the
/// original guesses. Grouped-ness is structural and propagates
/// identically either way.
CardPropagation PropagateCards(PhysicalPlan& plan,
                               const std::vector<int>& order,
                               const OptimizerOptions& opts,
                               const std::map<int, double>& filter_sel,
                               const std::vector<bool>* pinned,
                               const std::map<std::string, double>* observed) {
  const double N = std::max<double>(1.0, opts.corpus_size);
  CardPropagation prop;
  std::map<std::string, double>& var_card = prop.var_card;
  std::map<std::string, bool>& var_grouped = prop.var_grouped;
  prop.in_grouped.resize(plan.nodes.size());
  var_card[kDocsVar] = N;
  const double groups_est =
      std::max<double>(2.0, static_cast<double>(opts.num_categories));
  for (int u : order) {
    PhysicalNode& node = plan.nodes[u];
    const std::string& op = node.logical.op_name;
    double in_card = 1;
    bool grouped = false;
    for (const auto& in : node.logical.input_vars) {
      auto it = var_card.find(in);
      if (it != var_card.end()) in_card = std::max(in_card, it->second);
      grouped = grouped || var_grouped[in];
    }
    prop.in_grouped[u] = grouped;
    if (op == "Scan") in_card = N;
    double out_card = 1;
    if (op == "Scan") {
      out_card = N;
    } else if (op == "Filter") {
      double sel = 0;
      if (auto it = filter_sel.find(u); it != filter_sel.end()) {
        sel = it->second;
      }
      out_card = in_card * sel;
    } else if (op == "GroupBy") {
      out_card = in_card;
      grouped = true;
    } else if (op == "Count") {
      out_card = grouped ? groups_est : 1;
    } else if (op == "Extract" || op == "Classify" || op == "OrderBy" ||
               op == "Identity") {
      out_card = in_card;
    } else if (op == "TopK") {
      double k = 5;
      if (auto it = node.logical.args.find("k");
          it != node.logical.args.end()) {
        k = ParseDouble(it->second).value_or(5);
      }
      out_card = k;
    } else if (op == "Union" || op == "Intersection" ||
               op == "Complementary" || op == "Join" || op == "Compute") {
      double a = 1;
      double b = 1;
      if (node.logical.input_vars.size() >= 2) {
        a = var_card.count(node.logical.input_vars[0])
                ? var_card[node.logical.input_vars[0]]
                : 1;
        b = var_card.count(node.logical.input_vars[1])
                ? var_card[node.logical.input_vars[1]]
                : 1;
      }
      if (op == "Union") out_card = std::min(N, a + b * (1 - a / N));
      else if (op == "Intersection") out_card = a * b / N;
      else if (op == "Complementary") out_card = a * (1 - b / N);
      else if (op == "Join") out_card = 0.5 * a;
      else out_card = grouped ? std::min(a, b) : 1;  // Compute
    } else {
      out_card = grouped ? groups_est : 1;  // aggregates, Compare, Generate
    }
    const bool pin = pinned != nullptr && (*pinned)[u];
    if (!pin) {
      node.est_in_card = in_card;
      node.est_out_card = out_card;
    }
    double bound = pin ? node.est_out_card : out_card;
    if (pin && observed != nullptr) {
      auto it = observed->find(node.logical.output_var);
      if (it != observed->end()) bound = it->second;
    }
    var_card[node.logical.output_var] = bound;
    var_grouped[node.logical.output_var] =
        grouped && IsDocProducing(op) ? true : (op == "GroupBy");
    if (op == "Count" || op == "Compute" || op == "Extract") {
      // Per-group scalars/values remain grouped for downstream arg-best.
      var_grouped[node.logical.output_var] = grouped;
    }
  }
  return prop;
}

/// The list scheduler's view of a lowered node's estimate: an LLM impl is
/// one stream of `est_seconds`, split into `est_partitions` equal morsel
/// streams when `max_parallelism` > 1 lets more than one run at once;
/// anything else is CPU time.
exec::NodeCost EstimatedCost(const PhysicalNode& node, int max_parallelism) {
  exec::NodeCost cost;
  if (!ImplUsesLlm(node.impl)) {
    cost.cpu_seconds = node.est_seconds;
    return cost;
  }
  cost.llm_seconds = node.est_seconds;
  if (node.est_partitions > 1 && max_parallelism > 1) {
    cost.llm_partitions.assign(
        static_cast<size_t>(node.est_partitions),
        node.est_seconds / static_cast<double>(node.est_partitions));
    cost.max_parallelism = max_parallelism;
  }
  return cost;
}

/// Prices every node of `plan` that `pinned` (null: none) leaves open,
/// with its impl and args, at its propagated est_in_card: est_partitions,
/// est_seconds and est_dollars. Returns their summed est_dollars, in plan
/// order.
double PriceNodes(PhysicalPlan& plan, const std::vector<bool>& in_grouped,
                  const OptimizerOptions& opts, const CostModel& cost_model,
                  const std::vector<bool>* pinned) {
  double dollars = 0;
  for (size_t u = 0; u < plan.nodes.size(); ++u) {
    if (pinned != nullptr && (*pinned)[u]) continue;
    PhysicalNode& node = plan.nodes[u];
    node.est_partitions = PartitionsFor(opts, node, in_grouped[u]);
    // est_seconds stays the sequential total: partitioning redistributes
    // the work across servers, it does not reduce it.
    node.est_seconds = cost_model.EstimateSeconds(
        node.logical.op_name, node.impl, node.logical.args,
        node.est_in_card);
    node.est_dollars = cost_model.EstimateDollars(
        node.logical.op_name, node.impl, node.logical.args,
        node.est_in_card);
    dollars += node.est_dollars;
  }
  return dollars;
}

/// The lowering pass (Section VI-C): in `order`, gives every node but the
/// Scan that `pinned` (null: none) leaves open its CheapestImpl over its
/// ValidImpls, or under kRule a seeded draw from `rule_rng`, then prices
/// the open nodes (PriceNodes, whose summed dollars it returns).
double LowerNodes(PhysicalPlan& plan, const std::vector<int>& order,
                  const std::vector<bool>& in_grouped,
                  const OptimizerOptions& opts, const CostModel& cost_model,
                  const std::vector<bool>* pinned, Rng* rule_rng) {
  for (int u : order) {
    PhysicalNode& node = plan.nodes[u];
    if ((pinned != nullptr && (*pinned)[u]) ||
        node.logical.op_name == "Scan") {
      continue;
    }
    const std::vector<PhysicalImpl> valid = ValidImpls(node.logical);
    UNIFY_CHECK(!valid.empty()) << "no impl for " << node.logical.op_name;
    if (opts.mode == PhysicalMode::kRule) {
      node.impl = valid[rule_rng->NextUint64(valid.size())];
      if (node.impl == PhysicalImpl::kIndexScanFilter) {
        // Without cardinality knowledge there is no safe cutoff: the
        // rule-based variant must verify everything.
        node.logical.args["index_candidates"] = std::to_string(
            static_cast<int64_t>(std::max<double>(1.0, opts.corpus_size)));
      }
    } else {
      PricedImpl best = CheapestImpl(
          node.logical, valid, node.est_in_card, opts.objective, cost_model,
          IndexCandidates(opts, node.est_out_card));
      node.impl = best.impl;
      if (best.args.has_value()) node.logical.args = std::move(*best.args);
    }
  }
  return PriceNodes(plan, in_grouped, opts, cost_model, pinned);
}

/// Predicted completion time of `plan`: the list scheduler run over each
/// node's estimated cost (EstimatedCost at `max_parallelism`) on a fresh
/// private pool of num_servers, never a live shared one, with every root
/// ready at `start`. Nodes marked in `sunk` (null: none) have spent their
/// cost already and count as zero.
StatusOr<double> PredictMakespan(const PhysicalPlan& plan,
                                 const OptimizerOptions& opts,
                                 int max_parallelism,
                                 const std::vector<bool>* sunk,
                                 double start) {
  std::vector<exec::NodeCost> costs(plan.nodes.size());
  for (size_t u = 0; u < plan.nodes.size(); ++u) {
    if (sunk == nullptr || !(*sunk)[u]) {
      costs[u] = EstimatedCost(plan.nodes[u], max_parallelism);
    }
  }
  exec::VirtualLlmPool pool(std::max(1, opts.num_servers));
  UNIFY_ASSIGN_OR_RETURN(
      exec::ScheduleResult sched,
      exec::ScheduleDag(plan.dag, costs, &pool, /*sequential=*/false, start));
  return sched.makespan;
}

}  // namespace

std::vector<PhysicalImpl> ValidImpls(const LogicalNode& node) {
  std::vector<PhysicalImpl> candidates =
      CandidateImpls(node.op_name, node.args);
  std::vector<PhysicalImpl> valid;
  const bool head_is_docs =
      !node.input_vars.empty() && node.input_vars[0] == kDocsVar;
  for (PhysicalImpl impl : candidates) {
    if (node.requires_semantics && !ImplSemanticCapable(impl)) continue;
    if (impl == PhysicalImpl::kIndexScanFilter && !head_is_docs) continue;
    valid.push_back(impl);
  }
  if (valid.empty()) valid = candidates;
  return valid;
}

PricedImpl CheapestImpl(const LogicalNode& node,
                        const std::vector<PhysicalImpl>& impls,
                        double in_card, OptimizeObjective objective,
                        const CostModel& cost_model,
                        std::optional<double> index_candidates) {
  PricedImpl best;
  for (PhysicalImpl impl : impls) {
    std::optional<OpArgs> sized;
    if (impl == PhysicalImpl::kIndexScanFilter &&
        index_candidates.has_value()) {
      sized = node.args;
      (*sized)["index_candidates"] = std::to_string(
          static_cast<int64_t>(std::llround(*index_candidates)));
    }
    const OpArgs& args = sized.has_value() ? *sized : node.args;
    // Candidates rank by their *sequential* cost on purpose: partitioning
    // shortens every partitionable impl's span without changing its total
    // work, and keeping the ranking independent of
    // max_intra_op_parallelism is what makes answers byte-identical
    // across parallelism settings. The parallelism speedup enters the
    // plan-level est_makespan instead.
    const double cost =
        objective == OptimizeObjective::kDollars
            ? cost_model.EstimateDollars(node.op_name, impl, args, in_card)
            : cost_model.EstimateSeconds(node.op_name, impl, args, in_card);
    if (best.cost < 0 || cost < best.cost) {
      best = PricedImpl{impl, std::move(sized), cost};
    }
  }
  return best;
}

std::string PhysicalPlan::Explain() const {
  std::ostringstream os;
  auto order = dag.TopologicalOrder();
  if (!order.ok()) return "<cyclic plan>";
  // Depth = longest path from any root, for indentation.
  std::vector<int> depth(nodes.size(), 0);
  for (int u : *order) {
    for (int v : dag.children(u)) {
      depth[v] = std::max(depth[v], depth[u] + 1);
    }
  }
  os << "PhysicalPlan (answer: " << answer_var << ", est "
     << FormatDouble(est_makespan, 1) << "s, $"
     << FormatDouble(est_total_dollars, 3) << ")\n";
  for (int u : *order) {
    const PhysicalNode& n = nodes[u];
    for (int i = 0; i < depth[u]; ++i) os << "  ";
    os << "+- " << n.logical.op_name << " <" << PhysicalImplName(n.impl)
       << ">";
    if (!n.logical.args.empty()) {
      os << " {";
      bool first = true;
      for (const auto& [k, v] : n.logical.args) {
        if (k == "query") continue;  // long; elide
        if (!first) os << ", ";
        os << k << "=" << v;
        first = false;
      }
      os << "}";
    }
    os << "  [" << StrJoin(n.logical.input_vars, ",") << "] -> "
       << n.logical.output_var << "  ~" << FormatDouble(n.est_in_card, 0)
       << "->" << FormatDouble(n.est_out_card, 0) << " rows, "
       << FormatDouble(n.est_seconds, 2) << "s";
    if (n.est_partitions > 1) os << " x" << n.est_partitions << " morsels";
    os << "\n";
  }
  return os.str();
}

PhysicalOptimizer::PhysicalOptimizer(const CostModel* cost_model,
                                     const CardinalityEstimator* estimator,
                                     OptimizerOptions options)
    : cost_model_(cost_model),
      estimator_(estimator),
      options_(options) {}

StatusOr<double> PhysicalOptimizer::Selectivity(const OpArgs& condition,
                                                const OptimizerOptions& opts,
                                                OptCtx& ctx,
                                                PhysicalPlan& plan) const {
  const double N = std::max<double>(1.0, opts.corpus_size);
  const std::string key = ConditionKey(condition);
  auto it = ctx.cache->find(key);
  if (it != ctx.cache->end()) return it->second / N;

  double card = 0;
  switch (opts.mode) {
    case PhysicalMode::kRule:
      card = 0.3 * N;  // never consulted for decisions
      break;
    case PhysicalMode::kGroundTruthCards:
      card = estimator_->TrueCardinality(condition);
      break;
    case PhysicalMode::kFull: {
      UNIFY_ASSIGN_OR_RETURN(
          SceEstimate est,
          estimator_->EstimateCondition(condition, opts.sce_method,
                                        /*salt=*/0, ctx.trace,
                                        ctx.candidate_span));
      // card_est_scale emulates a systematically skewed estimator
      // (docs/replanning.md); 1.0 — the default — is exact pass-through.
      card = est.cardinality;
      if (opts.card_est_scale != 1.0) {
        card = std::clamp(card * opts.card_est_scale, 0.0, N);
      }
      plan.optimize_llm_seconds += est.llm_seconds;
      plan.optimize_llm_calls += est.llm_calls;
      break;
    }
  }
  (*ctx.cache)[key] = card;
  return card / N;
}

StatusOr<PhysicalPlan> PhysicalOptimizer::Optimize(const LogicalPlan& lp,
                                                   Trace* trace,
                                                   SpanId parent) const {
  std::map<std::string, double> cache;
  return OptimizeCandidate(lp, options_, &cache, trace, parent);
}

StatusOr<PhysicalPlan> PhysicalOptimizer::OptimizeCandidate(
    const LogicalPlan& lp, const OptimizerOptions& opts,
    std::map<std::string, double>* cache, Trace* trace, SpanId parent) const {
  ScopedSpan span(trace, telemetry::kSpanOptimizeCandidate, parent);
  OptCtx ctx;
  ctx.cache = cache;
  ctx.trace = trace;
  ctx.candidate_span = span.id();
  StatusOr<PhysicalPlan> plan = OptimizeImpl(lp, opts, ctx);
  if (trace != nullptr) {
    if (plan.ok()) {
      span.AddAttr("nodes", static_cast<int64_t>(plan->nodes.size()));
      span.AddAttr("est_makespan", plan->est_makespan);
      span.AddAttr("est_total_dollars", plan->est_total_dollars);
      span.AddAttr("likely_incomplete", plan->likely_incomplete);
      span.AddAttr("sce_llm_seconds", plan->optimize_llm_seconds);
      span.AddAttr("sce_llm_calls", plan->optimize_llm_calls);
      for (size_t i = 0; i < plan->nodes.size(); ++i) {
        const PhysicalNode& n = plan->nodes[i];
        std::ostringstream os;
        os << n.logical.op_name << "<" << PhysicalImplName(n.impl) << "> ~"
           << FormatDouble(n.est_in_card, 0) << "->"
           << FormatDouble(n.est_out_card, 0) << " rows, "
           << FormatDouble(n.est_seconds, 2) << "s";
        span.AddAttr("node." + std::to_string(i), os.str());
      }
    } else {
      span.AddAttr("status", plan.status().ToString());
    }
  }
  return plan;
}

StatusOr<PhysicalPlan> PhysicalOptimizer::OptimizeImpl(
    const LogicalPlan& lp, const OptimizerOptions& opts, OptCtx& ctx) const {
  const double N = std::max<double>(1.0, opts.corpus_size);
  PhysicalPlan plan;
  plan.query_text = lp.query_text;
  plan.answer_var = lp.answer_var;

  // --- Materialize nodes, inserting a shared Scan for corpus access ---
  bool needs_scan = false;
  for (const auto& node : lp.nodes) {
    for (const auto& in : node.input_vars) {
      if (in == kDocsVar) needs_scan = true;
    }
  }
  int offset = 0;
  if (needs_scan) {
    PhysicalNode scan;
    scan.logical.op_name = "Scan";
    scan.logical.output_var = kDocsVar;
    scan.logical.output_desc = "the document collection";
    scan.impl = PhysicalImpl::kLinearScan;
    plan.nodes.push_back(std::move(scan));
    plan.dag.AddNode();
    offset = 1;
  }
  for (const auto& node : lp.nodes) {
    PhysicalNode pn;
    pn.logical = node;
    plan.nodes.push_back(std::move(pn));
    int id = plan.dag.AddNode();
    if (needs_scan) {
      for (const auto& in : node.input_vars) {
        if (in == kDocsVar) UNIFY_CHECK_OK(plan.dag.AddEdge(0, id));
      }
    }
  }
  for (size_t u = 0; u < lp.dag.size(); ++u) {
    for (int v : lp.dag.children(static_cast<int>(u))) {
      UNIFY_CHECK_OK(plan.dag.AddEdge(static_cast<int>(u) + offset,
                                      v + offset));
    }
  }

  // --- Filter selectivities (SCE / ground truth / default) ---
  std::map<int, double> filter_sel;
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    if (plan.nodes[i].logical.op_name != "Filter") continue;
    if (opts.mode == PhysicalMode::kRule) {
      filter_sel[static_cast<int>(i)] = 0.3;
      continue;
    }
    UNIFY_ASSIGN_OR_RETURN(
        double sel, Selectivity(plan.nodes[i].logical.args, opts, ctx, plan));
    filter_sel[static_cast<int>(i)] = std::clamp(sel, 0.0, 1.0);
  }

  // --- Operator order selection (Section VI-C): permute commuting filter
  // chains of up to kMaxOrderedFilterChain filters so the most
  // selective/cheapest filters run first ---
  if (opts.mode != PhysicalMode::kRule) {
    // Consumers per variable.
    std::map<std::string, std::vector<int>> consumers;
    for (size_t i = 0; i < plan.nodes.size(); ++i) {
      for (const auto& in : plan.nodes[i].logical.input_vars) {
        consumers[in].push_back(static_cast<int>(i));
      }
    }
    std::vector<bool> in_chain(plan.nodes.size(), false);
    for (size_t i = 0; i < plan.nodes.size(); ++i) {
      const auto& node = plan.nodes[i];
      if (node.logical.op_name != "Filter" || in_chain[i]) continue;
      // Collect the maximal filter chain starting here.
      std::vector<int> chain = {static_cast<int>(i)};
      in_chain[i] = true;
      while (true) {
        const auto& last = plan.nodes[chain.back()].logical;
        auto it = consumers.find(last.output_var);
        if (it == consumers.end() || it->second.size() != 1) break;
        int next = it->second[0];
        const auto& cand = plan.nodes[next].logical;
        if (cand.op_name != "Filter" || cand.input_vars.size() != 1 ||
            cand.input_vars[0] != last.output_var) {
          break;
        }
        chain.push_back(next);
        in_chain[next] = true;
      }
      if (chain.size() < 2 || chain.size() > kMaxOrderedFilterChain) {
        continue;
      }

      // Cost every order. A payload's valid impls depend only on whether
      // it reads the chain's head input (the corpus-head rule).
      const bool head_is_docs =
          plan.nodes[chain[0]].logical.input_vars[0] == kDocsVar;
      double in_card =
          head_is_docs ? N : 0.5 * N;  // conservative for non-corpus heads
      std::vector<int> payload(chain.begin(), chain.end());
      std::sort(payload.begin(), payload.end());
      std::map<int, std::vector<PhysicalImpl>> valid_at_head;
      std::map<int, std::vector<PhysicalImpl>> valid_below;
      for (int id : payload) {
        LogicalNode placed = plan.nodes[id].logical;
        placed.input_vars = plan.nodes[chain[0]].logical.input_vars;
        valid_at_head[id] = ValidImpls(placed);
        placed.input_vars = plan.nodes[chain[1]].logical.input_vars;
        valid_below[id] = ValidImpls(placed);
      }
      std::vector<int> best = payload;
      double best_cost = -1;
      std::vector<int> perm = payload;
      do {
        double cost = 0;
        double card = in_card;
        for (size_t pos = 0; pos < perm.size(); ++pos) {
          const double out = card * filter_sel[perm[pos]];
          const auto& valid = pos == 0 ? valid_at_head : valid_below;
          cost += CheapestImpl(plan.nodes[perm[pos]].logical,
                               valid.at(perm[pos]), card, opts.objective,
                               *cost_model_, IndexCandidates(opts, out))
                      .cost;
          card = out;
        }
        if (best_cost < 0 || cost < best_cost) {
          best_cost = cost;
          best = perm;
        }
      } while (std::next_permutation(perm.begin(), perm.end()));

      // Rewire: permute payloads across the chain's positions, keeping the
      // positional input/output variables intact.
      std::vector<LogicalNode> payloads;
      for (int id : best) payloads.push_back(plan.nodes[id].logical);
      std::map<int, double> new_sel;
      for (size_t pos = 0; pos < chain.size(); ++pos) {
        LogicalNode& dst = plan.nodes[chain[pos]].logical;
        LogicalNode src = payloads[pos];
        src.input_vars = dst.input_vars;
        src.output_var = dst.output_var;
        dst = std::move(src);
        new_sel[chain[pos]] = filter_sel[best[pos]];
      }
      for (const auto& [id, sel] : new_sel) filter_sel[id] = sel;
    }
  }

  // --- Cardinality propagation ---
  UNIFY_ASSIGN_OR_RETURN(std::vector<int> order, plan.dag.TopologicalOrder());
  CardPropagation prop = PropagateCards(plan, order, opts, filter_sel,
                                        /*pinned=*/nullptr,
                                        /*observed=*/nullptr);

  // --- Physical operator selection (Section VI-C) ---
  Rng rule_rng(HashCombine(opts.seed, StableHash64(lp.Signature())));
  plan.est_total_dollars =
      LowerNodes(plan, order, prop.in_grouped, opts, *cost_model_,
                 /*pinned=*/nullptr, &rule_rng);

  // --- Predicted makespan for plan selection ---
  UNIFY_ASSIGN_OR_RETURN(
      plan.est_makespan,
      PredictMakespan(plan, opts, opts.max_intra_op_parallelism,
                      /*sunk=*/nullptr, /*start=*/0));
  // Parallelism-independent ranking key: the same schedule with every
  // node as one sequential stream.
  plan.est_seq_makespan = plan.est_makespan;
  if (opts.max_intra_op_parallelism > 1) {
    UNIFY_ASSIGN_OR_RETURN(
        plan.est_seq_makespan,
        PredictMakespan(plan, opts, 1, /*sunk=*/nullptr, /*start=*/0));
  }
  plan.likely_incomplete = prop.var_card.count(plan.answer_var) == 0 ||
                           prop.var_grouped[plan.answer_var];
  return plan;
}

StatusOr<ReoptimizeResult> PhysicalOptimizer::Reoptimize(
    const PhysicalPlan& plan, const std::vector<bool>& executed,
    const CardinalityOverrides& observed, const OptimizerOptions& opts,
    double elapsed_seconds) const {
  if (executed.size() != plan.nodes.size()) {
    return Status::InvalidArgument("executed mask does not match plan");
  }
  ReoptimizeResult result;
  result.plan = plan;
  // Rule mode has no cost model to re-consult; the plan stands.
  if (opts.mode == PhysicalMode::kRule) return result;
  PhysicalPlan& next = result.plan;
  UNIFY_ASSIGN_OR_RETURN(std::vector<int> order, next.dag.TopologicalOrder());

  // --- Systematic estimator bias from the executed prefix ---
  // Geometric mean of observed/estimated output cardinality over executed
  // nodes. A shared estimator that over-guessed the prefix by 4x most
  // likely over-guessed the un-observed suffix conditions too; correcting
  // them by the measured ratio is the only information execution has
  // about variables it never materialized (observed variables themselves
  // are substituted exactly, never re-estimated).
  double log_ratio_sum = 0;
  int ratio_n = 0;
  for (size_t u = 0; u < next.nodes.size(); ++u) {
    if (!executed[u]) continue;
    const PhysicalNode& node = next.nodes[u];
    if (node.logical.op_name == "Scan") continue;  // exact by construction
    auto it = observed.var_cards.find(node.logical.output_var);
    if (it == observed.var_cards.end()) continue;
    if (node.est_out_card <= 0 || it->second <= 0) continue;
    log_ratio_sum += std::log(it->second / node.est_out_card);
    ++ratio_n;
  }
  if (ratio_n > 0) {
    result.est_bias = std::exp(log_ratio_sum / static_cast<double>(ratio_n));
  }

  // --- Filter selectivities: recover each node's original estimate from
  // its cardinality ratio; bias-correct only the un-executed ones ---
  std::map<int, double> filter_sel;
  for (size_t i = 0; i < next.nodes.size(); ++i) {
    const PhysicalNode& node = next.nodes[i];
    if (node.logical.op_name != "Filter") continue;
    double sel =
        node.est_in_card > 0
            ? std::clamp(node.est_out_card / node.est_in_card, 0.0, 1.0)
            : 1.0;
    if (!executed[i]) sel = std::clamp(sel * result.est_bias, 0.0, 1.0);
    filter_sel[static_cast<int>(i)] = sel;
  }

  // --- Re-propagate cardinalities from measured reality ---
  CardPropagation prop = PropagateCards(next, order, opts, filter_sel,
                                        &executed, &observed.var_cards);

  // --- Re-lower only the un-executed suffix, and re-price the impls in
  // flight under the same measured cardinalities ---
  PhysicalPlan kept = next;
  const double kept_dollars =
      PriceNodes(kept, prop.in_grouped, opts, *cost_model_, &executed);
  const double new_dollars =
      LowerNodes(next, order, prop.in_grouped, opts, *cost_model_,
                 &executed, /*rule_rng=*/nullptr);
  for (size_t u = 0; u < next.nodes.size(); ++u) {
    if (next.nodes[u].impl != kept.nodes[u].impl ||
        next.nodes[u].logical.args != kept.nodes[u].logical.args) {
      result.relowered_nodes.push_back(static_cast<int>(u));
    }
  }
  if (opts.objective == OptimizeObjective::kDollars) {
    result.old_suffix_cost = kept_dollars;
    result.new_suffix_cost = new_dollars;
    return result;
  }

  // --- Suffix completion times from the already-elapsed virtual time:
  // executed nodes cost nothing (their time is sunk in
  // `elapsed_seconds`), every root becomes ready at the elapsed clock ---
  UNIFY_ASSIGN_OR_RETURN(
      result.old_suffix_cost,
      PredictMakespan(kept, opts, opts.max_intra_op_parallelism, &executed,
                      elapsed_seconds));
  UNIFY_ASSIGN_OR_RETURN(
      result.new_suffix_cost,
      PredictMakespan(next, opts, opts.max_intra_op_parallelism, &executed,
                      elapsed_seconds));
  return result;
}

StatusOr<PhysicalPlan> PhysicalOptimizer::SelectBest(
    const std::vector<LogicalPlan>& plans, Trace* trace,
    SpanId parent) const {
  return SelectBest(plans, options_, trace, parent);
}

StatusOr<PhysicalPlan> PhysicalOptimizer::SelectBest(
    const std::vector<LogicalPlan>& plans, const OptimizerOptions& opts,
    Trace* trace, SpanId parent) const {
  ScopedSpan span(trace, telemetry::kSpanPlanPhysical, parent);
  if (trace != nullptr) {
    span.AddAttr("candidates", static_cast<int64_t>(plans.size()));
  }
  if (plans.empty()) {
    return Status::InvalidArgument("no candidate plans");
  }
  // A call-local cache shares SCE results across this query's candidates.
  std::map<std::string, double> cache;
  std::optional<PhysicalPlan> best;
  double accumulated_llm_seconds = 0;
  int64_t accumulated_llm_calls = 0;
  Status first_failure;
  for (const auto& lp : plans) {
    auto optimized = OptimizeCandidate(lp, opts, &cache, trace, span.id());
    if (!optimized.ok()) {  // a failed candidate is skipped
      if (first_failure.ok()) first_failure = optimized.status();
      continue;
    }
    accumulated_llm_seconds += optimized->optimize_llm_seconds;
    accumulated_llm_calls += optimized->optimize_llm_calls;
    // Prefer structurally complete plans; among equals, the cheapest.
    auto better = [&opts](const PhysicalPlan& a, const PhysicalPlan& b) {
      if (a.likely_incomplete != b.likely_incomplete) {
        return !a.likely_incomplete;
      }
      if (opts.objective == OptimizeObjective::kDollars) {
        return a.est_total_dollars < b.est_total_dollars;
      }
      // Ranking by the sequential makespan keeps the chosen plan (and so
      // the answer) independent of max_intra_op_parallelism.
      return a.est_seq_makespan < b.est_seq_makespan;
    };
    if (!best.has_value() || better(*optimized, *best)) {
      best = std::move(optimized).value();
    }
    if (opts.mode == PhysicalMode::kRule) break;  // no plan selection
  }
  if (!best.has_value()) {
    // Keep the first failure's code: a transient LLM failure (an open
    // circuit breaker during SCE sampling) stays transient.
    return Status(first_failure.code(),
                  "all candidate plans failed to optimize: " +
                      first_failure.message());
  }
  best->optimize_llm_seconds = accumulated_llm_seconds;
  best->optimize_llm_calls = accumulated_llm_calls;
  if (trace != nullptr) {
    span.AddAttr("llm_seconds", accumulated_llm_seconds);
    span.AddAttr("llm_calls", accumulated_llm_calls);
    span.AddAttr("chosen_est_makespan", best->est_makespan);
    span.AddAttr("chosen_est_dollars", best->est_total_dollars);
  }
  return *best;
}

}  // namespace unify::core
