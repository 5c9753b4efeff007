#ifndef UNIFY_TESTS_PLAN_UTIL_H_
#define UNIFY_TESTS_PLAN_UTIL_H_

// Test-only plans and queries that more than one test executes.

#include <string>

#include <gtest/gtest.h>

#include "core/logical/logical_plan.h"
#include "core/physical/physical_plan.h"
#include "nlq/render.h"

namespace unify::testing {

/// Scan -> {Count, Filter(views > 999999999) -> Count} -> Compute(ratio):
/// the denominator counts an empty filter result, so Compute fails with
/// every implementation and the Section V-D fallback answers the query.
inline core::PhysicalPlan ZeroDenominatorPlan() {
  using core::PhysicalImpl;
  using core::PhysicalNode;
  core::PhysicalPlan plan;
  plan.query_text =
      "What is the ratio of the number of questions that are "
      "injury-related to the number of questions with over 999999999 "
      "views?";
  plan.answer_var = "V3";
  PhysicalNode scan;
  scan.logical.op_name = "Scan";
  scan.logical.output_var = core::kDocsVar;
  scan.impl = PhysicalImpl::kLinearScan;
  PhysicalNode num;
  num.logical.op_name = "Count";
  num.logical.input_vars = {core::kDocsVar};
  num.logical.output_var = "VA";
  num.impl = PhysicalImpl::kPreCount;
  PhysicalNode den;
  den.logical.op_name = "Filter";
  den.logical.args = {{"kind", "numeric"},
                      {"attribute", "views"},
                      {"cmp", "gt"},
                      {"value", "999999999"}};
  den.logical.input_vars = {core::kDocsVar};
  den.logical.output_var = "VD";
  den.impl = PhysicalImpl::kExactFilter;
  PhysicalNode den_count;
  den_count.logical.op_name = "Count";
  den_count.logical.input_vars = {"VD"};
  den_count.logical.output_var = "VB";
  den_count.impl = PhysicalImpl::kPreCount;
  PhysicalNode ratio;
  ratio.logical.op_name = "Compute";
  ratio.logical.args = {{"expr", "ratio"}};
  ratio.logical.input_vars = {"VA", "VB"};
  ratio.logical.output_var = "V3";
  ratio.impl = PhysicalImpl::kPreCompute;
  plan.nodes = {scan, num, den, den_count, ratio};
  for (int i = 0; i < 5; ++i) plan.dag.AddNode();
  EXPECT_TRUE(plan.dag.AddEdge(0, 1).ok());
  EXPECT_TRUE(plan.dag.AddEdge(0, 2).ok());
  EXPECT_TRUE(plan.dag.AddEdge(2, 3).ok());
  EXPECT_TRUE(plan.dag.AddEdge(1, 4).ok());
  EXPECT_TRUE(plan.dag.AddEdge(3, 4).ok());
  return plan;
}

/// A count over two chained semantic filters: the first filter is a
/// materialization point whose observed cardinality exposes a skewed
/// estimator while a semantic suffix (second filter + count) is still
/// un-executed — the mid-query replan scenario.
inline std::string ChainedFilterQuery() {
  nlq::QueryAst ast;
  ast.task = nlq::TaskKind::kCount;
  ast.entity = "questions";
  ast.docset.conditions = {nlq::Condition::Semantic("ball sports"),
                           nlq::Condition::Semantic("injury")};
  return nlq::Render(ast);
}

}  // namespace unify::testing

#endif  // UNIFY_TESTS_PLAN_UTIL_H_
