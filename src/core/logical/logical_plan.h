#ifndef UNIFY_CORE_LOGICAL_LOGICAL_PLAN_H_
#define UNIFY_CORE_LOGICAL_LOGICAL_PLAN_H_

#include <string>
#include <vector>

#include "core/operators/physical.h"
#include "exec/dag.h"

namespace unify::core {

/// Sentinel input variable denoting the raw document collection.
inline constexpr char kDocsVar[] = "$docs";

/// One operator instance in a logical plan: which logical operator, the
/// arguments extracted from the matched logical representation, and the
/// variables it consumes/produces.
struct LogicalNode {
  std::string op_name;
  OpArgs args;
  std::vector<std::string> input_vars;  ///< kDocsVar = the corpus
  std::string output_var;
  std::string output_desc;
  /// The operator must be executed with a semantics-capable physical
  /// implementation (Section VI-C: requirements bypass the cost model).
  bool requires_semantics = false;
};

/// A DAG-structured logical plan (paper Section V-C). `dag` node ids index
/// `nodes`; edges run producer → consumer.
struct LogicalPlan {
  std::vector<LogicalNode> nodes;
  exec::Dag dag;
  /// The variable holding the final answer.
  std::string answer_var;
  /// The original query (kept for Generate fallbacks and diagnostics).
  std::string query_text;

  /// A content signature used to deduplicate candidate plans.
  std::string Signature() const;
};

}  // namespace unify::core

#endif  // UNIFY_CORE_LOGICAL_LOGICAL_PLAN_H_
