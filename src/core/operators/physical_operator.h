#ifndef UNIFY_CORE_OPERATORS_PHYSICAL_OPERATOR_H_
#define UNIFY_CORE_OPERATORS_PHYSICAL_OPERATOR_H_

#include <string>
#include <vector>

#include "core/operators/physical.h"

namespace unify::core {

/// A family of physical operator implementations (paper Section IV-B)
/// behind a uniform interface: execution and candidate enumeration for
/// the optimizer. Per-document LLM work splits into morsels inside the
/// batched helper (internal::LlmPerDoc), not here. Implementations are
/// stateless singletons; all methods are const and thread-safe.
class PhysicalOperator {
 public:
  virtual ~PhysicalOperator() = default;

  /// Logical operator names this family implements (registry keys).
  virtual std::vector<std::string> OpNames() const = 0;

  /// Executes `op_name` with `impl` over `inputs`. The value and the LLM
  /// calls issued are the same whether or not `ctx.morsels` is set.
  virtual StatusOr<OpOutput> Execute(const std::string& op_name,
                                     PhysicalImpl impl, const OpArgs& args,
                                     const std::vector<Value>& inputs,
                                     ExecContext& ctx) const = 0;

  /// Physical implementations available for `op_name` given its args
  /// (stable order; first is not necessarily preferred — the optimizer
  /// costs them).
  virtual std::vector<PhysicalImpl> Candidates(const std::string& op_name,
                                               const OpArgs& args) const = 0;
};

/// Looks up the operator family implementing `op_name`; nullptr when no
/// family claims it.
const PhysicalOperator* FindPhysicalOperator(const std::string& op_name);

/// Number of morsels a doc-level operator over `cardinality` documents
/// splits into: whole LLM batches are never split (that would change the
/// issued calls), so the count is min(max_partitions, ceil(card/batch)),
/// at least 1.
int PlanPartitionCount(double cardinality, int llm_batch_size,
                       int max_partitions);

/// Splits `docs` into contiguous chunks of whole LLM batches, one chunk
/// per morsel. Concatenating the chunks in order reproduces `docs`, and
/// every chunk boundary is a batch boundary, so batched LLM helpers issue
/// exactly the same calls over the chunks as over the whole list. Returns
/// a single chunk when PlanPartitionCount says 1 (or `docs` is empty).
std::vector<DocList> PartitionDocs(const DocList& docs, int llm_batch_size,
                                   int max_partitions);

}  // namespace unify::core

#endif  // UNIFY_CORE_OPERATORS_PHYSICAL_OPERATOR_H_
