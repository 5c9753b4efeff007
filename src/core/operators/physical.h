#ifndef UNIFY_CORE_OPERATORS_PHYSICAL_H_
#define UNIFY_CORE_OPERATORS_PHYSICAL_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/value/value.h"
#include "corpus/corpus.h"
#include "llm/llm_client.h"

namespace unify::core {

/// Concrete physical implementations (paper Section IV-B). Each logical
/// operator maps to one or more of these; pre-programmed implementations
/// work on surface text only, LLM-based ones understand semantics at LLM
/// cost.
enum class PhysicalImpl {
  // Scan
  kLinearScan,
  // Filter
  kExactFilter,      ///< pre-programmed: regex field extraction + compare
  kKeywordFilter,    ///< pre-programmed: stemmed keyword matching
  kLlmFilter,        ///< LLM judges each document
  kIndexScanFilter,  ///< ANN candidates by embedding distance + LLM verify
  // GroupBy / Classify
  kRuleGroupBy,  ///< keyword-lexicon classification + hash grouping
  kLlmGroupBy,
  kRuleClassify,
  kLlmClassify,
  // Count and numeric aggregation
  kPreCount,
  kLlmCount,
  kPreAggregate,  ///< exact; regex-extracts values first when given docs
  kLlmAggregate,  ///< LLM-extracts values first when given docs
  // Extract
  kRegexExtract,
  kLlmExtract,
  // Ordering / ranking
  kNumericSort,
  kLlmSort,
  kNumericTopK,
  kLlmTopK,
  // Join and set operations
  kHashJoin,
  kLlmJoin,
  kPreSetOp,
  // Scalar math and comparison
  kPreCompare,
  kPreCompute,
  // Fallbacks
  kLlmGenerate,
  kIdentity,
};

const char* PhysicalImplName(PhysicalImpl impl);

/// True when the implementation invokes the LLM.
bool ImplUsesLlm(PhysicalImpl impl);

/// True when the implementation's LLM work is per-document batches
/// (internal::LlmPerDoc) that may split into morsels over a flat document
/// list: LlmFilter, IndexScanFilter, LlmGroupBy, LlmClassify, LlmExtract,
/// LlmSort and LlmTopK. Single-call impls (LlmCount, LlmAggregate,
/// LlmGenerate) and the two-input LlmJoin run whole. The optimizer's
/// morsel estimate and the executor's runner both read this.
bool ImplSplitsPerDoc(PhysicalImpl impl);

/// True when the implementation can evaluate *semantic* conditions
/// correctly (keyword matching cannot; it only sees surface tokens).
bool ImplSemanticCapable(PhysicalImpl impl);

/// Everything a physical operator needs at execution time.
class CustomOpRegistry;  // custom_ops.h
class MorselRunner;      // below
class NumericStats;      // core/physical/numeric_stats.h
class PhraseProbes;      // core/physical/phrase_probes.h

struct ExecContext {
  const corpus::Corpus* corpus = nullptr;
  llm::LlmClient* llm = nullptr;
  /// Per-document values of the known numeric attributes, extracted once
  /// at Setup over `corpus`. Null makes the pre-programmed operators
  /// extract every value from the document text instead.
  const NumericStats* numeric_stats = nullptr;
  /// Optional user-registered operators (Section IV-B3 extensibility).
  const CustomOpRegistry* custom_ops = nullptr;
  /// Nearest-neighbour probes of the document embeddings (for
  /// IndexScanFilter and the RAG-style Generate fallback).
  const PhraseProbes* phrase_probes = nullptr;
  /// Documents per batched LLM call.
  int llm_batch_size = 16;
  /// Set by the executor for a node whose per-document LLM batches may
  /// split into morsels; null runs every batch on the calling thread.
  MorselRunner* morsels = nullptr;
};

/// Virtual-time and call accounting for one operator execution.
struct OpStats {
  double cpu_seconds = 0;
  double llm_seconds = 0;
  double llm_dollars = 0;
  int64_t llm_calls = 0;

  void Add(const OpStats& other) {
    cpu_seconds += other.cpu_seconds;
    llm_seconds += other.llm_seconds;
    llm_dollars += other.llm_dollars;
    llm_calls += other.llm_calls;
  }
};

struct OpOutput {
  Value value;
  OpStats stats;
};

/// Runs the morsels one per-document LLM call splits into (intra-operator
/// parallelism). internal::LlmPerDoc cuts its batches into PartitionDocs
/// chunks and hands them here; the executor implements it with worker
/// threads, per-morsel spans and the morsels' streams on the server pool.
class MorselRunner {
 public:
  virtual ~MorselRunner() = default;

  /// The most morsels one call splits into.
  virtual int max_morsels() const = 0;

  /// Calls `run(i)` for every chunk i, in any order and possibly
  /// concurrently; each returns morsel i's stats. When all succeed, calls
  /// `merge` once on the calling thread and returns the stats in morsel
  /// order; otherwise returns the first failure in morsel order.
  virtual StatusOr<std::vector<OpStats>> Run(
      const std::vector<DocList>& chunks,
      const std::function<StatusOr<OpStats>(size_t)>& run,
      const std::function<void()>& merge) = 0;
};

/// Operator arguments, as extracted from the matched logical
/// representation during planning (paper Section III-C, "Determining
/// Operator Input"). Keys are operator-specific; see nlq::ReductionStep.
using OpArgs = std::map<std::string, std::string>;

/// Executes one physical operator. `inputs` are the values of the plan
/// node's input variables, in order. Returns the output value plus cost
/// accounting, or an error (e.g. division by zero in Compute, missing
/// inputs) that triggers the runtime's plan-adjustment path.
StatusOr<OpOutput> ExecuteOp(const std::string& op_name, PhysicalImpl impl,
                             const OpArgs& args,
                             const std::vector<Value>& inputs,
                             ExecContext& ctx);

/// The physical implementations available for a logical operator given its
/// arguments (e.g. a numeric Filter admits kExactFilter; a semantic one
/// does not). Order is stable.
std::vector<PhysicalImpl> CandidateImpls(const std::string& op_name,
                                         const OpArgs& args);

}  // namespace unify::core

#endif  // UNIFY_CORE_OPERATORS_PHYSICAL_H_
