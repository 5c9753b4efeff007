#ifndef UNIFY_UNIFY_API_H_
#define UNIFY_UNIFY_API_H_

/// The umbrella header of Unify's stable public surface. Applications,
/// examples and benchmarks should include this single header; everything
/// it re-exports is documented in docs/api.md and kept
/// source-compatible across versions:
///
///   * corpus loading and answers    (corpus/corpus.h, corpus/answer.h)
///   * LLM client interfaces         (llm/llm_client.h, llm/sim_llm.h)
///   * the shared answer cache       (llm/shared_cache.h — sharded
///                                    bounded CLOCK + in-flight coalescing
///                                    across concurrent queries,
///                                    see docs/caching.md)
///   * fault injection + resilience  (llm/fault_client.h,
///                                    llm/resilient_client.h — retry /
///                                    hedge / circuit-breaker policies,
///                                    see docs/resilience.md)
///   * the system + options          (core/runtime/unify.h)
///   * the query request/response    (core/runtime/query.h)
///     — every per-query knob lives in QueryRequest::Overrides and
///       resolves against UnifyOptions through one helper
///       (Overrides::ResolveAgainst); answers are byte-identical at
///       every max_intra_op_parallelism setting, see docs/api.md
///   * the concurrent serving layer  (core/runtime/service.h)
///   * custom operator registration  (core/operators/custom_ops.h)
///   * status/error taxonomy         (common/status.h)
///   * observability: metrics/traces (common/metrics.h, common/trace.h,
///                                    common/telemetry_names.h)
///
/// Headers NOT re-exported here — the planner, optimizer, SCE, executor,
/// index and embedding internals — are implementation detail: they stay
/// includable for ablation studies and tests but may change between
/// versions without notice.

#include "common/metrics.h"
#include "common/status.h"
#include "common/telemetry_names.h"
#include "common/trace.h"
#include "core/operators/custom_ops.h"
#include "core/runtime/query.h"
#include "core/runtime/service.h"
#include "core/runtime/unify.h"
#include "corpus/answer.h"
#include "corpus/corpus.h"
#include "corpus/dataset_profile.h"
#include "llm/fault_client.h"
#include "llm/llm_client.h"
#include "llm/resilient_client.h"
#include "llm/shared_cache.h"
#include "llm/sim_llm.h"

namespace unify {

/// The stable spellings, lifted to the top-level namespace so application
/// code reads `unify::UnifySystem` rather than `unify::core::UnifySystem`.
using core::QueryPhase;
using core::QueryPhaseName;
using core::QueryRequest;
using core::QueryResult;
using core::ResolvedQueryOptions;
using core::UnifyOptions;
using core::UnifyService;
using core::UnifySystem;
using core::OptimizeObjective;
using core::PhysicalMode;
/// Shared-LLM-cache state (SharedLlmCache::stats(), UnifyService::Stats).
using llm::CacheStats;

}  // namespace unify

#endif  // UNIFY_UNIFY_API_H_
