#ifndef UNIFY_LLM_RESILIENT_CLIENT_H_
#define UNIFY_LLM_RESILIENT_CLIENT_H_

#include <cstdint>
#include <mutex>

#include "llm/llm_client.h"

namespace unify::llm {

/// Capped exponential backoff with deterministic seeded jitter. All sleeps
/// are charged to the VIRTUAL clock (added to the final LlmResult.seconds),
/// so retried runs stay bit-for-bit reproducible.
struct RetryPolicy {
  /// Total attempts per logical call, including the first (1 = no retry).
  int max_attempts = 4;
  double initial_backoff_seconds = 0.5;
  double backoff_multiplier = 2.0;
  double max_backoff_seconds = 8.0;
  /// Jitter scales each backoff by a deterministic factor in
  /// [1 - jitter_fraction, 1 + jitter_fraction], keyed on
  /// (seed, call content, round).
  double jitter_fraction = 0.2;
};

/// Duplicate straggler calls. A hedge launches (in virtual time) once the
/// primary attempt has run for `latency_threshold_seconds`; the earlier
/// completion wins and the loser is cancelled, charged only the dollars it
/// accrued up to the winner's completion.
struct HedgePolicy {
  bool enabled = false;
  double latency_threshold_seconds = 2.0;
};

/// Per-model-tier circuit breaker. The breaker keeps its own virtual clock
/// — the cumulative observed virtual seconds of calls (and fast-fail
/// rejections) flowing through that tier — so open windows expire
/// deterministically without wall-clock time.
struct CircuitBreakerPolicy {
  bool enabled = false;
  /// Consecutive transient failures that trip the breaker open.
  int failure_threshold = 5;
  /// Virtual seconds the breaker stays open before admitting a probe.
  double open_seconds = 30.0;
  /// Virtual seconds charged by a fast-fail rejection while open.
  double fast_fail_seconds = 0.05;
};

struct ResilienceOptions {
  /// Seed of the jitter draws, independent of simulator and fault seeds.
  uint64_t seed = 4321;
  RetryPolicy retry;
  HedgePolicy hedge;
  CircuitBreakerPolicy breaker;
};

/// The resilience decorator: retries transient failures with capped
/// exponential backoff + seeded jitter, optionally hedges stragglers, and
/// fast-fails through a per-tier circuit breaker. Composes over any
/// LlmClient whose failures follow the Status contract in llm_client.h
/// (in this repo: FaultInjectingLlmClient over SimulatedLlm).
///
/// All added latency is virtual: failed attempts, backoff sleeps and
/// hedges accumulate into the returned LlmResult's `seconds`/`dollars`,
/// which the execution module then schedules — reproducibility is
/// preserved because every coin (fault fates via call.attempt, jitter via
/// the resilience seed) is content-keyed.
///
/// The decorator keeps no counts of its own: every retry, hedge and
/// breaker event is a catalog counter (`llm.retry.*`, `llm.hedge.*`,
/// `breaker.*`) recorded into the calling thread's query scope, whose
/// retry budget bounds the backoff (common/query_scope.h).
class ResilientLlmClient : public LlmClient {
 public:
  enum class BreakerState { kClosed, kOpen, kHalfOpen };

  /// `base` must outlive the decorator.
  ResilientLlmClient(LlmClient* base, ResilienceOptions options)
      : base_(base), options_(std::move(options)) {}

  LlmResult Call(const LlmCall& call) override;

  LlmUsage usage() const override { return base_->usage(); }
  void ResetUsage() override { base_->ResetUsage(); }

  const ResilienceOptions& options() const { return options_; }
  BreakerState breaker_state(ModelTier tier) const;

  /// The deterministic jittered backoff before retry round `round`
  /// (1-based: the sleep preceding the round-th retry). Exposed so tests
  /// can assert jitter determinism against an independent computation.
  double BackoffFor(const LlmCall& call, int round) const;

 private:
  struct Breaker {
    BreakerState state = BreakerState::kClosed;
    int consecutive_failures = 0;
    double now_seconds = 0;      ///< tier-local virtual clock
    double open_until_seconds = 0;
    bool probe_inflight = false;
  };

  /// One attempt round: breaker gate, base call, optional hedge race.
  /// Returns the round's result with `seconds` = the round's virtual
  /// elapsed time (hedge race resolved).
  LlmResult Attempt(const LlmCall& call, int round);

  /// Breaker bookkeeping (no-ops when disabled).
  bool BreakerAdmits(ModelTier tier, bool* is_probe);
  void BreakerRecord(ModelTier tier, bool ok, bool was_probe,
                     double observed_seconds);

  LlmClient* base_;
  ResilienceOptions options_;

  mutable std::mutex mu_;  // guards breakers_
  Breaker breakers_[2];     // indexed by ModelTier
};

}  // namespace unify::llm

#endif  // UNIFY_LLM_RESILIENT_CLIENT_H_
