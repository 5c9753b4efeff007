#ifndef UNIFY_LLM_FAULT_CLIENT_H_
#define UNIFY_LLM_FAULT_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "llm/llm_client.h"

namespace unify::llm {

/// Per-call probabilities of each injected transient fault kind. The three
/// faults are mutually exclusive per attempt (one coin, ordered thresholds)
/// so rates add up; their sum must stay <= 1.
struct FaultRates {
  /// Provider timeout: the call "runs long" and is cut off. Surfaces as
  /// kDeadlineExceeded; the attempt is charged `timeout_multiplier` times
  /// its natural virtual latency plus its full dollar cost (the provider
  /// billed the tokens even though the caller gave up).
  double timeout = 0;
  /// Rate-limit rejection before any model work. Surfaces as
  /// kResourceExhausted; charges `rate_limit_seconds` and zero dollars.
  double rate_limit = 0;
  /// Malformed/truncated completion: the model answered, but unusably.
  /// Surfaces as kAborted with the per-item payload truncated; full
  /// latency and dollars are charged.
  double malformed = 0;

  double Total() const { return timeout + rate_limit + malformed; }
};

struct FaultInjectionOptions {
  /// Seed of the fault coins, independent of the simulator's seed.
  uint64_t seed = 1234;
  /// Default rates for every PromptType without a per-type override.
  FaultRates rates;
  /// Per-PromptType overrides (e.g. make planner calls flakier).
  std::map<PromptType, FaultRates> per_type;
  /// Virtual-latency multiplier of an injected timeout.
  double timeout_multiplier = 4.0;
  /// Virtual seconds charged by an injected rate-limit rejection.
  double rate_limit_seconds = 0.05;
};

/// A deterministic fault-injection decorator over any LlmClient.
///
/// Every attempt draws ONE coin — a stable hash of (seed, CallKey(call),
/// call.attempt) — so a given attempt of a given call always meets the
/// same fate regardless of threads, batching or wall-clock, while a retry
/// (attempt+1) of the same call draws a fresh fate. With all rates zero
/// the decorator is a pure pass-through: byte-identical results, no
/// accounting drift. It keeps no counts of its own: each attempt that
/// meets an active injector, and each fault it injects, is an
/// `llm.fault.*.<type>` counter in the calling thread's query scope.
///
/// Composition order in UnifySystem (outermost last):
///   SimulatedLlm -> FaultInjectingLlmClient -> ResilientLlmClient
///   -> SharedCacheLlmClient -> TracingLlmClient
class FaultInjectingLlmClient : public LlmClient {
 public:
  /// `base` must outlive the decorator.
  FaultInjectingLlmClient(LlmClient* base, FaultInjectionOptions options)
      : base_(base), options_(std::move(options)) {}

  LlmResult Call(const LlmCall& call) override;

  LlmUsage usage() const override { return base_->usage(); }
  void ResetUsage() override { base_->ResetUsage(); }

  /// Runtime scale factor multiplying every fault rate (0 disables
  /// injection entirely; 1 = configured rates). Settable while serving —
  /// the shell's `\faults on|off` flips it.
  void set_rate_scale(double scale) { rate_scale_.store(scale); }
  double rate_scale() const { return rate_scale_.load(); }

  const FaultInjectionOptions& options() const { return options_; }

 private:
  const FaultRates& RatesFor(PromptType type) const;

  LlmClient* base_;
  FaultInjectionOptions options_;
  std::atomic<double> rate_scale_{1.0};
};

}  // namespace unify::llm

#endif  // UNIFY_LLM_FAULT_CLIENT_H_
