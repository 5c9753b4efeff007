#include "llm/fault_client.h"

#include <algorithm>
#include <string>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/telemetry_names.h"
#include "llm/tracing_client.h"

namespace unify::llm {

namespace {

/// The fault coin: a pure function of (seed, call content, attempt).
double CoinFor(uint64_t seed, const LlmCall& call) {
  uint64_t h = StableHash64(CallKey(call));
  h = HashCombine(h, seed);
  h = HashCombine(h, static_cast<uint64_t>(call.attempt));
  // 53 mantissa bits -> uniform double in [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

const FaultRates& FaultInjectingLlmClient::RatesFor(PromptType type) const {
  auto it = options_.per_type.find(type);
  return it == options_.per_type.end() ? options_.rates : it->second;
}

LlmResult FaultInjectingLlmClient::Call(const LlmCall& call) {
  const double scale = rate_scale_.load();
  const FaultRates& rates = RatesFor(call.type);
  if (scale <= 0 || rates.Total() <= 0) return base_->Call(call);

  const std::string suffix = std::string(".") + PromptTypeName(call.type);
  MetricAddCounter(telemetry::kMetricLlmFaultAttempts + suffix);
  const double u = CoinFor(options_.seed, call);
  const double p_timeout = rates.timeout * scale;
  const double p_rate_limit = p_timeout + rates.rate_limit * scale;
  const double p_malformed = p_rate_limit + rates.malformed * scale;

  if (u < p_timeout) {
    // The provider worked on the call (and bills for it), but the caller's
    // timeout fired first: charge stretched latency, drop the payload.
    LlmResult result = base_->Call(call);
    result.seconds *= options_.timeout_multiplier;
    result.fields.clear();
    result.items.clear();
    result.status = Status::DeadlineExceeded("injected llm timeout");
    MetricAddCounter(telemetry::kMetricLlmFaultTimeouts + suffix);
    return result;
  }
  if (u < p_rate_limit) {
    // Rejected at the door: no model work, no tokens, a fast error.
    LlmResult result;
    result.seconds = options_.rate_limit_seconds;
    result.status = Status::ResourceExhausted("injected llm rate limit");
    MetricAddCounter(telemetry::kMetricLlmFaultRateLimits + suffix);
    return result;
  }
  if (u < p_malformed) {
    // The model answered — and billed — but the completion is unusable:
    // truncate per-item payloads and clear named outputs.
    LlmResult result = base_->Call(call);
    if (!result.items.empty()) result.items.resize(result.items.size() / 2);
    result.fields.clear();
    result.status = Status::Aborted("injected malformed completion");
    MetricAddCounter(telemetry::kMetricLlmFaultMalformed + suffix);
    return result;
  }
  return base_->Call(call);
}

}  // namespace unify::llm
