#include "llm/resilient_client.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/metrics.h"
#include "common/query_scope.h"
#include "common/rng.h"
#include "common/telemetry_names.h"

namespace unify::llm {

namespace {

const char* TierName(ModelTier tier) {
  return tier == ModelTier::kPlanner ? "planner" : "worker";
}

}  // namespace

double ResilientLlmClient::BackoffFor(const LlmCall& call, int round) const {
  const RetryPolicy& p = options_.retry;
  double base = p.initial_backoff_seconds *
                std::pow(p.backoff_multiplier, static_cast<double>(round - 1));
  base = std::min(base, p.max_backoff_seconds);
  uint64_t h = StableHash64(CallKey(call));
  h = HashCombine(h, options_.seed);
  h = HashCombine(h, static_cast<uint64_t>(round));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
  const double factor = 1.0 - p.jitter_fraction + 2.0 * p.jitter_fraction * u;
  return base * factor;
}

bool ResilientLlmClient::BreakerAdmits(ModelTier tier, bool* is_probe) {
  *is_probe = false;
  if (!options_.breaker.enabled) return true;
  std::lock_guard<std::mutex> lock(mu_);
  Breaker& b = breakers_[static_cast<int>(tier)];
  if (b.state == BreakerState::kOpen &&
      b.now_seconds >= b.open_until_seconds) {
    b.state = BreakerState::kHalfOpen;
    b.probe_inflight = false;
  }
  switch (b.state) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kHalfOpen:
      if (!b.probe_inflight) {
        b.probe_inflight = true;
        *is_probe = true;
        MetricAddCounter(std::string(telemetry::kMetricBreakerProbes) + "." +
                         TierName(tier));
        return true;
      }
      [[fallthrough]];
    case BreakerState::kOpen:
      // Fast-fail: the rejection itself advances the tier's virtual
      // clock, so an idle open window still expires under retry pressure.
      b.now_seconds += options_.breaker.fast_fail_seconds;
      MetricAddCounter(std::string(telemetry::kMetricBreakerRejected) + "." +
                       TierName(tier));
      return false;
  }
  return true;
}

void ResilientLlmClient::BreakerRecord(ModelTier tier, bool ok, bool was_probe,
                                       double observed_seconds) {
  if (!options_.breaker.enabled) return;
  std::lock_guard<std::mutex> lock(mu_);
  Breaker& b = breakers_[static_cast<int>(tier)];
  b.now_seconds += observed_seconds;
  if (was_probe) {
    b.probe_inflight = false;
    if (ok) {
      b.state = BreakerState::kClosed;
      b.consecutive_failures = 0;
      MetricAddCounter(std::string(telemetry::kMetricBreakerCloses) + "." +
                       TierName(tier));
    } else {
      b.state = BreakerState::kOpen;
      b.open_until_seconds = b.now_seconds + options_.breaker.open_seconds;
      MetricAddCounter(std::string(telemetry::kMetricBreakerOpens) + "." +
                       TierName(tier));
    }
    return;
  }
  if (ok) {
    b.consecutive_failures = 0;
    return;
  }
  ++b.consecutive_failures;
  if (b.state == BreakerState::kClosed &&
      b.consecutive_failures >= options_.breaker.failure_threshold) {
    b.state = BreakerState::kOpen;
    b.open_until_seconds = b.now_seconds + options_.breaker.open_seconds;
    MetricAddCounter(std::string(telemetry::kMetricBreakerOpens) + "." +
                     TierName(tier));
  }
}

LlmResult ResilientLlmClient::Attempt(const LlmCall& call, int round) {
  bool is_probe = false;
  if (!BreakerAdmits(call.tier, &is_probe)) {
    LlmResult rejected;
    rejected.seconds = options_.breaker.fast_fail_seconds;
    rejected.status = Status::ResourceExhausted("circuit breaker open");
    return rejected;
  }

  // Even attempt ordinals are primaries, odd ones their hedges, so fault
  // coins differ between a round's primary and hedge while a pure retry
  // in round k+1 still draws its own fate.
  LlmCall primary_call = call;
  primary_call.attempt = 2 * round;
  LlmResult primary = base_->Call(primary_call);

  const HedgePolicy& hedge = options_.hedge;
  if (!hedge.enabled || primary.seconds <= hedge.latency_threshold_seconds) {
    BreakerRecord(call.tier, primary.status.ok(), is_probe, primary.seconds);
    return primary;
  }

  // The primary is a straggler: in virtual time, a hedge was launched at
  // t = threshold and the two raced. Resolve the race post-hoc.
  LlmCall hedge_call = call;
  hedge_call.attempt = 2 * round + 1;
  LlmResult backup = base_->Call(hedge_call);
  const double t_primary = primary.seconds;
  const double t_hedge = hedge.latency_threshold_seconds + backup.seconds;
  MetricAddCounter(telemetry::kMetricLlmHedgeLaunched);

  auto charge_loser = [](const LlmResult& loser, double loser_start,
                         double t_win) {
    // The loser is cancelled at the winner's completion: charge the
    // dollars it accrued up to that instant, pro rata.
    if (loser.seconds <= 0) return 0.0;
    const double frac =
        std::clamp((t_win - loser_start) / loser.seconds, 0.0, 1.0);
    const double cancelled = loser.dollars * frac;
    MetricAddCounter(telemetry::kMetricLlmHedgeCancelledDollars, cancelled);
    return cancelled;
  };

  LlmResult result;
  const bool hedge_wins =
      backup.status.ok() && (!primary.status.ok() || t_hedge < t_primary);
  if (hedge_wins) {
    result = backup;
    result.seconds = t_hedge;
    result.dollars += charge_loser(primary, 0.0, t_hedge);
    result.in_tokens += primary.in_tokens;
    result.out_tokens += primary.out_tokens;
    MetricAddCounter(telemetry::kMetricLlmHedgeWins);
  } else if (primary.status.ok()) {
    result = primary;
    result.seconds = t_primary;
    result.dollars +=
        charge_loser(backup, hedge.latency_threshold_seconds, t_primary);
    result.in_tokens += backup.in_tokens;
    result.out_tokens += backup.out_tokens;
  } else {
    // Both failed: the caller waited out the slower of the two.
    result = primary;
    result.seconds = std::max(t_primary, t_hedge);
    result.dollars += backup.dollars;
    result.in_tokens += backup.in_tokens;
    result.out_tokens += backup.out_tokens;
  }
  BreakerRecord(call.tier, result.status.ok(), is_probe, result.seconds);
  return result;
}

LlmResult ResilientLlmClient::Call(const LlmCall& call) {
  double extra_seconds = 0;
  double extra_dollars = 0;
  int64_t extra_in = 0;
  int64_t extra_out = 0;

  LlmResult result;
  for (int round = 0;; ++round) {
    result = Attempt(call, round);
    if (round > 0) {
      // Retry attempts (and their backoffs, consumed below) draw down the
      // query's retry budget best-effort.
      if (RetryBudget* budget = QueryScope::Current().retry_budget) {
        budget->Drain(result.seconds);
      }
    }
    if (result.status.ok()) {
      if (round > 0) MetricAddCounter(telemetry::kMetricLlmRetryRecovered);
      break;
    }
    if (!IsTransientLlmFailure(result.status)) break;
    if (round + 1 >= options_.retry.max_attempts) {
      MetricAddCounter(telemetry::kMetricLlmRetryExhausted);
      break;
    }
    const double backoff = BackoffFor(call, round + 1);
    RetryBudget* budget = QueryScope::Current().retry_budget;
    if (budget != nullptr && !budget->TryConsume(backoff)) {
      MetricAddCounter(telemetry::kMetricLlmRetryExhausted);
      MetricAddCounter(telemetry::kMetricLlmRetryBudgetExhausted);
      result.status = Status::DeadlineExceeded(
          "retry budget exhausted after: " + result.status.ToString());
      break;
    }
    // The failed attempt and the backoff sleep both land on the virtual
    // clock of the final result.
    extra_seconds += result.seconds + backoff;
    extra_dollars += result.dollars;
    extra_in += result.in_tokens;
    extra_out += result.out_tokens;
    MetricAddCounter(telemetry::kMetricLlmRetryAttempts);
    MetricAddCounter(telemetry::kMetricLlmRetryBackoffSeconds, backoff);
  }
  result.seconds += extra_seconds;
  result.dollars += extra_dollars;
  result.in_tokens += extra_in;
  result.out_tokens += extra_out;
  return result;
}

ResilientLlmClient::BreakerState ResilientLlmClient::breaker_state(
    ModelTier tier) const {
  std::lock_guard<std::mutex> lock(mu_);
  return breakers_[static_cast<int>(tier)].state;
}

}  // namespace unify::llm
