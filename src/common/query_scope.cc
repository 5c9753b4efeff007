#include "common/query_scope.h"

#include <algorithm>

namespace unify {

constinit thread_local QueryScope QueryScope::current_;

bool RetryBudget::TryConsume(double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  if (remaining_ < seconds) return false;
  remaining_ -= seconds;
  return true;
}

void RetryBudget::Drain(double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  remaining_ = std::max(0.0, remaining_ - seconds);
}

double RetryBudget::remaining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return remaining_;
}

}  // namespace unify
