#include "timed_llm.h"

#include <time.h>

#include <chrono>
#include <functional>
#include <utility>

namespace unify::perfbench {
namespace {

int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::atomic<uint64_t> next_decorator_id{1};
std::atomic<int> next_thread_ordinal{0};

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

int ThreadOrdinal() {
  thread_local const int ordinal = next_thread_ordinal.fetch_add(1);
  return ordinal;
}

/// Written only by its owning thread; read when no call is in flight.
struct TimedLlm::Slot {
  Totals totals;
  std::vector<SimSpan> spans;
};

TimedLlm::TimedLlm(llm::LlmClient* inner)
    : inner_(inner), id_(next_decorator_id.fetch_add(1)) {}

TimedLlm::~TimedLlm() = default;

TimedLlm::Slot& TimedLlm::SlotForThisThread() {
  // Decorator ids are never reused, so a stale entry of a destroyed
  // decorator can never match a live one.
  thread_local std::vector<std::pair<uint64_t, Slot*>> cache;
  for (const auto& [id, slot] : cache) {
    if (id == id_) return *slot;
  }
  std::lock_guard<std::mutex> lock(slots_mu_);
  slots_.push_back(std::make_unique<Slot>());
  cache.emplace_back(id_, slots_.back().get());
  return *slots_.back();
}

llm::LlmResult TimedLlm::Call(const llm::LlmCall& call) {
  Slot& slot = SlotForThisThread();
  const int64_t cpu0 = ThreadCpuNs();
  const int64_t t0 = NowNs();
  llm::LlmResult result = inner_->Call(call);
  const int64_t t1 = NowNs();
  const int64_t cpu1 = ThreadCpuNs();

  Totals& t = slot.totals;
  t.calls += 1;
  t.calls_by_type[static_cast<int>(call.type)] += 1;
  const bool planner = call.tier == llm::ModelTier::kPlanner;
  (planner ? t.planner_calls : t.worker_calls) += 1;
  t.items += static_cast<int64_t>(call.items.size());
  t.wall_ns += t1 - t0;
  t.cpu_ns += cpu1 - cpu0;
  t.virt_seconds += result.seconds;
  t.dollars += result.dollars;

  if (record_spans_.load(std::memory_order_relaxed)) {
    SimSpan span;
    span.start_ns = t0;
    span.end_ns = t1;
    span.thread = ThreadOrdinal();
    span.type = call.type;
    span.planner = planner;
    span.items = static_cast<int>(call.items.size());
    if (call.type == llm::PromptType::kSemanticParse) {
      span.query_hash = std::hash<std::string>{}(call.Get("query"));
    }
    slot.spans.push_back(span);
  }
  return result;
}

TimedLlm::Totals& TimedLlm::Totals::operator+=(const Totals& other) {
  calls += other.calls;
  for (int i = 0; i < kNumPromptTypes; ++i) {
    calls_by_type[i] += other.calls_by_type[i];
  }
  planner_calls += other.planner_calls;
  worker_calls += other.worker_calls;
  items += other.items;
  wall_ns += other.wall_ns;
  cpu_ns += other.cpu_ns;
  virt_seconds += other.virt_seconds;
  dollars += other.dollars;
  return *this;
}

TimedLlm::Totals TimedLlm::totals() const {
  std::lock_guard<std::mutex> lock(slots_mu_);
  Totals sum;
  for (const auto& slot : slots_) sum += slot->totals;
  return sum;
}

void TimedLlm::Reset() {
  std::lock_guard<std::mutex> lock(slots_mu_);
  for (auto& slot : slots_) {
    slot->totals = Totals{};
    slot->spans.clear();
  }
}

std::vector<TimedLlm::SimSpan> TimedLlm::TakeSpans() {
  std::lock_guard<std::mutex> lock(slots_mu_);
  std::vector<SimSpan> all;
  for (auto& slot : slots_) {
    all.insert(all.end(), slot->spans.begin(), slot->spans.end());
    slot->spans.clear();
  }
  return all;
}

}  // namespace unify::perfbench
