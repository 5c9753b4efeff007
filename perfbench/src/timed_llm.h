#ifndef UNIFY_PERFBENCH_TIMED_LLM_H_
#define UNIFY_PERFBENCH_TIMED_LLM_H_

// The benchmark's own LlmClient decorator. It wraps the SimulatedLlm that
// is handed to UnifySystem, so every simulator call is counted and timed
// from outside the library: wall and thread-CPU time per call, calls per
// prompt type and model tier, items per call, virtual seconds and
// dollars. Simulator CPU measured here is what the benchmark subtracts
// from process CPU to get engine CPU.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "llm/llm_client.h"

namespace unify::perfbench {

/// Prompt types the decorator counts separately (indexable by the enum).
inline constexpr int kNumPromptTypes =
    static_cast<int>(llm::PromptType::kSelectAnswer) + 1;

/// Steady-clock nanoseconds (the benchmark's one wall clock).
int64_t NowNs();
/// CPU nanoseconds consumed by the calling thread.
int64_t ThreadCpuNs();
/// CPU nanoseconds consumed by the whole process (all threads).
int64_t ProcessCpuNs();
/// Small process-wide ordinal of the calling thread (stable for its life).
int ThreadOrdinal();

class TimedLlm : public llm::LlmClient {
 public:
  /// Sums over all threads that called through the decorator.
  struct Totals {
    int64_t calls = 0;
    int64_t calls_by_type[kNumPromptTypes] = {};
    int64_t planner_calls = 0;
    int64_t worker_calls = 0;
    int64_t items = 0;
    int64_t wall_ns = 0;
    int64_t cpu_ns = 0;
    double virt_seconds = 0;
    double dollars = 0;

    Totals& operator+=(const Totals& other);
  };

  /// One simulator call, recorded only while span recording is on.
  struct SimSpan {
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int thread = 0;
    llm::PromptType type = llm::PromptType::kSemanticParse;
    bool planner = false;
    int items = 0;
    /// For kSemanticParse: std::hash of the "query" prompt field, which
    /// lets the benchmark find the worker thread that served a request.
    uint64_t query_hash = 0;
  };

  /// `inner` must outlive the decorator.
  explicit TimedLlm(llm::LlmClient* inner);
  ~TimedLlm() override;

  TimedLlm(const TimedLlm&) = delete;
  TimedLlm& operator=(const TimedLlm&) = delete;

  llm::LlmResult Call(const llm::LlmCall& call) override;
  llm::LlmUsage usage() const override { return inner_->usage(); }
  void ResetUsage() override { inner_->ResetUsage(); }

  /// The following three read or clear per-thread state without
  /// synchronizing with callers: use them only while no call is in
  /// flight (before a window starts or after its threads are joined).
  Totals totals() const;
  void Reset();
  std::vector<SimSpan> TakeSpans();

  void set_record_spans(bool on) {
    record_spans_.store(on, std::memory_order_relaxed);
  }

 private:
  struct Slot;
  Slot& SlotForThisThread();

  llm::LlmClient* inner_;
  const uint64_t id_;
  std::atomic<bool> record_spans_{false};

  mutable std::mutex slots_mu_;
  std::vector<std::unique_ptr<Slot>> slots_;
};

}  // namespace unify::perfbench

#endif  // UNIFY_PERFBENCH_TIMED_LLM_H_
