#ifndef UNIFY_COMMON_THREAD_POOL_H_
#define UNIFY_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace unify {

/// A fixed-size worker pool executing `std::function<void()>` tasks FIFO.
///
/// Used by the execution module to run one node's morsels on wall-clock
/// workers (intra-operator parallelism); plan nodes themselves run one at
/// a time on the query's thread. The destructor drains outstanding tasks
/// before joining.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Waits for all queued tasks, then joins the workers.
  ~ThreadPool();

  /// Enqueues `task` for execution.
  void Schedule(std::function<void()> task);

  /// Blocks until every scheduled task has finished.
  void Wait();

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace unify

#endif  // UNIFY_COMMON_THREAD_POOL_H_
