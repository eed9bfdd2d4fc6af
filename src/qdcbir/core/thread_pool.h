#ifndef QDCBIR_CORE_THREAD_POOL_H_
#define QDCBIR_CORE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "qdcbir/obs/metrics.h"
#include "qdcbir/obs/task_context.h"

namespace qdcbir {

/// A fixed-size worker pool for the engine's embarrassingly parallel stages:
/// localized subqueries, baseline distance scans, per-node representative
/// selection, and batched evaluation sessions.
///
/// Design properties:
///  - **Caller participation.** `Run` / `ParallelFor` execute tasks on the
///    calling thread too, so `ThreadPool(1)` spawns no threads and runs
///    strictly sequentially — the reference path for determinism tests.
///  - **Nesting safety.** A task may itself call `Run`/`ParallelFor` on the
///    same pool (batched sessions run parallel subqueries). While waiting
///    for its own batch, a caller drains queued tasks instead of blocking,
///    so a saturated pool cannot deadlock on nested waits.
///  - **Exception propagation.** The first exception thrown by a task of a
///    batch is captured and rethrown on the thread that submitted the batch
///    once every task of the batch has finished.
///  - **Context propagation.** A queued task runs under the submitter's
///    `obs::TaskContext` — trace context, innermost span name and resource
///    sink — so its spans, profiler samples and accounting taps attribute
///    to the request that scheduled it.
///
/// Determinism contract: the pool itself makes no ordering promises between
/// tasks of a batch; callers must write results into per-task slots (or
/// merge associatively) so that outputs are independent of scheduling. All
/// in-tree call sites follow this, which is what keeps rankings
/// byte-identical across thread counts.
class ThreadPool {
 public:
  /// Creates a pool of `threads` total execution lanes (the caller counts
  /// as one, so `threads - 1` workers are spawned). `threads == 0` picks
  /// `DefaultThreadCount()`.
  explicit ThreadPool(std::size_t threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  /// Total execution lanes (configured size, not spawned workers).
  std::size_t size() const { return threads_; }

  /// Runs every task to completion; the calling thread helps. Rethrows the
  /// first exception raised by a task after the whole batch has finished.
  void Run(std::vector<std::function<void()>> tasks);

  /// Fire-and-forget dispatch: enqueues `task` and returns immediately
  /// (runs inline on a sequential pool). The destructor drains the queue,
  /// so every posted task finishes before the pool is destroyed. Posted
  /// work has no submitter to rethrow on; an exception from a posted task
  /// is discarded, so tasks should handle their own failures.
  void Post(std::function<void()> task);

  /// Calls `body(i)` for every `i` in `[begin, end)`, partitioned into
  /// chunks across the pool. `body` must be safe to invoke concurrently
  /// for distinct indices.
  template <typename Body>
  void ParallelFor(std::size_t begin, std::size_t end, const Body& body) {
    const std::size_t n = end > begin ? end - begin : 0;
    if (n == 0) return;
    if (threads_ <= 1 || n == 1) {
      for (std::size_t i = begin; i < end; ++i) body(i);
      return;
    }
    ParallelForChunks(begin, end, /*num_chunks=*/threads_ * 4,
                      [&body](std::size_t, std::size_t lo, std::size_t hi) {
                        for (std::size_t i = lo; i < hi; ++i) body(i);
                      });
  }

  /// Chunked variant for per-thread accumulators (e.g. partial top-k
  /// heaps): calls `fn(chunk_index, lo, hi)` for `num_chunks` contiguous
  /// partitions of `[begin, end)`. Chunk count is clamped to the range
  /// size. Results gathered per chunk index are scheduling-independent.
  template <typename Fn>
  void ParallelForChunks(std::size_t begin, std::size_t end,
                         std::size_t num_chunks, const Fn& fn) {
    const std::size_t n = end > begin ? end - begin : 0;
    if (n == 0 || num_chunks == 0) return;
    num_chunks = num_chunks < n ? num_chunks : n;
    if (threads_ <= 1 || num_chunks == 1) {
      fn(0, begin, end);
      return;
    }
    std::vector<std::function<void()>> tasks;
    tasks.reserve(num_chunks);
    for (std::size_t c = 0; c < num_chunks; ++c) {
      const std::size_t lo = begin + n * c / num_chunks;
      const std::size_t hi = begin + n * (c + 1) / num_chunks;
      tasks.push_back([&fn, c, lo, hi] { fn(c, lo, hi); });
    }
    Run(std::move(tasks));
  }

  /// The `QDCBIR_THREADS` environment override when set to a positive
  /// integer; otherwise `std::thread::hardware_concurrency()` (at least 1).
  static std::size_t DefaultThreadCount();

  /// The process-wide pool, sized by `DefaultThreadCount()` at first use.
  /// Engines use it whenever no explicit pool is configured.
  static ThreadPool& Global();

 private:
  /// Completion state shared by the tasks of one `Run` call.
  struct Batch {
    std::size_t pending = 0;
    std::exception_ptr error;
    /// True for `Post` batches: no submitter waits, so an exception has
    /// nowhere to rethrow and is logged instead of silently dropped.
    bool detached = false;
  };

  struct Task {
    std::function<void()> fn;
    std::shared_ptr<Batch> batch;
    std::uint64_t enqueue_ns = 0;  ///< queue-wait measurement origin
    /// The submitter's context, captured at enqueue and installed around
    /// execution. Inline paths skip the capture — the submitter's context
    /// is already current.
    obs::TaskContext context;
  };

  void WorkerLoop();

  /// Pops and executes one queued task. `lock` must hold `mu_`; it is
  /// released while the task runs. Returns false if the queue was empty.
  bool RunOneTask(std::unique_lock<std::mutex>& lock);

  std::size_t threads_;

  /// Shared pool telemetry (see docs/observability.md): queue depth gauge,
  /// task wait/run latency histograms, executed-task and busy-time
  /// counters. All pools record into the same named metrics; the counters
  /// are per-thread sharded, so recording never contends on the hot path.
  obs::Gauge& queue_depth_;
  obs::Histogram& task_wait_ns_;
  obs::Histogram& task_run_ns_;
  obs::Counter& tasks_executed_;
  obs::Counter& busy_ns_;

  std::vector<std::thread> workers_;
  std::deque<Task> queue_;
  std::mutex mu_;
  std::condition_variable work_cv_;  ///< wakes idle workers
  std::condition_variable done_cv_;  ///< wakes batch submitters
  bool stop_ = false;
};

}  // namespace qdcbir

#endif  // QDCBIR_CORE_THREAD_POOL_H_
