#ifndef QDCBIR_OBS_SPAN_STACK_H_
#define QDCBIR_OBS_SPAN_STACK_H_

#include <atomic>
#include <cstdint>

namespace qdcbir {
namespace obs {

/// Async-signal-safe mirror of the calling thread's open `QDCBIR_SPAN`
/// scopes plus its 128-bit trace identity. The sampling profiler's SIGPROF
/// handler reads this from signal context, which rules out everything the
/// richer tracing structures rely on: `TraceContext` holds a
/// `shared_ptr`, lazily-constructed thread_locals may take loader locks on
/// first touch, and span histograms shard through a registry mutex. This
/// struct is therefore a constinit POD-ish mirror: `ScopedSpan` pushes and
/// pops literal name pointers, `ScopedTraceContext` keeps the trace-id
/// fields current, and the handler only ever loads from its own thread's
/// instance.
///
/// Memory-ordering contract: all writers run on the owning thread; the only
/// concurrent reader is a signal handler *on that same thread*, so plain
/// stores ordered by `atomic_signal_fence` suffice — no cross-thread
/// ordering is needed. `depth` is atomic so the compiler cannot tear or
/// cache it across the fence.
struct SpanStack {
  static constexpr std::uint32_t kMaxDepth = 32;

  std::atomic<std::uint32_t> depth{0};
  const char* names[kMaxDepth] = {};
  /// Mirror of `CurrentTraceContext().trace_hi/lo`; read by the profiler to
  /// tag samples with the trace they were taken under.
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;

  /// Called by `ScopedSpan` on the owning thread. `name` must be a string
  /// literal (the pointer is stored and may be read long after the span
  /// closes, from the sample ring). Depth beyond `kMaxDepth` is counted but
  /// not recorded; `Innermost` then reports the deepest recorded frame.
  void Push(const char* name) {
    const std::uint32_t d = depth.load(std::memory_order_relaxed);
    if (d < kMaxDepth) names[d] = name;
    // Publish the name slot before the depth that makes it visible to a
    // signal arriving between the two stores.
    std::atomic_signal_fence(std::memory_order_release);
    depth.store(d + 1, std::memory_order_relaxed);
  }

  void Pop() {
    const std::uint32_t d = depth.load(std::memory_order_relaxed);
    if (d > 0) depth.store(d - 1, std::memory_order_relaxed);
  }

  /// Innermost open span name, or nullptr outside any span. Safe from the
  /// owning thread's signal handler.
  const char* Innermost() const {
    std::uint32_t d = depth.load(std::memory_order_relaxed);
    std::atomic_signal_fence(std::memory_order_acquire);
    if (d == 0) return nullptr;
    if (d > kMaxDepth) d = kMaxDepth;
    return names[d - 1];
  }
};

/// The calling thread's span stack. Backed by a `constinit` thread_local:
/// first touch from normal code is guard-free, so a later touch from signal
/// context cannot deadlock on a C++ TLS guard.
SpanStack& CurrentSpanStack();

/// Innermost open span name on this thread (nullptr when none). Part of
/// the `TaskContext` that `ThreadPool` captures at enqueue, so worker
/// samples attribute to the enqueuing span.
inline const char* CurrentSpanName() { return CurrentSpanStack().Innermost(); }

/// Mirrors the active trace id; called by `ScopedTraceContext` on install
/// and restore.
inline void SetCurrentSpanStackTrace(std::uint64_t hi, std::uint64_t lo) {
  SpanStack& stack = CurrentSpanStack();
  stack.trace_hi = hi;
  stack.trace_lo = lo;
}

}  // namespace obs
}  // namespace qdcbir

#endif  // QDCBIR_OBS_SPAN_STACK_H_
