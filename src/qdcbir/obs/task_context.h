#ifndef QDCBIR_OBS_TASK_CONTEXT_H_
#define QDCBIR_OBS_TASK_CONTEXT_H_

#include <utility>

#include "qdcbir/obs/resource_stats.h"
#include "qdcbir/obs/span_stack.h"
#include "qdcbir/obs/trace_context.h"

namespace qdcbir {
namespace obs {

/// Everything a unit of work inherits from the code that scheduled it: the
/// trace context (span parent links), the innermost span name (profiler
/// attribution) and the session's resource sink (totals and per-leaf rows).
/// `ThreadPool` captures one at enqueue and installs it around the task,
/// so work on pool workers is traced, profiled and accounted as if it ran
/// on the submitting thread; the serve layer installs one per request.
struct TaskContext {
  TraceContext trace;
  /// Re-opened on the signal-safe span stack (nullptr = none). Must be a
  /// string literal, like every span name.
  const char* span_name = nullptr;
  ResourceAccumulator* sink = nullptr;
};

/// The calling thread's context.
inline TaskContext CurrentTaskContext() {
  return TaskContext{CurrentTraceContext(), CurrentSpanName(),
                     CurrentResourceAccumulator()};
}

/// Installs `context` for the enclosing scope and restores the thread's
/// previous context on destruction, flushing the scope's resource deltas
/// into the installed sink. Nests; a null sink disables accounting for the
/// scope.
class ScopedTaskContext {
 public:
  explicit ScopedTaskContext(TaskContext context)
      : trace_(std::move(context.trace)),
        span_name_(context.span_name),
        resources_(context.sink) {
    if (span_name_ != nullptr) CurrentSpanStack().Push(span_name_);
  }

  ScopedTaskContext(const ScopedTaskContext&) = delete;
  ScopedTaskContext& operator=(const ScopedTaskContext&) = delete;

  ~ScopedTaskContext() {
    if (span_name_ != nullptr) CurrentSpanStack().Pop();
  }

 private:
  ScopedTraceContext trace_;
  const char* span_name_;
  ScopedResourceAccounting resources_;
};

}  // namespace obs
}  // namespace qdcbir

#endif  // QDCBIR_OBS_TASK_CONTEXT_H_
