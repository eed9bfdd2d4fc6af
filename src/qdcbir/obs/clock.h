#ifndef QDCBIR_OBS_CLOCK_H_
#define QDCBIR_OBS_CLOCK_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace qdcbir {
namespace obs {

/// Nanoseconds on the process's monotonic clock. The single time source of
/// the observability layer: spans, the thread-pool instrumentation, and
/// `WallTimer` all read it, so durations from different subsystems compare
/// directly.
inline std::uint64_t MonotonicNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Milliseconds since the Unix epoch on the system clock: the wall-time
/// stamp of log entries and wide events.
inline std::uint64_t UnixMillis() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// A small dense id for the calling thread, assigned on first use. Trace
/// events and metric shards key on it instead of `std::thread::id` so the
/// exported data stays compact and stable within a run.
inline std::uint32_t ThreadTid() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t tid =
      next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

}  // namespace obs

/// Monotonic wall-clock timer for the efficiency experiments. Lives in the
/// observability layer so the repo has exactly one monotonic-clock utility
/// (spans and benches measure on the same clock).
class WallTimer {
 public:
  WallTimer() : start_(obs::MonotonicNanos()) {}

  void Restart() { start_ = obs::MonotonicNanos(); }

  /// Seconds elapsed since construction or the last Restart().
  double Seconds() const {
    return static_cast<double>(obs::MonotonicNanos() - start_) * 1e-9;
  }

  double Millis() const { return Seconds() * 1e3; }

 private:
  std::uint64_t start_;
};

}  // namespace qdcbir

#endif  // QDCBIR_OBS_CLOCK_H_
