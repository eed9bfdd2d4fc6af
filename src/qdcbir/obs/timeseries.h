#ifndef QDCBIR_OBS_TIMESERIES_H_
#define QDCBIR_OBS_TIMESERIES_H_

/// \file
/// Metrics flight recorder: a fixed-memory ring that samples every counter
/// and gauge of a metrics registry on a background cadence, so "what was
/// the whole engine doing around that slow query?" is answerable after the
/// fact without an external scraper. `/historyz?metric=&window=` renders a
/// series as per-interval deltas and rates; slow-trace capture marks an
/// event in the ring so the two surfaces join on time and trace id.
///
/// A sample reads counters and gauges only (`ScalarSnapshot`): no histogram
/// is merged, so a tick — and the inline sample the serve layer takes when
/// a session crosses the slow threshold — costs one pass over the scalar
/// metrics, not a merge of every histogram's shards.
///
/// Memory is bounded on every axis: the sample ring holds `capacity`
/// snapshots, the series name table is append-only and capped at
/// `max_series` (overflow ticks `history.series.dropped`), and event marks
/// live in a small ring of their own. The clock is injectable (à la
/// `SloEngine`) and `SampleNow` is callable directly, so tests drive the
/// delta math deterministically without threads or real time.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "qdcbir/obs/metrics.h"

namespace qdcbir {
namespace obs {

class FlightRecorder {
 public:
  using Clock = std::function<std::uint64_t()>;

  struct Options {
    /// Background sampling cadence; also the nominal interval reported for
    /// rate math when samples are driven manually.
    std::uint64_t interval_ns = 1000ull * 1000 * 1000;
    std::size_t capacity = 512;     ///< sample-ring slots
    std::size_t max_series = 512;   ///< bounded name table
    std::size_t max_events = 32;    ///< event-mark ring slots
  };

  /// `registry` defaults to the process-global one; tests pass their own
  /// registry and clock. Self-accounting counters (`history.*`) always go
  /// to the sampled registry, so the recorder's own health is in the data.
  explicit FlightRecorder(Options options,
                          MetricsRegistry* registry = nullptr,
                          Clock clock = nullptr);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Starts/stops the background sampling thread. Idempotent.
  void Start();
  void Stop();

  /// Takes one sample of every counter and gauge right now. The background
  /// thread calls this on its cadence; tests and the slow-trace hook call
  /// it directly.
  void SampleNow();

  /// Pins a labeled mark (conventionally a trace id) at the current clock
  /// reading, so `/historyz` output can join engine history to the slow
  /// queries captured inside the window.
  void MarkEvent(const std::string& label);

  struct Point {
    std::uint64_t t_ns = 0;
    double value = 0.0;  ///< sampled cumulative value (or gauge level)
    /// Delta vs the previous sample. Counter-reset aware: a counter that
    /// went backwards (registry `Reset`, reload epoch) contributes its new
    /// value as the delta, Prometheus-style, so rates never go negative.
    /// The window's first point reports delta 0.
    double delta = 0.0;
    double rate = 0.0;  ///< delta per second of actual inter-sample time
  };

  struct Series {
    std::string name;
    bool known = false;       ///< false: metric never seen by the recorder
    bool is_counter = false;  ///< counters get reset-aware deltas
    std::vector<Point> points;
  };

  struct EventMark {
    std::uint64_t t_ns = 0;
    std::string label;
  };

  /// The series for `metric` restricted to the trailing `window_ns` of
  /// recorded time (0 = everything in the ring).
  Series Query(const std::string& metric, std::uint64_t window_ns) const;

  /// Every series name the recorder has sampled, sorted.
  std::vector<std::string> SeriesNames() const;

  /// Event marks inside the trailing `window_ns` (0 = all retained).
  std::vector<EventMark> Events(std::uint64_t window_ns) const;

  /// `/historyz` document for one metric: the series' points plus the
  /// window's event marks and the recorder's own ring accounting. An
  /// unknown metric renders `"known":false` with the series directory so
  /// callers can self-correct.
  std::string RenderJson(const std::string& metric,
                         std::uint64_t window_ns) const;

  std::uint64_t samples_taken() const;
  std::uint64_t series_dropped() const;

 private:
  struct Sample {
    std::uint64_t t_ns = 0;
    /// Indexed by series id; shorter than the name table for samples taken
    /// before later series appeared (those points are simply absent).
    std::vector<double> values;
  };

  std::size_t SeriesIdLocked(const std::string& name, bool is_counter);
  void BackgroundLoop();

  const Options options_;
  MetricsRegistry* registry_;
  Clock clock_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::size_t> series_ids_;
  std::vector<std::string> series_names_;   ///< id → name
  std::vector<bool> series_is_counter_;     ///< id → kind
  std::vector<Sample> ring_;                ///< capacity slots, reused
  std::size_t ring_head_ = 0;               ///< next slot to write
  std::size_t ring_size_ = 0;
  std::vector<EventMark> events_;           ///< max_events slots, reused
  std::size_t events_head_ = 0;
  std::size_t events_size_ = 0;
  std::uint64_t samples_taken_ = 0;
  std::uint64_t series_dropped_ = 0;

  std::mutex thread_mu_;
  std::condition_variable thread_cv_;
  std::thread sampler_;
  bool stopping_ = false;
};

}  // namespace obs
}  // namespace qdcbir

#endif  // QDCBIR_OBS_TIMESERIES_H_
