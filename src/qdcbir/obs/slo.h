#ifndef QDCBIR_OBS_SLO_H_
#define QDCBIR_OBS_SLO_H_

/// \file
/// In-process SLO engine: declarative objectives evaluated over sliding
/// multi-window burn rates (fast/slow window à la the SRE workbook).
///
/// An SLO reduces every source — latency histograms, availability counters,
/// hit-rate counter pairs, quality-proxy histogram floors — to a cumulative
/// (good, total) event pair. Evaluation reads only each SLO's own source
/// metrics, resolved once by name (never a whole-registry snapshot): a
/// counter's value, or one histogram's event count plus its buckets up to
/// the threshold's bucket. Its cost therefore does not grow with the number
/// of registered metrics.
///
/// Each `Evaluate` call records a timestamped sample of that pair in a
/// per-SLO ring, coalesced to a granularity of fast_window /
/// `kWindowSlotsPerFastWindow` (1 s for the default 5 min window): a sample
/// landing in the newest sample's slot overwrites it instead of being
/// appended, so a ring holds at most ceil(slow_window / granularity) + 2
/// samples (3602 by default) however often evaluation runs, and window
/// baselines are found by binary search. Burn rate over a window is the bad
/// fraction of the window's event delta divided by the error budget
/// (1 - objective); window edges are exact to within one granularity slot.
///
/// The state machine follows the multi-window alerting pattern: *breach*
/// when both the fast and slow windows burn above their thresholds (the
/// fast window confirms the problem is still happening), *warn* when only
/// one does, *ok* otherwise.
///
/// Evaluation is pull-driven — the serve layer calls `Evaluate` from the
/// `/metrics`, `/sloz`, and `/statusz` handlers and after each session
/// finalize — and publishes `slo.<name>.{state,fast_burn_permille,
/// slow_burn_permille}` gauges (rendered as `qdcbir_slo_*` on `/metrics`).
/// State transitions emit rate-limited `/logz` entries. The clock is
/// injectable so tests can drive window arithmetic deterministically.

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "qdcbir/obs/metrics.h"

namespace qdcbir {
namespace obs {

/// How an SLO's (good, total) event pair is derived from the registry.
enum class SloKind {
  /// `metric` is a histogram; an event is good when its value is at or
  /// below `threshold` (e.g. session latency under the target). The
  /// objective says what fraction must be good — a latency-percentile
  /// target expressed in burn-rate form.
  kLatencyQuantile,
  /// `metric` counts all events, `bad_metric` the failed ones;
  /// good = total - bad (e.g. HTTP requests vs malformed requests).
  kAvailability,
  /// `metric` counts good events, `bad_metric` the complementary misses;
  /// total = good + bad (e.g. cache hits vs misses).
  kRatioFloor,
  /// `metric` is a histogram of a quality proxy; an event is good when
  /// its value is strictly above `threshold` (e.g. top-k Jaccard floor).
  kHistogramFloor,
};

const char* SloKindName(SloKind kind);

enum class SloState : std::int64_t { kOk = 0, kWarn = 1, kBreach = 2 };

const char* SloStateName(SloState state);

struct SloDefinition {
  std::string name;  ///< metric-safe slug, e.g. "session_latency_p95"
  SloKind kind = SloKind::kLatencyQuantile;
  std::string metric;      ///< histogram or total/good counter (see kind)
  std::string bad_metric;  ///< bad/miss counter for the counter kinds
  /// Good-value cut for the histogram kinds (≤ for latency, > for floors).
  double threshold = 0.0;
  double objective = 0.99;  ///< required good fraction (error budget = 1-o)
  std::uint64_t fast_window_ns = 300ull * 1000 * 1000 * 1000;    ///< 5 min
  std::uint64_t slow_window_ns = 3600ull * 1000 * 1000 * 1000;   ///< 1 h
  double fast_burn_threshold = 14.4;  ///< SRE workbook page threshold
  double slow_burn_threshold = 6.0;
};

/// Evaluated status of one SLO, for `/sloz` and `/statusz`.
struct SloStatus {
  std::string name;
  SloKind kind = SloKind::kLatencyQuantile;
  SloState state = SloState::kOk;
  double objective = 0.0;
  double threshold = 0.0;
  double fast_burn = 0.0;
  double slow_burn = 0.0;
  std::uint64_t good = 0;   ///< cumulative good events at last evaluation
  std::uint64_t total = 0;  ///< cumulative total events at last evaluation
};

class SloEngine {
 public:
  using Clock = std::function<std::uint64_t()>;

  /// Window samples are coalesced to fast_window_ns / this many slots.
  static constexpr std::uint64_t kWindowSlotsPerFastWindow = 300;

  /// `registry` defaults to the process-global one; tests pass their own
  /// registry and clock to drive breaches deterministically.
  explicit SloEngine(std::vector<SloDefinition> definitions,
                     MetricsRegistry* registry = nullptr,
                     Clock clock = nullptr);

  /// Samples the registry, advances the burn-rate windows, updates states,
  /// publishes the `slo.*` gauges, and logs transitions. Thread-safe.
  void Evaluate();

  /// Current status per SLO (does not re-evaluate).
  std::vector<SloStatus> Snapshot() const;

  /// `/sloz` document: `{"slos":[{...}]}`.
  std::string RenderJson() const;

  /// Worst state across all SLOs, for the `/statusz` row.
  SloState WorstState() const;

  std::size_t definition_count() const { return slos_.size(); }

  /// Samples held by the largest per-SLO window ring.
  std::size_t window_samples() const;

 private:
  struct WindowSample {
    std::uint64_t at_ns = 0;
    std::uint64_t good = 0;
    std::uint64_t total = 0;
  };
  struct TrackedSlo {
    SloDefinition def;
    std::uint64_t granularity_ns = 1;
    /// Source metrics, looked up by name until they are registered (a
    /// source registered later, e.g. on first use, is picked up then).
    const Histogram* histogram = nullptr;  ///< histogram kinds
    const Counter* counter = nullptr;      ///< counter kinds: `metric`
    const Counter* bad_counter = nullptr;  ///< counter kinds: `bad_metric`
    std::deque<WindowSample> samples;  ///< ascending by at_ns
    SloState state = SloState::kOk;
    double fast_burn = 0.0;
    double slow_burn = 0.0;
    std::uint64_t good = 0;
    std::uint64_t total = 0;
    Gauge* state_gauge = nullptr;
    Gauge* fast_gauge = nullptr;
    Gauge* slow_gauge = nullptr;
  };

  WindowSample Sample(TrackedSlo& slo, std::uint64_t now_ns) const;
  static double BurnOver(const TrackedSlo& slo, std::uint64_t now_ns,
                         std::uint64_t window_ns);

  MetricsRegistry* registry_;
  Clock clock_;
  mutable std::mutex mu_;
  std::vector<TrackedSlo> slos_;
};

}  // namespace obs
}  // namespace qdcbir

#endif  // QDCBIR_OBS_SLO_H_
