#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Linearly interpolated percentile (`p` in [0, 100]); 0 for no values.
double Percentile(std::vector<double> values, double p);
double Mean(const std::vector<double>& values);

/// A timed interval recorded by the benchmark itself. Spans of one session
/// share `session` (the session's seed); `parent` links a span to the one
/// that caused it, also across threads (a replay call to its request).
struct Span {
  const char* name = "";
  int tid = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t session = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Span ids unique within the process.
std::uint64_t NextSpanId();

/// Writes `spans` as Chrome trace_event JSON: properly nested B/E pairs per
/// tid (flat event objects, as `trace_check --trace` reads them).
bool WriteChromeTrace(const std::string& path, std::vector<Span> spans);

/// Per span name: count, total and self time (duration minus the part
/// covered by its children on the same tid), in ms, sorted by self time.
struct SpanTotals {
  std::string name;
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::vector<SpanTotals> SelfTimes(std::vector<Span> spans);

/// One reported figure.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// `{"name": {"value": v, "unit": u}, ...}` with full precision.
std::string MetricsJson(const std::vector<Metric>& metrics);
std::string JsonString(const std::string& s);
std::string JsonNumber(double v);

/// The per-layer map: which end-to-end metric each per-layer metric should
/// move, on which workload. Empty when the metric is not in the map.
std::pair<std::string, std::string> LayerTarget(const std::string& metric);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
