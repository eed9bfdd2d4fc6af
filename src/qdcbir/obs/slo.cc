#include "qdcbir/obs/slo.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <utility>

#include "qdcbir/obs/clock.h"
#include "qdcbir/obs/log.h"

namespace qdcbir {
namespace obs {

namespace {

std::uint64_t CounterValue(const Counter* counter) {
  return counter == nullptr ? 0 : counter->Value();
}

/// (good, total) from a histogram's buckets: events in buckets whose upper
/// bound is at or below `threshold` are good. The HDR buckets quantize the
/// cut to the last upper bound at/below the threshold (≤ ~6% value error,
/// same as the percentile readouts); a threshold at or beyond the last
/// non-empty bound counts everything recorded as good.
std::pair<std::uint64_t, std::uint64_t> HistogramGoodAtOrBelow(
    const Histogram* histogram, double threshold) {
  if (histogram == nullptr) return {0, 0};
  std::uint64_t good = 0;
  if (threshold >= 0x1p64) {
    good = histogram->CountAtOrBelow(~std::uint64_t{0});
  } else if (threshold >= 0.0) {
    // Bucket bounds are integers: bound ≤ threshold iff bound ≤ floor.
    good = histogram->CountAtOrBelow(static_cast<std::uint64_t>(threshold));
  }
  // The buckets are read before the count and a writer bumps its bucket
  // before the count, so a racing record can show in `good` only; the
  // clamp keeps good ≤ total, and both stay monotonic across evaluations.
  const std::uint64_t total = histogram->Count();
  return {std::min(good, total), total};
}

void AppendDouble(std::string& out, double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  out += buffer;
}

}  // namespace

const char* SloKindName(SloKind kind) {
  switch (kind) {
    case SloKind::kLatencyQuantile: return "latency_quantile";
    case SloKind::kAvailability: return "availability";
    case SloKind::kRatioFloor: return "ratio_floor";
    case SloKind::kHistogramFloor: return "histogram_floor";
  }
  return "unknown";
}

const char* SloStateName(SloState state) {
  switch (state) {
    case SloState::kOk: return "ok";
    case SloState::kWarn: return "warn";
    case SloState::kBreach: return "breach";
  }
  return "unknown";
}

SloEngine::SloEngine(std::vector<SloDefinition> definitions,
                     MetricsRegistry* registry, Clock clock)
    : registry_(registry != nullptr ? registry : &MetricsRegistry::Global()),
      clock_(clock != nullptr ? std::move(clock) : [] {
        return MonotonicNanos();
      }) {
  slos_.reserve(definitions.size());
  for (SloDefinition& def : definitions) {
    TrackedSlo tracked;
    tracked.def = std::move(def);
    tracked.granularity_ns = std::max<std::uint64_t>(
        1, tracked.def.fast_window_ns / kWindowSlotsPerFastWindow);
    const std::string base = "slo." + tracked.def.name;
    tracked.state_gauge = &registry_->GetGauge(
        base + ".state", "SLO state: 0 ok, 1 warn, 2 breach");
    tracked.fast_gauge = &registry_->GetGauge(
        base + ".fast_burn_permille",
        "Error-budget burn rate over the fast window, x1000");
    tracked.slow_gauge = &registry_->GetGauge(
        base + ".slow_burn_permille",
        "Error-budget burn rate over the slow window, x1000");
    // Gauges exist (value 0 = ok) from construction so `/metrics` exposes
    // every qdcbir_slo_* family before the first evaluation.
    tracked.state_gauge->Set(0);
    tracked.fast_gauge->Set(0);
    tracked.slow_gauge->Set(0);
    slos_.push_back(std::move(tracked));
  }
}

SloEngine::WindowSample SloEngine::Sample(TrackedSlo& slo,
                                          std::uint64_t now_ns) const {
  const SloDefinition& def = slo.def;
  WindowSample sample;
  sample.at_ns = now_ns;
  switch (def.kind) {
    case SloKind::kLatencyQuantile:
    case SloKind::kHistogramFloor: {
      if (slo.histogram == nullptr) {
        slo.histogram = registry_->FindHistogram(def.metric);
      }
      const auto [at_or_below, total] =
          HistogramGoodAtOrBelow(slo.histogram, def.threshold);
      sample.total = total;
      if (def.kind == SloKind::kLatencyQuantile) {
        sample.good = at_or_below;
      } else {
        // good = strictly above the floor; a non-positive floor accepts
        // everything (exported but never burning — opt-in floors).
        sample.good = def.threshold <= 0.0 ? total : total - at_or_below;
      }
      break;
    }
    case SloKind::kAvailability:
    case SloKind::kRatioFloor: {
      if (slo.counter == nullptr) {
        slo.counter = registry_->FindCounter(def.metric);
      }
      if (slo.bad_counter == nullptr) {
        slo.bad_counter = registry_->FindCounter(def.bad_metric);
      }
      const std::uint64_t value = CounterValue(slo.counter);
      const std::uint64_t bad = CounterValue(slo.bad_counter);
      if (def.kind == SloKind::kAvailability) {
        sample.total = value;
        sample.good = value > bad ? value - bad : 0;
      } else {
        sample.good = value;
        sample.total = value + bad;
      }
      break;
    }
  }
  return sample;
}

double SloEngine::BurnOver(const TrackedSlo& slo, std::uint64_t now_ns,
                           std::uint64_t window_ns) {
  if (slo.samples.size() < 2) return 0.0;
  const WindowSample& newest = slo.samples.back();
  // Baseline: the latest sample at or before the window start; when the
  // ring does not reach back that far, the oldest sample (partial window).
  const std::uint64_t start_ns =
      now_ns > window_ns ? now_ns - window_ns : 0;
  auto after_start = std::upper_bound(
      slo.samples.begin(), slo.samples.end(), start_ns,
      [](std::uint64_t t, const WindowSample& sample) {
        return t < sample.at_ns;
      });
  const WindowSample* baseline = after_start == slo.samples.begin()
                                     ? &slo.samples.front()
                                     : &*std::prev(after_start);
  if (baseline == &newest) return 0.0;
  const std::uint64_t total = newest.total - baseline->total;
  if (total == 0) return 0.0;
  const std::uint64_t good = newest.good - baseline->good;
  const double bad_fraction =
      static_cast<double>(total - good) / static_cast<double>(total);
  const double budget = 1.0 - slo.def.objective;
  if (budget <= 0.0) return bad_fraction > 0.0 ? 1e9 : 0.0;
  return bad_fraction / budget;
}

void SloEngine::Evaluate() {
  // Clock and sources are read under the lock, so concurrent evaluations
  // append in clock order and never trip the monotonic guard below.
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t now_ns = clock_();
  for (TrackedSlo& slo : slos_) {
    const WindowSample sample = Sample(slo, now_ns);
    // Monotonic guard: a clock hiccup or reset registry must not make the
    // window deltas go negative.
    if (!slo.samples.empty() &&
        (sample.at_ns < slo.samples.back().at_ns ||
         sample.total < slo.samples.back().total ||
         sample.good < slo.samples.back().good)) {
      slo.samples.clear();
    }
    // Coalesce: a sample in the newest sample's granularity slot replaces
    // it. The oldest sample is never replaced, so the first window baseline
    // survives a burst of evaluations right after it.
    if (slo.samples.size() >= 2 &&
        sample.at_ns / slo.granularity_ns ==
            slo.samples.back().at_ns / slo.granularity_ns) {
      slo.samples.back() = sample;
    } else {
      slo.samples.push_back(sample);
    }
    // Prune to the slow window, keeping one baseline sample beyond it.
    const std::uint64_t horizon =
        now_ns > slo.def.slow_window_ns ? now_ns - slo.def.slow_window_ns : 0;
    while (slo.samples.size() >= 2 && slo.samples[1].at_ns <= horizon) {
      slo.samples.pop_front();
    }

    slo.good = sample.good;
    slo.total = sample.total;
    slo.fast_burn = BurnOver(slo, now_ns, slo.def.fast_window_ns);
    slo.slow_burn = BurnOver(slo, now_ns, slo.def.slow_window_ns);
    const bool fast_hot = slo.fast_burn >= slo.def.fast_burn_threshold;
    const bool slow_hot = slo.slow_burn >= slo.def.slow_burn_threshold;
    const SloState next = fast_hot && slow_hot ? SloState::kBreach
                          : fast_hot || slow_hot ? SloState::kWarn
                                                 : SloState::kOk;
    if (next != slo.state) {
      if (next > slo.state) {
        QDCBIR_LOG(obs::LogLevel::kWarn,
                   "slo " + slo.def.name + " " + SloStateName(slo.state) +
                       " -> " + SloStateName(next));
      } else {
        QDCBIR_LOG(obs::LogLevel::kInfo,
                   "slo " + slo.def.name + " recovered: " +
                       SloStateName(slo.state) + " -> " + SloStateName(next));
      }
      slo.state = next;
    }
    slo.state_gauge->Set(static_cast<std::int64_t>(slo.state));
    slo.fast_gauge->Set(static_cast<std::int64_t>(slo.fast_burn * 1000.0));
    slo.slow_gauge->Set(static_cast<std::int64_t>(slo.slow_burn * 1000.0));
  }
}

std::vector<SloStatus> SloEngine::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SloStatus> out;
  out.reserve(slos_.size());
  for (const TrackedSlo& slo : slos_) {
    SloStatus status;
    status.name = slo.def.name;
    status.kind = slo.def.kind;
    status.state = slo.state;
    status.objective = slo.def.objective;
    status.threshold = slo.def.threshold;
    status.fast_burn = slo.fast_burn;
    status.slow_burn = slo.slow_burn;
    status.good = slo.good;
    status.total = slo.total;
    out.push_back(std::move(status));
  }
  return out;
}

std::string SloEngine::RenderJson() const {
  const std::vector<SloStatus> statuses = Snapshot();
  std::string out = "{\"slos\":[";
  bool first = true;
  for (const SloStatus& status : statuses) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":\"" + status.name + "\"";
    out += ",\"kind\":\"" + std::string(SloKindName(status.kind)) + "\"";
    out += ",\"state\":\"" + std::string(SloStateName(status.state)) + "\"";
    out += ",\"objective\":";
    AppendDouble(out, status.objective);
    out += ",\"threshold\":";
    AppendDouble(out, status.threshold);
    out += ",\"fast_burn\":";
    AppendDouble(out, status.fast_burn);
    out += ",\"slow_burn\":";
    AppendDouble(out, status.slow_burn);
    out += ",\"good\":" + std::to_string(status.good);
    out += ",\"total\":" + std::to_string(status.total);
    out.push_back('}');
  }
  out += "]}";
  return out;
}

std::size_t SloEngine::window_samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t largest = 0;
  for (const TrackedSlo& slo : slos_) {
    largest = std::max(largest, slo.samples.size());
  }
  return largest;
}

SloState SloEngine::WorstState() const {
  std::lock_guard<std::mutex> lock(mu_);
  SloState worst = SloState::kOk;
  for (const TrackedSlo& slo : slos_) {
    worst = std::max(worst, slo.state);
  }
  return worst;
}

}  // namespace obs
}  // namespace qdcbir
