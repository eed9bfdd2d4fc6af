#include "qdcbir/obs/slo.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "qdcbir/obs/metrics.h"

namespace qdcbir {
namespace obs {
namespace {

constexpr std::uint64_t kSecond = 1000ull * 1000 * 1000;

SloDefinition LatencySlo() {
  SloDefinition def;
  def.name = "latency";
  def.kind = SloKind::kLatencyQuantile;
  def.metric = "test.latency";
  def.threshold = 1e6;  // 1 ms
  def.objective = 0.95;
  return def;
}

TEST(SloEngine, StartsOkWithRegisteredGauges) {
  MetricsRegistry registry;
  std::uint64_t now = 0;
  SloEngine engine({LatencySlo()}, &registry, [&] { return now; });
  ASSERT_EQ(engine.definition_count(), 1u);
  EXPECT_EQ(engine.WorstState(), SloState::kOk);
  // Gauge families exist (at 0) before any evaluation, so the first
  // /metrics scrape already exposes qdcbir_slo_*.
  EXPECT_EQ(registry.GetGauge("slo.latency.state").Value(), 0);
  EXPECT_EQ(registry.GetGauge("slo.latency.fast_burn_permille").Value(), 0);
}

TEST(SloEngine, BreachesUnderInjectedLatencyAndRecovers) {
  MetricsRegistry registry;
  Histogram& latency = registry.GetHistogram("test.latency");
  std::uint64_t now = 0;
  SloEngine engine({LatencySlo()}, &registry, [&] { return now; });

  engine.Evaluate();  // baseline sample at t=0, nothing recorded
  EXPECT_EQ(engine.WorstState(), SloState::kOk);

  // Ten sessions at 100 ms against a 1 ms target: the whole window is bad,
  // so burn = 1.0 / (1 - 0.95) = 20 in both windows -> breach.
  for (int i = 0; i < 10; ++i) latency.Record(100 * 1000 * 1000);
  now = 10 * kSecond;
  engine.Evaluate();
  EXPECT_EQ(engine.WorstState(), SloState::kBreach);
  EXPECT_EQ(registry.GetGauge("slo.latency.state").Value(), 2);
  EXPECT_GT(registry.GetGauge("slo.latency.fast_burn_permille").Value(),
            14400 - 1);

  // No new traffic; once the bad burst ages out of the fast window only the
  // slow window still burns -> warn.
  now = 400 * kSecond;
  engine.Evaluate();
  EXPECT_EQ(engine.WorstState(), SloState::kWarn);

  // A flood of fast sessions dilutes the slow window too -> ok.
  for (int i = 0; i < 1000; ++i) latency.Record(1000);
  now = 500 * kSecond;
  engine.Evaluate();
  EXPECT_EQ(engine.WorstState(), SloState::kOk);
  EXPECT_EQ(registry.GetGauge("slo.latency.state").Value(), 0);

  const std::vector<SloStatus> statuses = engine.Snapshot();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].total, 1010u);
  EXPECT_EQ(statuses[0].state, SloState::kOk);
}

TEST(SloEngine, AvailabilityCountsBadRequests) {
  MetricsRegistry registry;
  Counter& requests = registry.GetCounter("test.requests");
  Counter& bad = registry.GetCounter("test.bad");
  SloDefinition def;
  def.name = "availability";
  def.kind = SloKind::kAvailability;
  def.metric = "test.requests";
  def.bad_metric = "test.bad";
  def.objective = 0.95;
  std::uint64_t now = 0;
  SloEngine engine({def}, &registry, [&] { return now; });
  engine.Evaluate();

  for (int i = 0; i < 50; ++i) {
    requests.Add();
    bad.Add();
  }
  now = 10 * kSecond;
  engine.Evaluate();
  EXPECT_EQ(engine.WorstState(), SloState::kBreach);
}

TEST(SloEngine, ZeroFloorHistogramSloNeverBurns) {
  MetricsRegistry registry;
  Histogram& jaccard = registry.GetHistogram("test.jaccard");
  SloDefinition def;
  def.name = "stability";
  def.kind = SloKind::kHistogramFloor;
  def.metric = "test.jaccard";
  def.threshold = 0.0;  // opt-out floor: exported but always ok
  def.objective = 0.5;
  std::uint64_t now = 0;
  SloEngine engine({def}, &registry, [&] { return now; });
  engine.Evaluate();
  for (int i = 0; i < 20; ++i) jaccard.Record(0);  // worst possible overlap
  now = 10 * kSecond;
  engine.Evaluate();
  EXPECT_EQ(engine.WorstState(), SloState::kOk);
}

TEST(SloEngine, SurvivesRegistryReset) {
  MetricsRegistry registry;
  Histogram& latency = registry.GetHistogram("test.latency");
  std::uint64_t now = 0;
  SloEngine engine({LatencySlo()}, &registry, [&] { return now; });
  engine.Evaluate();
  for (int i = 0; i < 10; ++i) latency.Record(100 * 1000 * 1000);
  now = 10 * kSecond;
  engine.Evaluate();
  EXPECT_EQ(engine.WorstState(), SloState::kBreach);

  // Totals regress after a reset; the monotonic guard restarts the window
  // ring instead of computing negative deltas.
  registry.Reset();
  now = 20 * kSecond;
  engine.Evaluate();
  now = 30 * kSecond;
  engine.Evaluate();
  EXPECT_EQ(engine.WorstState(), SloState::kOk);
}

TEST(SloEngine, RenderJsonListsEverySloWithState) {
  MetricsRegistry registry;
  std::uint64_t now = 0;
  SloDefinition floor;
  floor.name = "stability";
  floor.kind = SloKind::kHistogramFloor;
  floor.metric = "test.jaccard";
  SloEngine engine({LatencySlo(), floor}, &registry, [&] { return now; });
  engine.Evaluate();
  const std::string json = engine.RenderJson();
  EXPECT_NE(json.find("\"slos\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"latency\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"stability\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"latency_quantile\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"histogram_floor\""), std::string::npos);
  EXPECT_NE(json.find("\"state\":\"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"objective\":0.95"), std::string::npos);
}

/// The (good, total) cut of histogram `name` at `threshold`, computed from
/// a whole-registry snapshot's cumulative buckets: buckets with an upper
/// bound at or below the threshold are good, and a threshold at or beyond
/// the last non-empty bound makes everything good.
std::pair<std::uint64_t, std::uint64_t> CutFromSnapshot(
    const MetricsRegistry::RegistrySnapshot& snap, const std::string& name,
    double threshold) {
  for (const auto& [histogram, buckets] : snap.histogram_buckets) {
    if (histogram != name) continue;
    std::uint64_t good = 0;
    std::uint64_t total = 0;
    for (const auto& [upper, cumulative] : buckets) {
      total = cumulative;
      if (static_cast<double>(upper) <= threshold) good = cumulative;
    }
    if (!buckets.empty() &&
        threshold >= static_cast<double>(buckets.back().first)) {
      good = total;
    }
    return {good, total};
  }
  return {0, 0};
}

std::uint64_t CounterFromSnapshot(
    const MetricsRegistry::RegistrySnapshot& snap, const std::string& name) {
  for (const auto& [counter, value] : snap.counters) {
    if (counter == name) return value;
  }
  return 0;
}

TEST(SloEngine, SourceReadsMatchTheWholeRegistryCutForEveryKind) {
  MetricsRegistry registry;
  // Unrelated histograms the engine must not need to read.
  for (int i = 0; i < 200; ++i) {
    Histogram& other =
        registry.GetHistogram("unrelated." + std::to_string(i));
    for (std::uint64_t v = 0; v < 50; ++v) other.Record(v * 977 + i);
  }

  // Latency values straddling 1 ms: below, on, and just past the bucket
  // edges around the threshold, plus far beyond it.
  Histogram& latency = registry.GetHistogram("test.latency");
  for (const std::uint64_t v :
       {0ull, 7ull, 500ull, 999999ull, 1000000ull, 1000001ull, 1015807ull,
        1015808ull, 1048575ull, 1048576ull, 2000000ull, 100000000ull}) {
    latency.Record(v);
    latency.Record(v);
  }
  // Quality permille values straddling a 700 floor.
  Histogram& jaccard = registry.GetHistogram("test.jaccard");
  for (std::uint64_t v = 0; v <= 1000; v += 25) jaccard.Record(v);
  registry.GetCounter("test.requests").Add(1000);
  registry.GetCounter("test.bad").Add(13);
  registry.GetCounter("test.hits").Add(340);
  registry.GetCounter("test.misses").Add(66);

  std::vector<SloDefinition> defs;
  for (const double threshold :
       {-1.0, 0.0, 0.5, 7.0, 1e6, 1015807.0, 1015807.5, 1048575.0, 1e8,
        1e12}) {
    SloDefinition def = LatencySlo();
    def.name = "latency_" + std::to_string(defs.size());
    def.threshold = threshold;
    defs.push_back(def);
  }
  for (const double threshold : {0.0, 699.0, 700.0, 701.0, 1000.0, 5000.0}) {
    SloDefinition def;
    def.name = "floor_" + std::to_string(defs.size());
    def.kind = SloKind::kHistogramFloor;
    def.metric = "test.jaccard";
    def.threshold = threshold;
    defs.push_back(def);
  }
  SloDefinition availability;
  availability.name = "availability";
  availability.kind = SloKind::kAvailability;
  availability.metric = "test.requests";
  availability.bad_metric = "test.bad";
  defs.push_back(availability);
  SloDefinition ratio;
  ratio.name = "ratio";
  ratio.kind = SloKind::kRatioFloor;
  ratio.metric = "test.hits";
  ratio.bad_metric = "test.misses";
  defs.push_back(ratio);
  SloDefinition unregistered = LatencySlo();
  unregistered.name = "unregistered";
  unregistered.metric = "test.never_registered";
  defs.push_back(unregistered);

  std::uint64_t now = 0;
  SloEngine engine(defs, &registry, [&] { return now; });
  engine.Evaluate();
  const MetricsRegistry::RegistrySnapshot snap = registry.Snapshot();
  const std::vector<SloStatus> statuses = engine.Snapshot();
  ASSERT_EQ(statuses.size(), defs.size());
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const SloDefinition& def = defs[i];
    std::uint64_t good = 0;
    std::uint64_t total = 0;
    switch (def.kind) {
      case SloKind::kLatencyQuantile:
        std::tie(good, total) =
            CutFromSnapshot(snap, def.metric, def.threshold);
        break;
      case SloKind::kHistogramFloor: {
        std::uint64_t at_or_below = 0;
        std::tie(at_or_below, total) =
            CutFromSnapshot(snap, def.metric, def.threshold);
        good = def.threshold <= 0.0 ? total : total - at_or_below;
        break;
      }
      case SloKind::kAvailability:
        total = CounterFromSnapshot(snap, def.metric);
        good = total - CounterFromSnapshot(snap, def.bad_metric);
        break;
      case SloKind::kRatioFloor:
        good = CounterFromSnapshot(snap, def.metric);
        total = good + CounterFromSnapshot(snap, def.bad_metric);
        break;
    }
    EXPECT_EQ(statuses[i].good, good) << def.name;
    EXPECT_EQ(statuses[i].total, total) << def.name;
  }
  // The cut is not trivial: some thresholds split the histograms.
  EXPECT_EQ(statuses[4].total, 24u);
  EXPECT_GT(statuses[4].good, 0u);
  EXPECT_LT(statuses[4].good, statuses[4].total);
  // The engine looked metrics up without registering any.
  EXPECT_EQ(registry.FindHistogram("test.never_registered"), nullptr);
}

TEST(SloEngine, WindowRingStaysBoundedOverAnHourOfFrequentEvaluation) {
  MetricsRegistry registry;
  Histogram& latency = registry.GetHistogram("test.latency");
  std::uint64_t now = 0;
  const SloDefinition def = LatencySlo();
  SloEngine engine({def}, &registry, [&] { return now; });
  const std::uint64_t granularity =
      def.fast_window_ns / SloEngine::kWindowSlotsPerFastWindow;
  const std::size_t bound =
      (def.slow_window_ns + granularity - 1) / granularity + 2;

  // 100 evaluations per second of injected clock for 65 minutes, with the
  // breach -> warn -> ok sequence of BreachesUnderInjectedLatencyAndRecovers
  // played once the slow window's worth of samples has accumulated.
  constexpr std::uint64_t kTick = kSecond / 100;
  constexpr std::uint64_t kMinute = 60 * kSecond;
  const std::uint64_t burst_at = 50 * kMinute;
  const std::uint64_t flood_at = burst_at + 400 * kSecond;
  std::vector<std::pair<SloState, std::uint64_t>> transitions = {
      {SloState::kOk, 0}};
  std::size_t largest_ring = 0;
  for (now = 0; now <= 65 * kMinute; now += kTick) {
    engine.Evaluate();
    largest_ring = std::max(largest_ring, engine.window_samples());
    ASSERT_LE(engine.window_samples(), bound) << "at " << now / kSecond << " s";
    const SloState state = engine.WorstState();
    if (state != transitions.back().first) transitions.push_back({state, now});
    if (now == burst_at) {
      for (int i = 0; i < 10; ++i) latency.Record(100 * 1000 * 1000);
    }
    if (now == flood_at) {
      for (int i = 0; i < 1000; ++i) latency.Record(1000);
    }
  }
  // The ring filled up to (about) the slow window and no further.
  EXPECT_GE(largest_ring, bound - 2);

  ASSERT_EQ(transitions.size(), 4u);
  EXPECT_EQ(transitions[1].first, SloState::kBreach);
  EXPECT_EQ(transitions[1].second, burst_at + kTick);
  // The burst ages out of the fast window within one granularity slot.
  EXPECT_EQ(transitions[2].first, SloState::kWarn);
  EXPECT_GE(transitions[2].second, burst_at + def.fast_window_ns);
  EXPECT_LE(transitions[2].second,
            burst_at + def.fast_window_ns + granularity + kTick);
  EXPECT_EQ(transitions[3].first, SloState::kOk);
  EXPECT_EQ(transitions[3].second, flood_at + kTick);

  const std::vector<SloStatus> statuses = engine.Snapshot();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].total, 1010u);
  EXPECT_EQ(statuses[0].state, SloState::kOk);
}

}  // namespace
}  // namespace obs
}  // namespace qdcbir
