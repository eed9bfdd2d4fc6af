#include "qdcbir/obs/metrics.h"

#include <bit>
#include <cstdio>

namespace qdcbir {
namespace obs {

std::size_t Histogram::BucketOf(std::uint64_t value) {
  if (value < kSubBuckets) return static_cast<std::size_t>(value);
  const std::size_t msb = 63 - static_cast<std::size_t>(std::countl_zero(value));
  const std::size_t shift = msb - kSubBits;
  const std::size_t sub =
      static_cast<std::size_t>(value >> shift) - kSubBuckets;
  return (msb - kSubBits + 1) * kSubBuckets + sub;
}

double Histogram::BucketMidpoint(std::size_t bucket) {
  if (bucket < kSubBuckets) return static_cast<double>(bucket);
  const std::size_t octave = bucket / kSubBuckets;  // >= 1
  const std::size_t sub = bucket % kSubBuckets;
  const std::size_t shift = octave - 1;
  const double lower =
      static_cast<double>((kSubBuckets + sub)) * static_cast<double>(
          std::uint64_t{1} << shift);
  const double width = static_cast<double>(std::uint64_t{1} << shift);
  return lower + width / 2.0;
}

std::uint64_t Histogram::BucketUpperBound(std::size_t bucket) {
  if (bucket < kSubBuckets) return static_cast<std::uint64_t>(bucket);
  const std::size_t octave = bucket / kSubBuckets;  // >= 1
  const std::size_t sub = bucket % kSubBuckets;
  const std::size_t shift = octave - 1;
  const std::uint64_t lower = (kSubBuckets + sub) << shift;
  const std::uint64_t width = std::uint64_t{1} << shift;
  return lower + width - 1;
}

void Histogram::Record(std::uint64_t value) {
  Shard& shard = shards_[internal::ShardIndex(kShards)];
  shard.buckets[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t seen = shard.min.load(std::memory_order_relaxed);
  while (value < seen && !shard.min.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
  seen = shard.max.load(std::memory_order_relaxed);
  while (value > seen && !shard.max.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::Snap(
    std::vector<std::pair<std::uint64_t, std::uint64_t>>* cumulative) const {
  std::uint64_t merged[kNumBuckets] = {};
  Snapshot snap;
  snap.min = ~std::uint64_t{0};
  for (std::size_t s = 0; s < kShards; ++s) {
    const Shard& shard = shards_[s];
    for (std::size_t b = 0; b < kNumBuckets; ++b) {
      merged[b] += shard.buckets[b].load(std::memory_order_relaxed);
    }
    snap.sum += shard.sum.load(std::memory_order_relaxed);
    const std::uint64_t mn = shard.min.load(std::memory_order_relaxed);
    const std::uint64_t mx = shard.max.load(std::memory_order_relaxed);
    if (mn < snap.min) snap.min = mn;
    if (mx > snap.max) snap.max = mx;
  }
  if (cumulative != nullptr) cumulative->clear();
  for (std::size_t b = 0; b < kNumBuckets; ++b) {
    if (merged[b] == 0) continue;
    snap.count += merged[b];
    if (cumulative != nullptr) {
      cumulative->emplace_back(BucketUpperBound(b), snap.count);
    }
  }
  if (snap.count == 0) {
    snap.min = 0;
    return snap;
  }

  const auto percentile = [&](double q) {
    // The value at rank ceil(q * count), reported as its bucket midpoint
    // clamped into the observed [min, max] range (so p100-ish quantiles of
    // tiny samples do not overshoot the true maximum).
    const std::uint64_t rank = static_cast<std::uint64_t>(
        q * static_cast<double>(snap.count) + 0.5);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kNumBuckets; ++b) {
      seen += merged[b];
      if (seen >= rank && merged[b] > 0) {
        double v = BucketMidpoint(b);
        if (v < static_cast<double>(snap.min)) {
          v = static_cast<double>(snap.min);
        }
        if (v > static_cast<double>(snap.max)) {
          v = static_cast<double>(snap.max);
        }
        return v;
      }
    }
    return static_cast<double>(snap.max);
  };
  snap.p50 = percentile(0.50);
  snap.p90 = percentile(0.90);
  snap.p95 = percentile(0.95);
  snap.p99 = percentile(0.99);
  return snap;
}

std::uint64_t Histogram::Count() const {
  std::uint64_t count = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    count += shards_[s].count.load(std::memory_order_relaxed);
  }
  return count;
}

std::uint64_t Histogram::CountAtOrBelow(std::uint64_t bound) const {
  // Upper bounds increase with the bucket index, so the qualifying buckets
  // are a prefix: up to `bound`'s bucket, or the one before it when that
  // bucket's range reaches past `bound`.
  std::size_t last = BucketOf(bound);
  if (last > 0 && BucketUpperBound(last) > bound) --last;
  std::uint64_t count = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    const Shard& shard = shards_[s];
    for (std::size_t b = 0; b <= last; ++b) {
      count += shard.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return count;
}

void Histogram::Clear() {
  for (std::size_t s = 0; s < kShards; ++s) {
    Shard& shard = shards_[s];
    for (std::size_t b = 0; b < kNumBuckets; ++b) {
      shard.buckets[b].store(0, std::memory_order_relaxed);
    }
    shard.count.store(0, std::memory_order_relaxed);
    shard.sum.store(0, std::memory_order_relaxed);
    shard.min.store(~std::uint64_t{0}, std::memory_order_relaxed);
    shard.max.store(0, std::memory_order_relaxed);
  }
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

namespace {

/// Unit inference from the repo's metric-naming convention
/// (docs/observability.md): `_ns` measures nanoseconds, `bytes` bytes.
std::string UnitOfName(const std::string& name) {
  if (name.size() >= 3 && name.compare(name.size() - 3, 3, "_ns") == 0) {
    return "nanoseconds";
  }
  if (name.find("bytes") != std::string::npos) return "bytes";
  return "";
}

}  // namespace

void MetricsRegistry::RecordMeta(const std::string& name, const char* help) {
  MetricMeta& meta = meta_[name];
  if (meta.unit.empty()) meta.unit = UnitOfName(name);
  if (meta.help.empty() && help != nullptr) meta.help = help;
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const char* help) {
  std::lock_guard<std::mutex> lock(mu_);
  RecordMeta(name, help);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name, const char* help) {
  std::lock_guard<std::mutex> lock(mu_);
  RecordMeta(name, help);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const char* help) {
  std::lock_guard<std::mutex> lock(mu_);
  RecordMeta(name, help);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

Histogram& MetricsRegistry::SpanHistogram(const char* span_name) {
  return GetHistogram(std::string("span.") + span_name,
                      "Wall time of the identically-named engine phase span");
}

void MetricsRegistry::RecordExemplar(const std::string& name,
                                     std::uint64_t value,
                                     const std::string& trace_id) {
  if (trace_id.empty()) return;
  const std::uint64_t le = Histogram::BucketUpperBound(
      Histogram::BucketOf(value));
  std::lock_guard<std::mutex> lock(mu_);
  exemplars_[name][le] = HistogramExemplar{value, le, trace_id};
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::FindHistogram(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

void MetricsRegistry::SnapScalarsLocked(RegistrySnapshot* snap) const {
  snap->counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap->counters.emplace_back(name, counter->Value());
  }
  snap->gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap->gauges.emplace_back(name,
                              std::make_pair(gauge->Value(), gauge->Max()));
  }
}

MetricsRegistry::RegistrySnapshot MetricsRegistry::ScalarSnapshot() const {
  RegistrySnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  SnapScalarsLocked(&snap);
  return snap;
}

MetricsRegistry::RegistrySnapshot MetricsRegistry::Snapshot() const {
  RegistrySnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  SnapScalarsLocked(&snap);
  for (const auto& [name, histogram] : histograms_) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
    snap.histograms.emplace_back(name, histogram->Snap(&buckets));
    snap.histogram_buckets.emplace_back(name, std::move(buckets));
  }
  snap.meta = meta_;
  for (const auto& [name, by_bucket] : exemplars_) {
    std::vector<HistogramExemplar>& list = snap.exemplars[name];
    list.reserve(by_bucket.size());
    for (const auto& [le, exemplar] : by_bucket) list.push_back(exemplar);
  }
  return snap;
}

namespace {

void AppendEscaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c == '\n' ? ' ' : c);
  }
}

void AppendNumber(std::string& out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  out += buf;
}

}  // namespace

std::string MetricsRegistry::SnapshotJson() const {
  const RegistrySnapshot snap = Snapshot();
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    AppendEscaped(out, name);
    out += "\":";
    out += std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value_max] : snap.gauges) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    AppendEscaped(out, name);
    out += "\":{\"value\":";
    out += std::to_string(value_max.first);
    out += ",\"max\":";
    out += std::to_string(value_max.second);
    out.push_back('}');
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    AppendEscaped(out, name);
    out += "\":{\"count\":";
    out += std::to_string(h.count);
    out += ",\"sum\":";
    out += std::to_string(h.sum);
    out += ",\"min\":";
    out += std::to_string(h.min);
    out += ",\"max\":";
    out += std::to_string(h.max);
    out += ",\"mean\":";
    AppendNumber(out, h.mean());
    out += ",\"p50\":";
    AppendNumber(out, h.p50);
    out += ",\"p90\":";
    AppendNumber(out, h.p90);
    out += ",\"p95\":";
    AppendNumber(out, h.p95);
    out += ",\"p99\":";
    AppendNumber(out, h.p99);
    out.push_back('}');
  }
  out += "}}";
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Clear();
  for (auto& [name, gauge] : gauges_) gauge->Clear();
  for (auto& [name, histogram] : histograms_) histogram->Clear();
  exemplars_.clear();
}

}  // namespace obs
}  // namespace qdcbir
