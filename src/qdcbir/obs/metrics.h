#ifndef QDCBIR_OBS_METRICS_H_
#define QDCBIR_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "qdcbir/obs/clock.h"

namespace qdcbir {
namespace obs {

/// Hot-path metric primitives. Every mutation lands in a per-thread shard
/// (cache-line padded, relaxed atomics), so recording from the thread pool's
/// workers never contends; readers merge the shards into a snapshot.
///
/// Naming scheme (see docs/observability.md):
///   `<subsystem>.<object>.<measure>[_<unit>]`, e.g. `pool.task.wait_ns`,
///   `qd.finalize.subqueries`, `span.qd.finalize.merge` (histograms created
///   by `QDCBIR_SPAN` carry the `span.` prefix and record nanoseconds).

namespace internal {

/// Shard slot for the calling thread. Threads map round-robin onto
/// `num_shards` slots; distinct pool workers get distinct slots until the
/// shard count is exhausted.
inline std::size_t ShardIndex(std::size_t num_shards) {
  return static_cast<std::size_t>(ThreadTid()) & (num_shards - 1);
}

struct alignas(64) PaddedU64 {
  std::atomic<std::uint64_t> v{0};
};

struct alignas(64) PaddedI64 {
  std::atomic<std::int64_t> v{0};
};

}  // namespace internal

/// A monotonically increasing sum (events, items, nanoseconds of work).
class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  void Add(std::uint64_t delta = 1) {
    shards_[internal::ShardIndex(kShards)].v.fetch_add(
        delta, std::memory_order_relaxed);
  }

  std::uint64_t Value() const {
    std::uint64_t sum = 0;
    for (const auto& shard : shards_) {
      sum += shard.v.load(std::memory_order_relaxed);
    }
    return sum;
  }

  void Clear() {
    for (auto& shard : shards_) shard.v.store(0, std::memory_order_relaxed);
  }

 private:
  internal::PaddedU64 shards_[kShards];
};

/// A point-in-time signed level (queue depth, active workers). `Add` is
/// sharded like a counter; `Value` sums the shards, so concurrent +1/-1
/// pairs from different threads cancel exactly. A high-water mark is kept
/// best-effort (maintained on every mutation, without cross-shard
/// synchronization).
class Gauge {
 public:
  static constexpr std::size_t kShards = 16;

  void Add(std::int64_t delta) {
    shards_[internal::ShardIndex(kShards)].v.fetch_add(
        delta, std::memory_order_relaxed);
    if (delta > 0) {
      const std::int64_t now = Value();
      std::int64_t seen = max_.load(std::memory_order_relaxed);
      while (now > seen &&
             !max_.compare_exchange_weak(seen, now,
                                         std::memory_order_relaxed)) {
      }
    }
  }

  void Set(std::int64_t value) {
    // Collapse every shard into shard 0; used from single-threaded setup
    // code (sizing gauges), not hot paths.
    for (std::size_t s = 1; s < kShards; ++s) {
      shards_[s].v.store(0, std::memory_order_relaxed);
    }
    shards_[0].v.store(value, std::memory_order_relaxed);
    std::int64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  std::int64_t Value() const {
    std::int64_t sum = 0;
    for (const auto& shard : shards_) {
      sum += shard.v.load(std::memory_order_relaxed);
    }
    return sum;
  }

  std::int64_t Max() const { return max_.load(std::memory_order_relaxed); }

  void Clear() {
    for (auto& shard : shards_) shard.v.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  internal::PaddedI64 shards_[kShards];
  std::atomic<std::int64_t> max_{0};
};

/// A log-linear latency/value histogram (HdrHistogram-style bucketing):
/// 8 sub-buckets per power of two, so any recorded value lands in a bucket
/// whose width is at most 1/8 of its magnitude — percentile estimates carry
/// a bounded ~6% relative error. Values are non-negative integers
/// (conventionally nanoseconds).
class Histogram {
 public:
  static constexpr std::size_t kShards = 8;
  static constexpr std::size_t kSubBits = 3;  // 8 sub-buckets per octave
  static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBits;
  /// Buckets 0..7 are exact; each further octave (up to 2^63) adds 8.
  static constexpr std::size_t kNumBuckets = (64 - kSubBits + 1) * kSubBuckets;

  void Record(std::uint64_t value);

  /// Largest value that maps into `bucket` — the Prometheus-style `le`
  /// upper bound of the bucket's value range.
  static std::uint64_t BucketUpperBound(std::size_t bucket);

  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;

    double mean() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
  };

  /// Merges the shards once. Safe to call while writers are active; the
  /// result is a consistent-enough view (each bucket read once, relaxed),
  /// and `count` is the sum of the merged buckets. When `cumulative` is
  /// given it receives the merged non-empty buckets as (upper_bound,
  /// cumulative_count) pairs with strictly increasing bounds — the
  /// cumulative-bucket form Prometheus exposition needs — so its last
  /// count equals `count` by construction.
  Snapshot Snap(std::vector<std::pair<std::uint64_t, std::uint64_t>>*
                    cumulative = nullptr) const;

  /// Events recorded so far: the shards' event counts, without a bucket
  /// merge.
  std::uint64_t Count() const;

  /// Events in the buckets whose upper bound is at most `bound`, merging
  /// only the buckets up to `bound`'s own. With `Count()` this is the
  /// good/total cut of a latency threshold, read at a cost that grows with
  /// the threshold rather than with the whole bucket range.
  std::uint64_t CountAtOrBelow(std::uint64_t bound) const;

  static std::size_t BucketOf(std::uint64_t value);
  /// Midpoint of a bucket's value range — the representative reported for
  /// percentiles falling inside it.
  static double BucketMidpoint(std::size_t bucket);

  void Clear();

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> buckets[kNumBuckets];
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{~std::uint64_t{0}};
    std::atomic<std::uint64_t> max{0};
  };

  std::unique_ptr<Shard[]> shards_ = std::make_unique<Shard[]>(kShards);
};

/// What a metric *is*, beyond its merged value: the exposition metadata
/// Prometheus rendering needs. The kind is implied by the primitive; the
/// unit is inferred from the metric name's suffix at registration time
/// (`_ns` → nanoseconds, `bytes` → bytes); the help string is supplied by
/// the registration site.
struct MetricMeta {
  std::string help;
  std::string unit;
};

/// An OpenMetrics-style exemplar: one recent recorded value of a histogram
/// bucket, linked to the trace that produced it. Prometheus exposition
/// renders it as `... # {trace_id="<hex>"} <value>` after the bucket
/// sample, which is how a latency histogram points at example slow traces.
struct HistogramExemplar {
  std::uint64_t value = 0;
  std::uint64_t bucket_le = 0;  ///< upper bound of the bucket it landed in
  std::string trace_id;         ///< 32-hex trace id
};

/// Name → metric directory. Lookup takes a mutex (registration is cold);
/// call sites cache the returned reference — metrics are never deleted, so
/// references stay valid for the process lifetime.
class MetricsRegistry {
 public:
  /// The process-wide registry every in-tree call site records into.
  static MetricsRegistry& Global();

  /// `help`, when given at the registration site, becomes the metric's
  /// `# HELP` line in Prometheus exposition (first non-empty help wins).
  Counter& GetCounter(const std::string& name, const char* help = nullptr);
  Gauge& GetGauge(const std::string& name, const char* help = nullptr);
  Histogram& GetHistogram(const std::string& name,
                          const char* help = nullptr);
  /// The latency histogram behind a `QDCBIR_SPAN(name)` call site:
  /// `span.<name>`, recording nanoseconds.
  Histogram& SpanHistogram(const char* span_name);

  /// Attaches an exemplar to the bucket of `name` that `value` maps into
  /// (latest write per bucket wins). Call alongside — not instead of —
  /// `Histogram::Record`. Once-per-session cost: one mutex acquisition.
  /// Ignored when `trace_id` is empty.
  void RecordExemplar(const std::string& name, std::uint64_t value,
                      const std::string& trace_id);

  /// The metric registered under `name`, or nullptr when none is — a
  /// lookup that, unlike `Get*`, never registers anything. Readers that
  /// need a few metrics resolve them once and then read them directly.
  const Counter* FindCounter(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;

  /// Merged point-in-time view of every registered metric, sorted by name.
  struct RegistrySnapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    /// name → (value, high-water mark)
    std::vector<std::pair<std::string, std::pair<std::int64_t, std::int64_t>>>
        gauges;
    std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;
    /// name → (upper_bound, cumulative_count) list, parallel to
    /// `histograms` — the exposition-ready cumulative bucket form.
    std::vector<std::pair<
        std::string, std::vector<std::pair<std::uint64_t, std::uint64_t>>>>
        histogram_buckets;
    /// Exposition metadata for every name above (possibly empty help).
    std::map<std::string, MetricMeta> meta;
    /// Histogram name → exemplars, ascending by bucket upper bound.
    std::map<std::string, std::vector<HistogramExemplar>> exemplars;
  };
  RegistrySnapshot Snapshot() const;

  /// Counters and gauges only: no histogram is merged and no metadata is
  /// copied (`histograms`, `histogram_buckets`, `meta` and `exemplars` stay
  /// empty). The cheap read for samplers of scalar series.
  RegistrySnapshot ScalarSnapshot() const;

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  /// Embedded verbatim in bench records and dumped by the tools' /
  /// benches' `--metrics-json` paths.
  std::string SnapshotJson() const;

  /// Zeroes every registered metric (registrations survive). For tests and
  /// per-section bench deltas; not safe against concurrent writers that
  /// expect exact totals.
  void Reset();

 private:
  void RecordMeta(const std::string& name, const char* help);
  void SnapScalarsLocked(RegistrySnapshot* snap) const;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, MetricMeta> meta_;
  /// name → (bucket upper bound → exemplar).
  std::map<std::string, std::map<std::uint64_t, HistogramExemplar>>
      exemplars_;
};

}  // namespace obs
}  // namespace qdcbir

#endif  // QDCBIR_OBS_METRICS_H_
