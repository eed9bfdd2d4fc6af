#ifndef QDCBIR_OBS_RESOURCE_STATS_H_
#define QDCBIR_OBS_RESOURCE_STATS_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace qdcbir {
namespace obs {

/// Physical work performed on behalf of one query/feedback round. Counted
/// at the engine hot paths (distance kernels' call sites, tree descent,
/// tile gathers, hot-container allocations) and summed across every pool
/// worker that touched the session, then published to `/queryz` and the
/// `serve.session.*` metric family. These are the "where did the cycles
/// go" denominators the sampling profiler's percentages divide into.
struct ResourceUsage {
  std::uint64_t distance_evals = 0;   ///< query-point × candidate distances
  std::uint64_t feature_bytes = 0;    ///< feature-vector bytes scanned
  std::uint64_t leaves_visited = 0;   ///< RFS tree nodes/leaves descended
  std::uint64_t tiles_gathered = 0;   ///< blocked-layout gather tiles built
  std::uint64_t container_allocs = 0; ///< hot-container allocations
  std::uint64_t alloc_bytes = 0;      ///< bytes those allocations requested
  /// Cache traffic (src/qdcbir/cache/): physical-work counters, so a hit
  /// legitimately *reduces* the other fields relative to a cold run — the
  /// logical cost model (QdSessionStats) stays identical either way.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  void Add(const ResourceUsage& other) {
    distance_evals += other.distance_evals;
    feature_bytes += other.feature_bytes;
    leaves_visited += other.leaves_visited;
    tiles_gathered += other.tiles_gathered;
    container_allocs += other.container_allocs;
    alloc_bytes += other.alloc_bytes;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
  }

  bool IsZero() const {
    return (distance_evals | feature_bytes | leaves_visited | tiles_gathered |
            container_allocs | alloc_bytes | cache_hits | cache_misses) == 0;
  }
};

/// Index region identifier for per-leaf accounting. RFS-backed localized
/// scans record the stable NodeId of the searched subtree root (a leaf
/// until boundary expansion widens it); engines that scan the flat feature
/// table (Qcluster list merging, Fagin sorted-list building) account under
/// `kTableScanLeaf`, so full-table work shows up in the same heatmap
/// without faking tree coordinates. Ids are stable within one loaded
/// snapshot generation — the serve layer resets the global table on reload.
using AccessLeafId = std::uint32_t;
inline constexpr AccessLeafId kTableScanLeaf = 0xffffffffu;

/// Physical index work attributed to one leaf (or the table-scan bucket).
/// Like `ResourceUsage` these are physical-work counters: a cache hit
/// legitimately reduces scans/evals relative to a cold run, while the
/// logical cost model (QdSessionStats) stays byte-identical either way.
struct LeafAccessCounts {
  std::uint64_t scans = 0;           ///< localized scans over this leaf
  std::uint64_t distance_evals = 0;  ///< query × candidate distances in them
  std::uint64_t feature_bytes = 0;   ///< feature-vector bytes read from it
  std::uint64_t cache_hits = 0;      ///< scans answered from the result cache
  std::uint64_t cache_misses = 0;    ///< scans that had to touch the leaf

  void Add(const LeafAccessCounts& other) {
    scans += other.scans;
    distance_evals += other.distance_evals;
    feature_bytes += other.feature_bytes;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
  }

  bool IsZero() const {
    return (scans | distance_evals | feature_bytes | cache_hits |
            cache_misses) == 0;
  }
};

/// One row of a per-leaf snapshot.
struct LeafAccess {
  AccessLeafId leaf = 0;
  LeafAccessCounts counts;
};

namespace internal {
struct ResourceTls;
/// Merges a thread's pending deltas into its (non-null) sink under one
/// lock, then zeroes them.
void FlushResourceTls(ResourceTls& state);
}  // namespace internal

/// Per-session sink: the session's usage totals plus its per-leaf rows.
/// Workers batch increments in plain thread-local deltas and merge once
/// per task (or on leaf-slot overflow), so the per-event cost on the hot
/// path is a thread-local null check plus ordinary adds — no atomics, no
/// sharing. Leaf rows are kept only when obs is compiled in; the totals
/// always count.
class ResourceAccumulator {
 public:
  ResourceUsage Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return usage_;
  }

  /// Per-leaf rows sorted by leaf id, so consumers see a deterministic
  /// order. Empty under `-DQDCBIR_OBS=OFF`.
  std::vector<LeafAccess> LeafSnapshot() const;

 private:
  friend void internal::FlushResourceTls(internal::ResourceTls& state);

  mutable std::mutex mu_;
  ResourceUsage usage_;
  std::unordered_map<AccessLeafId, LeafAccessCounts> leaves_;
};

namespace internal {

inline constexpr std::size_t kLeafTlsSlots = 8;

/// Per-thread accounting state: the active sink (null = accounting off,
/// every tap is a single predictable branch), the usage deltas batched
/// toward it, and a fixed slot table of per-leaf deltas. A localized
/// search touches one leaf at a time, so eight slots absorb a whole task
/// between flushes.
struct ResourceTls {
  ResourceAccumulator* accumulator = nullptr;
  ResourceUsage local;
  std::uint32_t leaves_used = 0;
  AccessLeafId leaf[kLeafTlsSlots] = {};
  LeafAccessCounts counts[kLeafTlsSlots] = {};
};

inline ResourceTls& ResourceState() {
  constinit thread_local ResourceTls state;
  return state;
}

/// The delta slot for `leaf` in an accounting thread's table; flushes the
/// table first when it is full.
inline LeafAccessCounts& LeafSlot(ResourceTls& state, AccessLeafId leaf) {
  for (std::uint32_t i = 0; i < state.leaves_used; ++i) {
    if (state.leaf[i] == leaf) return state.counts[i];
  }
  if (state.leaves_used == kLeafTlsSlots) FlushResourceTls(state);
  const std::uint32_t slot = state.leaves_used++;
  state.leaf[slot] = leaf;
  state.counts[slot] = LeafAccessCounts{};
  return state.counts[slot];
}

}  // namespace internal

/// The sink active on this thread, or null. Part of the `TaskContext` that
/// `ThreadPool` captures at enqueue (obs/task_context.h), so tasks spawned
/// while accounting carry the session's sink onto workers.
inline ResourceAccumulator* CurrentResourceAccumulator() {
  return internal::ResourceState().accumulator;
}

/// Hot-path taps. Each compiles to a TLS load, a branch, and an add; with
/// no active accumulator they are pure overheadless no-ops past the branch.
/// Call granularity should be per *scan or phase*, not per element — pass
/// the batch size.
inline void CountDistanceEvals(std::uint64_t n) {
  internal::ResourceTls& state = internal::ResourceState();
  if (state.accumulator != nullptr) state.local.distance_evals += n;
}
inline void CountFeatureBytes(std::uint64_t n) {
  internal::ResourceTls& state = internal::ResourceState();
  if (state.accumulator != nullptr) state.local.feature_bytes += n;
}
inline void CountLeafVisits(std::uint64_t n) {
  internal::ResourceTls& state = internal::ResourceState();
  if (state.accumulator != nullptr) state.local.leaves_visited += n;
}
inline void CountTileGathers(std::uint64_t n) {
  internal::ResourceTls& state = internal::ResourceState();
  if (state.accumulator != nullptr) state.local.tiles_gathered += n;
}
inline void CountContainerAlloc(std::uint64_t bytes) {
  internal::ResourceTls& state = internal::ResourceState();
  if (state.accumulator != nullptr) {
    state.local.container_allocs += 1;
    state.local.alloc_bytes += bytes;
  }
}
inline void CountCacheHit() {
  internal::ResourceTls& state = internal::ResourceState();
  if (state.accumulator != nullptr) state.local.cache_hits += 1;
}
inline void CountCacheMiss() {
  internal::ResourceTls& state = internal::ResourceState();
  if (state.accumulator != nullptr) state.local.cache_misses += 1;
}

/// One scan of `leaf` (or `kTableScanLeaf`): adds the distance evals and
/// feature bytes to the session totals and, when obs is compiled in, to
/// the leaf's row. The only tap a leaf or table scan needs.
inline void CountLeafScan([[maybe_unused]] AccessLeafId leaf,
                          std::uint64_t distance_evals,
                          std::uint64_t feature_bytes) {
  internal::ResourceTls& state = internal::ResourceState();
  if (state.accumulator == nullptr) return;
  state.local.distance_evals += distance_evals;
  state.local.feature_bytes += feature_bytes;
#ifndef QDCBIR_DISABLE_OBS
  LeafAccessCounts& slot = internal::LeafSlot(state, leaf);
  slot.scans += 1;
  slot.distance_evals += distance_evals;
  slot.feature_bytes += feature_bytes;
#endif
}

/// Per-leaf result-cache outcome of a scan. Leaf rows only: no-ops under
/// `-DQDCBIR_OBS=OFF`.
inline void CountLeafCacheHit([[maybe_unused]] AccessLeafId leaf) {
#ifndef QDCBIR_DISABLE_OBS
  internal::ResourceTls& state = internal::ResourceState();
  if (state.accumulator != nullptr) {
    internal::LeafSlot(state, leaf).cache_hits += 1;
  }
#endif
}
inline void CountLeafCacheMiss([[maybe_unused]] AccessLeafId leaf) {
#ifndef QDCBIR_DISABLE_OBS
  internal::ResourceTls& state = internal::ResourceState();
  if (state.accumulator != nullptr) {
    internal::LeafSlot(state, leaf).cache_misses += 1;
  }
#endif
}

/// Merges this thread's pending deltas (totals and leaf rows) into the
/// active sink now, without waiting for the enclosing scope to close.
/// Callers that read the accumulator while their own scope is still open
/// (session runners and the serve layer publishing audit records) flush
/// first.
inline void FlushResourceAccounting() {
  internal::ResourceTls& state = internal::ResourceState();
  if (state.accumulator != nullptr) internal::FlushResourceTls(state);
}

/// Installs `accumulator` as this thread's sink for the enclosing scope and
/// flushes the deltas gathered inside the scope into it on destruction.
/// Nests (inner scopes may re-install the same or another sink); a null
/// accumulator disables accounting for the scope. `ScopedTaskContext`
/// (obs/task_context.h) opens one per pool task and per serve request.
class ScopedResourceAccounting {
 public:
  explicit ScopedResourceAccounting(ResourceAccumulator* accumulator)
      : saved_(internal::ResourceState()) {
    internal::ResourceTls& state = internal::ResourceState();
    state.accumulator = accumulator;
    state.local = ResourceUsage{};
    state.leaves_used = 0;
  }

  ScopedResourceAccounting(const ScopedResourceAccounting&) = delete;
  ScopedResourceAccounting& operator=(const ScopedResourceAccounting&) =
      delete;

  ~ScopedResourceAccounting() {
    FlushResourceAccounting();
    internal::ResourceState() = saved_;
  }

 private:
  internal::ResourceTls saved_;
};

}  // namespace obs
}  // namespace qdcbir

#endif  // QDCBIR_OBS_RESOURCE_STATS_H_
