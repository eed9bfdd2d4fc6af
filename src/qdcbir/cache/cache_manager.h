#ifndef QDCBIR_CACHE_CACHE_MANAGER_H_
#define QDCBIR_CACHE_CACHE_MANAGER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace qdcbir {
namespace cache {

/// What a cached value is. The kind is part of the key, so the payload type
/// behind a key is fixed by the inserting call site's convention and
/// `CacheManager::LookupAs<T>` casts are safe by construction.
enum class CacheKind : std::uint8_t {
  kRepresentatives = 0,  ///< rendered representative payloads (PPM bytes)
  kTopK = 1,             ///< finalized QD results for session replays
};

inline constexpr std::size_t kNumCacheKinds = 2;

const char* CacheKindName(CacheKind kind);

/// A cache identity: the entry kind plus three caller-chosen 64-bit words.
/// Callers put structural ids (image id, SIMD level) in the open words
/// and fold everything else that determines the value — feedback bytes,
/// weight bytes, k — through `HashBytes`/`HashCombine`. Two keys equal
/// ⇒ the cached value is byte-identical to recomputation, which is the
/// whole determinism contract (docs/caching.md).
struct CacheKey {
  CacheKind kind = CacheKind::kTopK;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;

  bool operator==(const CacheKey& other) const {
    return kind == other.kind && a == other.a && b == other.b && c == other.c;
  }
};

/// FNV-1a over raw bytes; the building block for key words. Deterministic
/// across runs and platforms (no pointer values, no ASLR).
std::uint64_t HashBytes(const void* data, std::size_t size,
                        std::uint64_t seed = 0xcbf29ce484222325ull);

/// Folds one more word into an FNV-1a state.
inline std::uint64_t HashCombine(std::uint64_t state, std::uint64_t value) {
  return HashBytes(&value, sizeof(value), state);
}

/// Aggregate counters of one cache (or one kind within it). Monotonic
/// except `bytes_used`/`entries`, which track the live footprint.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;       ///< budget-pressure removals
  std::uint64_t rejected = 0;        ///< inserts refused (budget/stale epoch)
  std::uint64_t flushes = 0;         ///< BeginEpoch invalidation sweeps
  std::uint64_t bytes_used = 0;      ///< live charged bytes
  std::uint64_t bytes_highwater = 0; ///< max of bytes_used, never > budget
  std::uint64_t entries = 0;         ///< live entry count
};

/// A process-level cache with one global byte budget and N lock-striped
/// shards. Values are immutable (`shared_ptr<const void>`), so a reader's
/// copy of the pointer stays valid while a concurrent insert evicts the
/// entry. Eviction is frequency-based: each hit bumps a 16-bit counter
/// (wrapping naturally at 65535→0, which doubles as aging), and the victim
/// is the entry with the lowest (frequency, insertion sequence).
///
/// Byte accounting is exact: every entry charges its payload bytes plus
/// `kEntryOverheadBytes`, reserved against the budget with a CAS loop
/// *before* the entry becomes visible — `bytes_highwater()` therefore never
/// exceeds the configured budget, which the TSan stress test asserts.
///
/// Invalidation is epoch-tokened. `Lookup` on a miss hands back the current
/// epoch; `Insert` requires it and refuses stale tokens. `BeginEpoch`
/// advances the epoch *first* and then clears the shards, so a value
/// computed against the old snapshot can never be inserted — and thus never
/// returned — after invalidation, even when the compute raced the flush.
///
/// One epoch maps to exactly one immutable corpus: the owner (the serve
/// reload hook, the CLI, tests) calls `BeginEpoch(snapshot_identity)`
/// whenever the underlying snapshot changes, so keys never need to encode
/// corpus identity themselves.
class CacheManager {
 public:
  /// Bytes charged per entry on top of the payload: the key, the control
  /// block, the hash-map node. A round constant so tests can assert exact
  /// accounting.
  static constexpr std::size_t kEntryOverheadBytes = 64;

  struct Options {
    std::size_t budget_bytes = 64ull << 20;
    std::size_t shard_count = 16;  ///< clamped to [1, 256]
  };

  explicit CacheManager(const Options& options);
  CacheManager(const CacheManager&) = delete;
  CacheManager& operator=(const CacheManager&) = delete;

  struct LookupResult {
    /// The cached payload, or null on miss.
    std::shared_ptr<const void> value;
    /// On miss: the epoch token to pass to `Insert` once the value is
    /// computed. Unset on hit.
    std::uint64_t epoch = 0;
  };

  LookupResult Lookup(const CacheKey& key);

  /// Typed lookup: casts the payload to the call site's per-kind type. On
  /// miss, stores the insert token into `*epoch`.
  template <typename T>
  std::shared_ptr<const T> LookupAs(const CacheKey& key,
                                    std::uint64_t* epoch) {
    LookupResult result = Lookup(key);
    if (result.value == nullptr) {
      *epoch = result.epoch;
      return nullptr;
    }
    return std::static_pointer_cast<const T>(std::move(result.value));
  }

  /// Publishes `value` (costing `value_bytes` + overhead) under `key`.
  /// Returns false without caching when `epoch` is stale (an invalidation
  /// happened since the Lookup), when the entry cannot fit even after
  /// eviction, or when the payload alone exceeds the whole budget. A racing
  /// duplicate insert (same key) is treated as success.
  bool Insert(const CacheKey& key, std::shared_ptr<const void> value,
              std::size_t value_bytes, std::uint64_t epoch);

  template <typename T>
  bool InsertAs(const CacheKey& key, std::shared_ptr<const T> value,
                std::size_t value_bytes, std::uint64_t epoch) {
    return Insert(key, std::static_pointer_cast<const void>(std::move(value)),
                  value_bytes, epoch);
  }

  /// Invalidates everything: advances the epoch (so in-flight computes
  /// against the old snapshot cannot insert), then drops every entry.
  /// `snapshot_identity` names the corpus generation now being served; it
  /// is exposed for diagnostics only.
  void BeginEpoch(std::uint64_t snapshot_identity);

  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }
  std::uint64_t snapshot_identity() const {
    return snapshot_identity_.load(std::memory_order_relaxed);
  }

  std::size_t budget_bytes() const { return budget_bytes_; }
  std::size_t shard_count() const { return shards_.size(); }
  std::uint64_t bytes_used() const {
    return used_.load(std::memory_order_relaxed);
  }
  /// Precise maximum of `bytes_used()` over the cache's lifetime,
  /// maintained with a CAS-max at reservation time. Never exceeds
  /// `budget_bytes()` — reservation happens before the bytes are counted.
  std::uint64_t bytes_highwater() const {
    return highwater_.load(std::memory_order_relaxed);
  }

  CacheStats TotalStats() const;
  CacheStats KindStats(CacheKind kind) const;

 private:
  struct KeyHash {
    std::size_t operator()(const CacheKey& key) const;
  };

  struct Entry {
    std::shared_ptr<const void> value;
    std::size_t charged_bytes = 0;
    std::uint64_t insert_seq = 0;  ///< eviction tie-break: oldest first
    std::uint16_t frequency = 0;   ///< hit count, wraps 65535→0 (aging)
    CacheKind kind = CacheKind::kTopK;
  };

  struct Shard {
    std::mutex mu;
    std::unordered_map<CacheKey, Entry, KeyHash> map;
  };

  Shard& ShardFor(const CacheKey& key);
  /// Removes the lowest-(frequency, insert_seq) entry of `shard` (whose
  /// lock the caller holds) and releases its bytes. False when empty.
  bool EvictOneLocked(Shard& shard);
  /// Tries to reserve `bytes` against the budget, evicting (own shard
  /// first, then try-locked siblings) until it fits. False = reject.
  bool ReserveBytes(std::size_t bytes, Shard& own_shard);
  void ReleaseBytes(std::size_t bytes);
  void CountEviction(CacheKind kind, std::size_t charged_bytes);

  const std::size_t budget_bytes_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::uint64_t> used_{0};
  std::atomic<std::uint64_t> highwater_{0};
  std::atomic<std::uint64_t> epoch_{1};
  std::atomic<std::uint64_t> snapshot_identity_{0};
  std::atomic<std::uint64_t> insert_seq_{0};
  std::atomic<std::uint64_t> live_entries_{0};

  struct KindCounters {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> insertions{0};
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::uint64_t> bytes_used{0};
    std::atomic<std::uint64_t> entries{0};
  };
  KindCounters kind_counters_[kNumCacheKinds];
  std::atomic<std::uint64_t> flushes_{0};
};

}  // namespace cache
}  // namespace qdcbir

#endif  // QDCBIR_CACHE_CACHE_MANAGER_H_
