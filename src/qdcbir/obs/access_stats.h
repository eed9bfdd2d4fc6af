#ifndef QDCBIR_OBS_ACCESS_STATS_H_
#define QDCBIR_OBS_ACCESS_STATS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "qdcbir/obs/resource_stats.h"

namespace qdcbir {
namespace obs {

/// Process-wide per-leaf access table: the serve layer drains each
/// session's leaf rows (`ResourceAccumulator::LeafSnapshot`) into it when
/// the session ends, and `/indexz` joins its snapshot with the RFS tree
/// walk. Sharded by leaf id so concurrent
/// finalizes don't contend; `Reset` starts a fresh epoch on snapshot
/// reload (leaf ids are only stable within one loaded tree).
class AccessStatsTable {
 public:
  static AccessStatsTable& Global();

  void MergeLeaf(AccessLeafId leaf, const LeafAccessCounts& counts);
  void MergeSession(const std::vector<LeafAccess>& rows);

  /// Every leaf ever touched this epoch, sorted by leaf id.
  std::vector<LeafAccess> Snapshot() const;
  LeafAccessCounts Totals() const;
  std::uint64_t sessions_merged() const {
    return sessions_merged_.load(std::memory_order_relaxed);
  }

  void Reset();

 private:
  static constexpr std::size_t kShards = 16;
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<AccessLeafId, LeafAccessCounts> leaves;
  };
  Shard shards_[kShards];
  std::atomic<std::uint64_t> sessions_merged_{0};
};

/// Bounded top-K leaf-pair co-occurrence tracker (Space-Saving style): per
/// completed session the touched-leaf set is recorded and every unordered
/// pair's count bumped. At capacity the minimum-count pair is evicted and
/// the newcomer inherits its count + 1, so heavy pairs survive while
/// `evictions()` makes the approximation visible. Sets larger than the
/// per-set leaf cap are truncated (lowest leaf ids kept) and counted in
/// `leaves_truncated()` — memory stays fixed no matter the workload.
class CoAccessTracker {
 public:
  struct PairCount {
    AccessLeafId a = 0;  ///< a < b always
    AccessLeafId b = 0;
    std::uint64_t count = 0;
  };

  explicit CoAccessTracker(std::size_t max_pairs = 4096,
                           std::size_t max_set_leaves = 64);

  static CoAccessTracker& Global();

  /// Records one session's touched-leaf set (deduped internally).
  void RecordTouchedSet(std::vector<AccessLeafId> leaves);

  /// The heaviest pairs, count-descending (ties by a then b), at most `n`.
  std::vector<PairCount> TopPairs(std::size_t n) const;

  std::uint64_t sets_recorded() const;
  std::uint64_t evictions() const;
  std::uint64_t leaves_truncated() const;

  void Reset();

 private:
  const std::size_t max_pairs_;
  const std::size_t max_set_leaves_;
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::uint64_t> pairs_;
  std::uint64_t sets_recorded_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t leaves_truncated_ = 0;
};

/// Renders the hottest `top_n` leaves of an access snapshot as labeled
/// Prometheus samples (`qdcbir_index_leaf_*{leaf="17"}`), with TYPE/HELP
/// headers and label values escaped per the exposition format. The
/// table-scan bucket renders as leaf="table". Appended to `/metrics` after
/// the registry families — the registry itself stays label-free.
std::string RenderIndexLeafPrometheusText(const std::vector<LeafAccess>& rows,
                                          std::size_t top_n);

}  // namespace obs
}  // namespace qdcbir

#endif  // QDCBIR_OBS_ACCESS_STATS_H_
