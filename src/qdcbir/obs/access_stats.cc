#include "qdcbir/obs/access_stats.h"

#include <algorithm>
#include <cstdio>

#include "qdcbir/obs/prom_export.h"

namespace qdcbir {
namespace obs {

AccessStatsTable& AccessStatsTable::Global() {
  static AccessStatsTable* table = new AccessStatsTable;
  return *table;
}

void AccessStatsTable::MergeLeaf(AccessLeafId leaf,
                                 const LeafAccessCounts& counts) {
  if (counts.IsZero()) return;
  Shard& shard = shards_[leaf % kShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.leaves[leaf].Add(counts);
}

void AccessStatsTable::MergeSession(const std::vector<LeafAccess>& rows) {
  for (const LeafAccess& row : rows) MergeLeaf(row.leaf, row.counts);
  if (!rows.empty()) {
    sessions_merged_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<LeafAccess> AccessStatsTable::Snapshot() const {
  std::vector<LeafAccess> rows;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [leaf, counts] : shard.leaves) {
      rows.push_back(LeafAccess{leaf, counts});
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const LeafAccess& x, const LeafAccess& y) {
              return x.leaf < y.leaf;
            });
  return rows;
}

LeafAccessCounts AccessStatsTable::Totals() const {
  LeafAccessCounts totals;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [leaf, counts] : shard.leaves) {
      (void)leaf;
      totals.Add(counts);
    }
  }
  return totals;
}

void AccessStatsTable::Reset() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.leaves.clear();
  }
  sessions_merged_.store(0, std::memory_order_relaxed);
}

namespace {

std::uint64_t PairKey(AccessLeafId a, AccessLeafId b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

}  // namespace

CoAccessTracker::CoAccessTracker(std::size_t max_pairs,
                                 std::size_t max_set_leaves)
    : max_pairs_(max_pairs == 0 ? 1 : max_pairs),
      max_set_leaves_(max_set_leaves < 2 ? 2 : max_set_leaves) {}

CoAccessTracker& CoAccessTracker::Global() {
  static CoAccessTracker* tracker = new CoAccessTracker;
  return *tracker;
}

void CoAccessTracker::RecordTouchedSet(std::vector<AccessLeafId> leaves) {
  std::sort(leaves.begin(), leaves.end());
  leaves.erase(std::unique(leaves.begin(), leaves.end()), leaves.end());
  std::lock_guard<std::mutex> lock(mu_);
  ++sets_recorded_;
  if (leaves.size() > max_set_leaves_) {
    leaves_truncated_ += leaves.size() - max_set_leaves_;
    leaves.resize(max_set_leaves_);
  }
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    for (std::size_t j = i + 1; j < leaves.size(); ++j) {
      const std::uint64_t key = PairKey(leaves[i], leaves[j]);
      auto it = pairs_.find(key);
      if (it != pairs_.end()) {
        ++it->second;
        continue;
      }
      if (pairs_.size() < max_pairs_) {
        pairs_.emplace(key, 1);
        continue;
      }
      // Space-Saving eviction: the newcomer replaces the lightest pair and
      // inherits its count + 1, bounding the undercount of heavy pairs.
      auto min_it = pairs_.begin();
      for (auto scan = pairs_.begin(); scan != pairs_.end(); ++scan) {
        if (scan->second < min_it->second) min_it = scan;
      }
      const std::uint64_t inherited = min_it->second + 1;
      pairs_.erase(min_it);
      pairs_.emplace(key, inherited);
      ++evictions_;
    }
  }
}

std::vector<CoAccessTracker::PairCount> CoAccessTracker::TopPairs(
    std::size_t n) const {
  std::vector<PairCount> result;
  {
    std::lock_guard<std::mutex> lock(mu_);
    result.reserve(pairs_.size());
    for (const auto& [key, count] : pairs_) {
      result.push_back(PairCount{static_cast<AccessLeafId>(key >> 32),
                                 static_cast<AccessLeafId>(key & 0xffffffffu),
                                 count});
    }
  }
  std::sort(result.begin(), result.end(),
            [](const PairCount& x, const PairCount& y) {
              if (x.count != y.count) return x.count > y.count;
              if (x.a != y.a) return x.a < y.a;
              return x.b < y.b;
            });
  if (result.size() > n) result.resize(n);
  return result;
}

std::uint64_t CoAccessTracker::sets_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sets_recorded_;
}

std::uint64_t CoAccessTracker::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

std::uint64_t CoAccessTracker::leaves_truncated() const {
  std::lock_guard<std::mutex> lock(mu_);
  return leaves_truncated_;
}

void CoAccessTracker::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  pairs_.clear();
  sets_recorded_ = 0;
  evictions_ = 0;
  leaves_truncated_ = 0;
}

std::string RenderIndexLeafPrometheusText(const std::vector<LeafAccess>& rows,
                                          std::size_t top_n) {
  std::vector<LeafAccess> hot = rows;
  std::sort(hot.begin(), hot.end(),
            [](const LeafAccess& x, const LeafAccess& y) {
              if (x.counts.scans != y.counts.scans) {
                return x.counts.scans > y.counts.scans;
              }
              return x.leaf < y.leaf;
            });
  if (hot.size() > top_n) hot.resize(top_n);
  // A declared family with zero samples fails Prometheus exposition
  // validation; before the first session there is nothing to export.
  if (hot.empty()) return std::string();

  struct Family {
    const char* name;
    const char* help;
    std::uint64_t LeafAccessCounts::*field;
  };
  static constexpr Family kFamilies[] = {
      {"index.leaf.scans", "Localized scans per RFS leaf (hottest leaves).",
       &LeafAccessCounts::scans},
      {"index.leaf.distance_evals",
       "Distance evaluations per RFS leaf (hottest leaves).",
       &LeafAccessCounts::distance_evals},
      {"index.leaf.feature_bytes",
       "Feature bytes scanned per RFS leaf (hottest leaves).",
       &LeafAccessCounts::feature_bytes},
  };

  std::string out;
  char buffer[160];
  for (const Family& family : kFamilies) {
    const std::string prom = PrometheusName(family.name);
    out += "# HELP " + prom + " " + EscapeHelpText(family.help) + "\n";
    out += "# TYPE " + prom + " counter\n";
    for (const LeafAccess& row : hot) {
      const std::string label =
          row.leaf == kTableScanLeaf
              ? std::string("table")
              : std::to_string(static_cast<unsigned long>(row.leaf));
      std::snprintf(buffer, sizeof(buffer), " %llu\n",
                    static_cast<unsigned long long>(row.counts.*family.field));
      out += prom + "{leaf=\"" + EscapeLabelValue(label) + "\"}" + buffer;
    }
  }
  return out;
}

}  // namespace obs
}  // namespace qdcbir
