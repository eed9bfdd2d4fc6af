// Per-leaf access telemetry: leaf-slot overflow in the session sink, the
// process-wide sharded table, the bounded co-access tracker, and the
// labeled Prometheus rendering. The sink's other behaviours are tested in
// resource_stats_test.cc.

#include "qdcbir/obs/access_stats.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "qdcbir/obs/resource_stats.h"

namespace qdcbir {
namespace obs {
namespace {

TEST(AccessTapsTest, SlotOverflowFlushesInsteadOfDropping) {
  // More distinct leaves than the TLS slot table holds: the overflow path
  // flushes to the sink and keeps counting — nothing is lost.
  ResourceAccumulator sink;
  const std::size_t distinct = internal::kLeafTlsSlots * 3 + 1;
  {
    const ScopedResourceAccounting scope(&sink);
    for (std::size_t leaf = 0; leaf < distinct; ++leaf) {
      CountLeafScan(static_cast<AccessLeafId>(leaf), leaf + 1, 8 * (leaf + 1));
    }
  }
  const std::vector<LeafAccess> rows = sink.LeafSnapshot();
  ASSERT_EQ(rows.size(), distinct);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].leaf, i);
    EXPECT_EQ(rows[i].counts.scans, 1u);
    EXPECT_EQ(rows[i].counts.distance_evals, i + 1);
  }
  EXPECT_EQ(sink.Snapshot().distance_evals, distinct * (distinct + 1) / 2);
}

TEST(AccessStatsTableTest, MergeSessionAggregatesAndCountsSessions) {
  AccessStatsTable table;
  EXPECT_EQ(table.sessions_merged(), 0u);
  table.MergeSession({});  // empty session: no merge, no count
  EXPECT_EQ(table.sessions_merged(), 0u);

  std::vector<LeafAccess> session;
  session.push_back({4, {2, 20, 160, 1, 1}});
  session.push_back({kTableScanLeaf, {1, 500, 4000, 0, 1}});
  table.MergeSession(session);
  table.MergeSession(session);
  EXPECT_EQ(table.sessions_merged(), 2u);

  const std::vector<LeafAccess> rows = table.Snapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].leaf, 4u);
  EXPECT_EQ(rows[0].counts.scans, 4u);
  EXPECT_EQ(rows[1].leaf, kTableScanLeaf);
  EXPECT_EQ(rows[1].counts.distance_evals, 1000u);

  const LeafAccessCounts totals = table.Totals();
  EXPECT_EQ(totals.scans, 6u);
  EXPECT_EQ(totals.feature_bytes, 8320u);

  table.Reset();
  EXPECT_TRUE(table.Snapshot().empty());
  EXPECT_EQ(table.sessions_merged(), 0u);
}

TEST(CoAccessTrackerTest, CountsUnorderedPairsAcrossSessions) {
  CoAccessTracker tracker(/*max_pairs=*/64, /*max_set_leaves=*/8);
  tracker.RecordTouchedSet({1, 2, 3});
  tracker.RecordTouchedSet({2, 1});       // same pair regardless of order
  tracker.RecordTouchedSet({2, 2, 1});    // duplicates deduped
  tracker.RecordTouchedSet({7});          // singleton: no pair
  EXPECT_EQ(tracker.sets_recorded(), 4u);
  EXPECT_EQ(tracker.evictions(), 0u);

  const std::vector<CoAccessTracker::PairCount> top = tracker.TopPairs(10);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].a, 1u);
  EXPECT_EQ(top[0].b, 2u);
  EXPECT_EQ(top[0].count, 3u);
  // Ties broken by (a, b) ascending.
  EXPECT_EQ(top[1].a, 1u);
  EXPECT_EQ(top[1].b, 3u);
  EXPECT_EQ(top[1].count, 1u);
  EXPECT_EQ(top[2].a, 2u);
  EXPECT_EQ(top[2].b, 3u);
}

TEST(CoAccessTrackerTest, EvictsMinimumPairAtCapacityHeavySurvives) {
  CoAccessTracker tracker(/*max_pairs=*/2, /*max_set_leaves=*/8);
  for (int i = 0; i < 10; ++i) tracker.RecordTouchedSet({1, 2});  // heavy
  tracker.RecordTouchedSet({3, 4});
  EXPECT_EQ(tracker.evictions(), 0u);
  tracker.RecordTouchedSet({5, 6});  // capacity hit: evicts the min pair
  EXPECT_EQ(tracker.evictions(), 1u);

  const std::vector<CoAccessTracker::PairCount> top = tracker.TopPairs(10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].a, 1u);
  EXPECT_EQ(top[0].b, 2u);
  EXPECT_EQ(top[0].count, 10u);
  // The newcomer inherited the evicted minimum's count + 1 (Space-Saving).
  EXPECT_EQ(top[1].a, 5u);
  EXPECT_EQ(top[1].b, 6u);
  EXPECT_EQ(top[1].count, 2u);
}

TEST(CoAccessTrackerTest, TruncatesOversizedSetsVisibly) {
  CoAccessTracker tracker(/*max_pairs=*/64, /*max_set_leaves=*/4);
  tracker.RecordTouchedSet({6, 5, 4, 3, 2, 1});  // 2 over the cap
  EXPECT_EQ(tracker.leaves_truncated(), 2u);
  // Lowest ids are kept: pairs only among {1,2,3,4} = C(4,2) = 6.
  const std::vector<CoAccessTracker::PairCount> top = tracker.TopPairs(100);
  EXPECT_EQ(top.size(), 6u);
  for (const CoAccessTracker::PairCount& pair : top) {
    EXPECT_LE(pair.b, 4u);
  }

  tracker.Reset();
  EXPECT_TRUE(tracker.TopPairs(10).empty());
  EXPECT_EQ(tracker.sets_recorded(), 0u);
  EXPECT_EQ(tracker.leaves_truncated(), 0u);
}

TEST(RenderIndexLeafTest, EmitsLabeledFamiliesWithTableBucket) {
  std::vector<LeafAccess> rows;
  rows.push_back({17, {5, 50, 400, 2, 3}});
  rows.push_back({kTableScanLeaf, {1, 500, 4000, 0, 1}});
  const std::string text = RenderIndexLeafPrometheusText(rows, 16);
  EXPECT_NE(text.find("# TYPE qdcbir_index_leaf_scans counter"),
            std::string::npos);
  EXPECT_NE(text.find("# HELP qdcbir_index_leaf_scans"), std::string::npos);
  EXPECT_NE(text.find("qdcbir_index_leaf_scans{leaf=\"17\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("qdcbir_index_leaf_scans{leaf=\"table\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("qdcbir_index_leaf_distance_evals{leaf=\"17\"} 50"),
            std::string::npos);
  EXPECT_NE(text.find("qdcbir_index_leaf_feature_bytes{leaf=\"table\"} 4000"),
            std::string::npos);
}

TEST(RenderIndexLeafTest, TopNKeepsHottestLeavesOnly) {
  std::vector<LeafAccess> rows;
  for (AccessLeafId leaf = 0; leaf < 10; ++leaf) {
    rows.push_back({leaf, {leaf + 1, 0, 0, 0, 0}});  // leaf 9 is hottest
  }
  const std::string text = RenderIndexLeafPrometheusText(rows, 2);
  EXPECT_NE(text.find("{leaf=\"9\"}"), std::string::npos);
  EXPECT_NE(text.find("{leaf=\"8\"}"), std::string::npos);
  EXPECT_EQ(text.find("{leaf=\"7\"}"), std::string::npos);
  EXPECT_EQ(text.find("{leaf=\"0\"}"), std::string::npos);
}

TEST(RenderIndexLeafTest, EmptySnapshotRendersNothing) {
  // Declared-but-sampleless families fail exposition validation, so a cold
  // table (no sessions yet) must contribute nothing to /metrics.
  EXPECT_EQ(RenderIndexLeafPrometheusText({}, 16), "");
}

}  // namespace
}  // namespace obs
}  // namespace qdcbir
