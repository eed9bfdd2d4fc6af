#include "qdcbir/rfs/rfs_introspect.h"

#include <algorithm>
#include <cstdio>

namespace qdcbir {

namespace {

void AppendU64(std::string* out, std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%llu",
                static_cast<unsigned long long>(value));
  *out += buffer;
}

void AppendDouble(std::string* out, double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  *out += buffer;
}

void AppendCounts(std::string* out, const obs::LeafAccessCounts& counts) {
  *out += "{\"scans\":";
  AppendU64(out, counts.scans);
  *out += ",\"distance_evals\":";
  AppendU64(out, counts.distance_evals);
  *out += ",\"feature_bytes\":";
  AppendU64(out, counts.feature_bytes);
  *out += "}";
}

/// Gini coefficient over `values` (ascending-sorted in place), in permille.
/// 0 = perfectly even access, 1000 = all scans on one leaf.
std::uint64_t GiniPermille(std::vector<std::uint64_t> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double sum = 0.0;
  double weighted = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    sum += static_cast<double>(values[i]);
    weighted += static_cast<double>(i + 1) * static_cast<double>(values[i]);
  }
  if (sum <= 0.0) return 0;
  const double n = static_cast<double>(values.size());
  const double gini = (2.0 * weighted) / (n * sum) - (n + 1.0) / n;
  const double clamped = gini < 0.0 ? 0.0 : (gini > 1.0 ? 1.0 : gini);
  return static_cast<std::uint64_t>(clamped * 1000.0 + 0.5);
}

}  // namespace

IndexTreeSummary SummarizeIndexTree(const RfsTree& tree) {
  IndexTreeSummary summary;
  summary.height = tree.height();
  summary.total_images = tree.num_images();
  summary.feature_dim = tree.feature_dim();
  summary.leaf_representatives = tree.CountLeafRepresentatives();

  std::size_t fanout_sum = 0;
  std::size_t entries_sum = 0;
  std::vector<NodeId> stack = {tree.root()};
  while (!stack.empty()) {
    const NodeId node = stack.back();
    stack.pop_back();
    if (!tree.has_info(node)) continue;
    const RfsTree::NodeInfo& info = tree.info(node);
    ++summary.node_count;
    if (info.children.empty()) {
      IndexLeafShape leaf;
      leaf.id = node;
      leaf.entries = info.subtree_size;
      leaf.representatives = info.representatives.size();
      leaf.feature_bytes = static_cast<std::uint64_t>(info.subtree_size) *
                           summary.feature_dim * sizeof(double);
      leaf.diagonal = info.diagonal;
      entries_sum += leaf.entries;
      summary.leaf_feature_bytes += leaf.feature_bytes;
      if (summary.leaf_count == 0 || leaf.entries < summary.min_leaf_entries) {
        summary.min_leaf_entries = leaf.entries;
      }
      summary.max_leaf_entries =
          std::max(summary.max_leaf_entries, leaf.entries);
      ++summary.leaf_count;
      summary.leaves.push_back(leaf);
    } else {
      const std::size_t fanout = info.children.size();
      if (summary.internal_count == 0 || fanout < summary.min_fanout) {
        summary.min_fanout = fanout;
      }
      summary.max_fanout = std::max(summary.max_fanout, fanout);
      fanout_sum += fanout;
      ++summary.internal_count;
      for (const NodeId child : info.children) stack.push_back(child);
    }
  }
  if (summary.internal_count > 0) {
    summary.mean_fanout = static_cast<double>(fanout_sum) /
                          static_cast<double>(summary.internal_count);
  }
  if (summary.leaf_count > 0) {
    summary.mean_leaf_entries = static_cast<double>(entries_sum) /
                                static_cast<double>(summary.leaf_count);
  }
  std::sort(summary.leaves.begin(), summary.leaves.end(),
            [](const IndexLeafShape& a, const IndexLeafShape& b) {
              return a.id < b.id;
            });
  return summary;
}

std::string RenderIndexzJson(const IndexTreeSummary& tree,
                             const IndexAccessJoin& join, std::size_t hot_n) {
  // Per-leaf access lookup (sorted input → binary search would also do;
  // sizes here are small enough that a linear merge is clearest).
  const auto access_of = [&join](NodeId id) -> obs::LeafAccessCounts {
    for (const obs::LeafAccess& row : join.access) {
      if (row.leaf == static_cast<obs::AccessLeafId>(id)) return row.counts;
      if (row.leaf > static_cast<obs::AccessLeafId>(id)) break;
    }
    return obs::LeafAccessCounts{};
  };

  std::string out = "{\"generation\":";
  AppendU64(&out, join.generation);

  out += ",\"tree\":{\"height\":";
  AppendU64(&out, static_cast<std::uint64_t>(tree.height));
  out += ",\"nodes\":";
  AppendU64(&out, tree.node_count);
  out += ",\"internal\":";
  AppendU64(&out, tree.internal_count);
  out += ",\"leaves\":";
  AppendU64(&out, tree.leaf_count);
  out += ",\"images\":";
  AppendU64(&out, tree.total_images);
  out += ",\"feature_dim\":";
  AppendU64(&out, tree.feature_dim);
  out += ",\"leaf_representatives\":";
  AppendU64(&out, tree.leaf_representatives);
  out += ",\"fanout\":{\"min\":";
  AppendU64(&out, tree.min_fanout);
  out += ",\"max\":";
  AppendU64(&out, tree.max_fanout);
  out += ",\"mean\":";
  AppendDouble(&out, tree.mean_fanout);
  out += "},\"leaf_entries\":{\"min\":";
  AppendU64(&out, tree.min_leaf_entries);
  out += ",\"max\":";
  AppendU64(&out, tree.max_leaf_entries);
  out += ",\"mean\":";
  AppendDouble(&out, tree.mean_leaf_entries);
  out += "},\"leaf_feature_bytes\":";
  AppendU64(&out, tree.leaf_feature_bytes);
  out += "}";

  out += ",\"leaves\":[";
  bool first = true;
  for (const IndexLeafShape& leaf : tree.leaves) {
    if (!first) out += ",";
    first = false;
    out += "{\"id\":";
    AppendU64(&out, leaf.id);
    out += ",\"entries\":";
    AppendU64(&out, leaf.entries);
    out += ",\"representatives\":";
    AppendU64(&out, leaf.representatives);
    out += ",\"feature_bytes\":";
    AppendU64(&out, leaf.feature_bytes);
    out += ",\"diagonal\":";
    AppendDouble(&out, leaf.diagonal);
    out += ",\"access\":";
    AppendCounts(&out, access_of(leaf.id));
    out += "}";
  }
  out += "]";

  // Access rollup: totals, the table-scan bucket (flat-scan engines), the
  // hot-leaf table, and the skew summary over *tree* leaves (untouched
  // leaves count as zero, so concentration is measured honestly).
  obs::LeafAccessCounts totals;
  obs::LeafAccessCounts table_scan;
  for (const obs::LeafAccess& row : join.access) {
    if (row.leaf == obs::kTableScanLeaf) {
      table_scan.Add(row.counts);
    } else {
      totals.Add(row.counts);
    }
  }
  std::vector<std::uint64_t> leaf_scans;
  leaf_scans.reserve(tree.leaves.size());
  std::vector<std::pair<std::uint64_t, NodeId>> hot;
  for (const IndexLeafShape& leaf : tree.leaves) {
    const obs::LeafAccessCounts counts = access_of(leaf.id);
    leaf_scans.push_back(counts.scans);
    if (counts.scans > 0) hot.emplace_back(counts.scans, leaf.id);
  }
  std::sort(hot.begin(), hot.end(),
            [](const std::pair<std::uint64_t, NodeId>& a,
               const std::pair<std::uint64_t, NodeId>& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  std::uint64_t top_scans = 0;
  for (std::size_t i = 0; i < hot.size() && i < hot_n; ++i) {
    top_scans += hot[i].first;
  }
  const std::uint64_t top_share_permille =
      totals.scans == 0 ? 0 : top_scans * 1000 / totals.scans;

  out += ",\"access\":{\"sessions\":";
  AppendU64(&out, join.sessions);
  out += ",\"totals\":";
  AppendCounts(&out, totals);
  out += ",\"table_scan\":";
  AppendCounts(&out, table_scan);
  out += ",\"hot_leaves\":[";
  first = true;
  for (std::size_t i = 0; i < hot.size() && i < hot_n; ++i) {
    if (!first) out += ",";
    first = false;
    out += "{\"id\":";
    AppendU64(&out, hot[i].second);
    out += ",\"scans\":";
    AppendU64(&out, hot[i].first);
    out += "}";
  }
  out += "],\"skew\":{\"top_n\":";
  AppendU64(&out, hot_n);
  out += ",\"top_share_permille\":";
  AppendU64(&out, top_share_permille);
  out += ",\"gini_permille\":";
  AppendU64(&out, GiniPermille(std::move(leaf_scans)));
  out += "}}";

  out += ",\"coaccess\":{\"sets\":";
  AppendU64(&out, join.coaccess_sets);
  out += ",\"evictions\":";
  AppendU64(&out, join.coaccess_evictions);
  out += ",\"leaves_truncated\":";
  AppendU64(&out, join.coaccess_truncated);
  out += ",\"pairs\":[";
  first = true;
  for (const obs::CoAccessTracker::PairCount& pair : join.coaccess) {
    if (!first) out += ",";
    first = false;
    out += "{\"a\":";
    AppendU64(&out, pair.a);
    out += ",\"b\":";
    AppendU64(&out, pair.b);
    out += ",\"count\":";
    AppendU64(&out, pair.count);
    out += "}";
  }
  out += "]}}";
  return out;
}

std::string RenderIndexTreeText(const IndexTreeSummary& tree) {
  char buffer[256];
  std::string out;
  std::snprintf(buffer, sizeof(buffer),
                "rfs tree: height %d, %zu nodes (%zu internal, %zu leaves), "
                "%zu images, %zu-D features\n",
                tree.height, tree.node_count, tree.internal_count,
                tree.leaf_count, tree.total_images, tree.feature_dim);
  out += buffer;
  std::snprintf(buffer, sizeof(buffer),
                "  fanout min/mean/max: %zu/%.1f/%zu\n", tree.min_fanout,
                tree.mean_fanout, tree.max_fanout);
  out += buffer;
  std::snprintf(buffer, sizeof(buffer),
                "  leaf entries min/mean/max: %zu/%.1f/%zu\n",
                tree.min_leaf_entries, tree.mean_leaf_entries,
                tree.max_leaf_entries);
  out += buffer;
  std::snprintf(buffer, sizeof(buffer),
                "  leaf representatives: %zu, leaf feature payload: %llu "
                "bytes\n",
                tree.leaf_representatives,
                static_cast<unsigned long long>(tree.leaf_feature_bytes));
  out += buffer;
  return out;
}

}  // namespace qdcbir
