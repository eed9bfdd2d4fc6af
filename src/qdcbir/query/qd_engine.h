#ifndef QDCBIR_QUERY_QD_ENGINE_H_
#define QDCBIR_QUERY_QD_ENGINE_H_

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "qdcbir/core/rng.h"
#include "qdcbir/core/status.h"
#include "qdcbir/core/types.h"
#include "qdcbir/query/knn.h"
#include "qdcbir/rfs/rfs_tree.h"

namespace qdcbir {

class ThreadPool;

namespace cache {
class CacheManager;
}  // namespace cache

/// Options of a Query Decomposition session.
struct QdOptions {
  /// Representative images shown per feedback round (the prototype's result
  /// panel shows 21 at a time).
  std::size_t display_size = 21;
  /// Boundary-expansion threshold of §3.3: when a final query image's
  /// distance from its leaf's center exceeds `threshold * leaf diagonal`,
  /// the localized search expands to the parent node. The paper uses 0.4
  /// for its 15,000-image database.
  double boundary_threshold = 0.4;
  /// Seed for display sampling.
  std::uint64_t seed = 99;
  /// Optional per-dimension feature weights (the paper's §6 future-work
  /// extension: "the user may define color as the most important
  /// feature"). Empty means unweighted Euclidean ranking; otherwise the
  /// localized subqueries rank candidates by weighted Euclidean distance.
  /// Must be empty or match the tree's feature dimensionality.
  std::vector<double> feature_weights;
  /// Worker pool for the final-round localized subqueries (one task per
  /// frontier leaf). nullptr means `ThreadPool::Global()`. Results are
  /// byte-identical across pool sizes: subqueries write per-task slots and
  /// the cross-group merge runs sequentially in deterministic order.
  ThreadPool* pool = nullptr;
  /// Optional cache of whole finalized results (kTopK; nullptr = uncached),
  /// so a session replay skips the subqueries. A cached result is a pure
  /// function of its key — the per-leaf relevant sets, k, weights,
  /// threshold, SIMD level — and the entry carries the `QdSessionStats`
  /// delta it replaces, so rankings *and* stats are byte-identical with the
  /// cache on or off (docs/caching.md). The caller owns the manager and
  /// must flush it (`BeginEpoch`) whenever the RFS snapshot changes.
  cache::CacheManager* cache = nullptr;
};

/// A group of images displayed for feedback, tagged with the subquery
/// (frontier node) they represent.
struct DisplayGroup {
  NodeId node = kInvalidNodeId;
  std::vector<ImageId> images;
};

/// One localized subquery's results (§3.4's presentation groups).
struct ResultGroup {
  NodeId leaf = kInvalidNodeId;     ///< the subcluster searched
  NodeId search_node = kInvalidNodeId;  ///< after boundary expansion
  std::size_t relevant_count = 0;   ///< feedback images behind this subquery
  double ranking_score = 0.0;       ///< sum of member similarity scores
  Ranking images;                   ///< ranked by similarity score
};

/// The merged result of a decomposed query.
struct QdResult {
  std::vector<ResultGroup> groups;  ///< ordered by ranking score

  /// All result ids in group order (groups by rank, images by similarity).
  std::vector<ImageId> Flatten() const;
  /// All result ids in one global similarity order, ignoring grouping —
  /// the "more transparent" presentation §3.4 mentions.
  std::vector<ImageId> FlattenBySimilarity() const;
  std::size_t TotalImages() const;
};

/// Cost counters, for the efficiency experiments (Figures 10-11).
struct QdSessionStats {
  std::size_t feedback_rounds = 0;
  std::size_t nodes_touched = 0;          ///< frontier nodes sampled
  /// Distinct tree nodes whose representative lists were read during the
  /// session. In the paper's disk model this is the feedback-phase I/O:
  /// one access per node, re-displays ("Random" presses) hit the cache.
  std::size_t distinct_nodes_sampled = 0;
  std::size_t boundary_expansions = 0;    ///< §3.3 parent expansions
  /// Subqueries whose search node expanded past their leaf (distinct from
  /// `boundary_expansions`, which counts levels climbed): correlates which
  /// part of a session's latency came from §3.3 widening the searches.
  std::size_t expanded_subqueries = 0;
  std::size_t localized_subqueries = 0;   ///< final-round k-NN count
  std::size_t knn_candidates = 0;         ///< images inside searched subtrees
  /// Tree nodes opened by the localized k-NN searches. In the paper's
  /// disk-based cost model (§5.2.2) each opened node is one disk access;
  /// a localized search usually opens about one leaf.
  std::size_t knn_nodes_visited = 0;

  /// Adds every field of `delta` (a finalize's or a subquery's share).
  void Add(const QdSessionStats& delta) {
    feedback_rounds += delta.feedback_rounds;
    nodes_touched += delta.nodes_touched;
    distinct_nodes_sampled += delta.distinct_nodes_sampled;
    boundary_expansions += delta.boundary_expansions;
    expanded_subqueries += delta.expanded_subqueries;
    localized_subqueries += delta.localized_subqueries;
    knn_candidates += delta.knn_candidates;
    knn_nodes_visited += delta.knn_nodes_visited;
  }
};

/// An interactive Query Decomposition session (§3.2).
///
/// Protocol:
///   1. `Start()` displays random representatives of the root.
///   2. The user marks relevant images; `Feedback()` records them, maps each
///      marked representative to the child subtree it came from, and splits
///      the query: the new frontier is exactly those subtrees. The next
///      display shows their representatives.
///   3. `Resample()` re-rolls the current display (the GUI's "Random"
///      button) without consuming a feedback round.
///   4. `Finalize(k)` runs one localized multipoint k-NN per relevant leaf
///      subcluster (with boundary expansion), merges the local results with
///      allocation proportional to each subcluster's relevant-image count,
///      and orders the groups by ranking score.
///
/// No k-NN computation happens before `Finalize` — the property behind the
/// paper's efficiency results.
class QdSession {
 public:
  QdSession(const RfsTree* rfs, const QdOptions& options);

  /// Begins the session; returns the initial display (root representatives).
  std::vector<DisplayGroup> Start();

  /// Re-rolls the current display without advancing the round.
  std::vector<DisplayGroup> Resample();

  /// Records the user's relevant picks (must come from the current display)
  /// and advances the decomposition. Returns the next round's display.
  /// Picks not present in the current display are rejected.
  StatusOr<std::vector<DisplayGroup>> Feedback(
      const std::vector<ImageId>& relevant);

  /// Ends the session with localized k-NN and merging. `k` is the total
  /// result size. Requires at least one relevant image marked.
  StatusOr<QdResult> Finalize(std::size_t k);

  int round() const { return round_; }
  const std::vector<NodeId>& frontier() const { return frontier_; }
  const QdSessionStats& stats() const { return stats_; }

 private:
  std::vector<DisplayGroup> MakeDisplay();

  /// Ranks the `fetch` best candidates of the subtree under `node` against
  /// `query_point`: best-first tree search when unweighted, a weighted scan
  /// of the subtree under the user's feature weights otherwise. Accumulates
  /// node-access counts into `stats` (task-local when subqueries run on the
  /// pool; merged into `stats_` afterwards).
  Ranking LocalizedSearch(NodeId node, const FeatureVector& query_point,
                          std::size_t fetch, QdSessionStats* stats) const;

  /// §3.3: expands `leaf` upward while any of `query_images` lies too close
  /// to the boundary of the current node.
  NodeId ExpandSearchNode(NodeId leaf,
                          const std::vector<ImageId>& query_images,
                          QdSessionStats* stats) const;

  const RfsTree* rfs_;
  QdOptions options_;
  Rng rng_;
  int round_ = 0;
  bool started_ = false;

  std::vector<NodeId> frontier_;
  std::vector<DisplayGroup> current_display_;
  /// Which frontier node displayed each image since the last feedback call
  /// (resampling accumulates here, so picks collected across several
  /// "Random" presses stay valid).
  std::map<ImageId, NodeId> display_origin_;
  /// Every relevant image marked during the session, with multiplicity
  /// collapsed (set semantics), keyed by its containing leaf subcluster.
  std::map<NodeId, std::vector<ImageId>> relevant_by_leaf_;
  std::set<NodeId> sampled_nodes_;  ///< distinct nodes displayed so far
  QdSessionStats stats_;
};

}  // namespace qdcbir

#endif  // QDCBIR_QUERY_QD_ENGINE_H_
