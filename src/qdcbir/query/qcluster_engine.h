#ifndef QDCBIR_QUERY_QCLUSTER_ENGINE_H_
#define QDCBIR_QUERY_QCLUSTER_ENGINE_H_

#include "qdcbir/query/feedback_engine.h"

namespace qdcbir {

class ThreadPool;

/// Options of the Qcluster-style engine.
struct QclusterOptions {
  std::size_t display_size = 21;
  std::uint64_t seed = 109;
  /// Maximum number of adaptive clusters.
  int max_clusters = 4;
  std::uint64_t kmeans_seed = 17;
  /// Worker pool for the elbow k-means runs and the disjunctive distance
  /// scan (partitioned with per-thread top-k heaps merged at the end);
  /// nullptr means `ThreadPool::Global()`. Rankings are identical across
  /// pool sizes: the (distance, id) order is total, so the global top k is
  /// unique however the scan is partitioned.
  ThreadPool* pool = nullptr;
};

/// A Qcluster-style baseline (Kim & Chung, SIGMOD'03; the paper's §2
/// "Qcluster"). Relevant images are adaptively clustered (the cluster count
/// is chosen by the largest drop in k-means inertia); candidates are scored
/// *disjunctively* — by the distance to the nearest cluster centroid — so
/// each cluster keeps a separate query contour instead of one merged
/// contour. This handles moderately separated relevant clusters, but still
/// ranks globally over one feature space and cannot give distant clusters
/// independent result quotas the way query decomposition does.
class QclusterEngine final : public GlobalFeedbackEngineBase {
 public:
  QclusterEngine(const ImageDatabase* db,
                 const QclusterOptions& options = QclusterOptions());

  const char* Name() const override { return "qcluster"; }
  StatusOr<Ranking> Finalize(std::size_t k) override;

 protected:
  StatusOr<Ranking> ComputeRanking(std::size_t k) override;

 private:
  QclusterOptions options_;
};

}  // namespace qdcbir

#endif  // QDCBIR_QUERY_QCLUSTER_ENGINE_H_
