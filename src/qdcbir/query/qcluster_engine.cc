#include "qdcbir/query/qcluster_engine.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "qdcbir/cache/cache_manager.h"
#include "qdcbir/cluster/kmeans.h"
#include "qdcbir/core/distance_kernels.h"
#include "qdcbir/core/feature_block.h"
#include "qdcbir/core/thread_pool.h"
#include "qdcbir/query/multipoint.h"

#include "qdcbir/obs/resource_stats.h"
#include "qdcbir/obs/span.h"

namespace qdcbir {

QclusterEngine::QclusterEngine(const ImageDatabase* db,
                               const QclusterOptions& options)
    : GlobalFeedbackEngineBase(db, options.display_size, options.seed),
      options_(options) {}

StatusOr<Ranking> QclusterEngine::ComputeRanking(std::size_t k) {
  QDCBIR_SPAN("engine.qcluster.rank");
  if (relevant().empty()) {
    return Status::FailedPrecondition("Qcluster has no relevant feedback yet");
  }
  const std::vector<FeatureVector>& table = db_->features();

  // Finalized-ranking cache: the relevant set plus the clustering and scan
  // configuration fully determine the ranking (the chunked scan's
  // (distance, id) order is total), so identical replays skip the k-means
  // elbow and the whole-table scan. The stat deltas below are replayed on
  // a hit to keep the logical cost model identical.
  cache::CacheManager* cache_mgr = options_.cache;
  cache::CacheKey cache_key;
  std::uint64_t cache_token = 0;
  if (cache_mgr != nullptr) {
    cache_key.kind = cache::CacheKind::kTopK;
    cache_key.a = cache::HashBytes(relevant().data(),
                                   relevant().size() * sizeof(ImageId));
    std::uint64_t config_hash = cache::HashCombine(0xcbf29ce484222325ull, k);
    config_hash = cache::HashCombine(config_hash, options_.kmeans_seed);
    config_hash = cache::HashCombine(
        config_hash, static_cast<std::uint64_t>(options_.max_clusters));
    cache_key.b = config_hash;
    // Low byte tags the engine family (2 = qcluster) so qd finalize keys
    // can never alias these.
    cache_key.c =
        (static_cast<std::uint64_t>(ActiveKernels().level) << 8) | 2;
    std::shared_ptr<const Ranking> hit =
        cache_mgr->LookupAs<Ranking>(cache_key, &cache_token);
    if (hit != nullptr) {
      stats_.global_knn_computations += 1;
      stats_.candidates_scanned += table.size();
      obs::CountLeafCacheHit(obs::kTableScanLeaf);
      return *hit;
    }
    obs::CountLeafCacheMiss(obs::kTableScanLeaf);
  }

  std::vector<FeatureVector> relevant_points;
  relevant_points.reserve(relevant().size());
  for (const ImageId id : relevant()) relevant_points.push_back(table[id]);

  // Adaptive cluster count: run k-means for k = 1..max and keep the k with
  // the largest relative inertia improvement (elbow heuristic). The runs
  // are independent (per-c seeds), so they fan out across the pool.
  ThreadPool& pool = options_.pool != nullptr ? *options_.pool
                                              : ThreadPool::Global();
  const int upper = std::min<int>(options_.max_clusters,
                                  static_cast<int>(relevant_points.size()));
  std::vector<double> inertia(static_cast<std::size_t>(upper) + 1, 0.0);
  std::vector<KMeansResult> runs(static_cast<std::size_t>(upper) + 1);
  std::vector<Status> run_status(static_cast<std::size_t>(upper) + 1,
                                 Status::Ok());
  pool.ParallelFor(1, static_cast<std::size_t>(upper) + 1, [&](std::size_t c) {
    KMeansOptions km;
    km.k = static_cast<int>(c);
    km.seed = options_.kmeans_seed + static_cast<std::uint64_t>(c);
    StatusOr<KMeansResult> r = RunKMeans(relevant_points, km);
    if (!r.ok()) {
      run_status[c] = r.status();
      return;
    }
    inertia[c] = r->inertia;
    runs[c] = std::move(r).value();
  });
  for (int c = 1; c <= upper; ++c) {
    if (!run_status[static_cast<std::size_t>(c)].ok()) {
      return run_status[static_cast<std::size_t>(c)];
    }
  }
  int best_c = 1;
  double best_gain = 0.0;
  for (int c = 2; c <= upper; ++c) {
    const double denom = inertia[1] > 0.0 ? inertia[1] : 1.0;
    const double gain = (inertia[c - 1] - inertia[c]) / denom;
    if (gain > best_gain + 0.05) {  // require a material drop to add contours
      best_gain = gain;
      best_c = c;
    }
  }

  // Disjunctive scan: each chunk keeps its own top-k heap; the partial
  // top-k lists merge at the end. The (distance, id) comparator is a total
  // order, so the global top k is unique regardless of partitioning.
  const MultipointQuery query(runs[best_c].centroids);
  auto better = [](const KnnMatch& a, const KnnMatch& b) {
    if (a.distance_squared != b.distance_squared) {
      return a.distance_squared < b.distance_squared;
    }
    return a.id < b.id;
  };
  const std::size_t chunks =
      std::min(table.size(), pool.size() * 4 > 0 ? pool.size() * 4 : 1);
  std::vector<Ranking> partial(chunks);
  // Each chunk scans block-at-a-time through the kernels where it covers
  // whole tiles and falls back to the per-vector scorer at unaligned chunk
  // edges. Both paths produce bit-identical distances (the kernels follow
  // the legacy accumulation order, and (a-b)^2 == (b-a)^2 exactly), and
  // candidates are offered in ascending id either way, so the merged
  // ranking matches the per-vector scan byte for byte.
  const std::vector<FeatureVector>& centroids = runs[best_c].centroids;
  const FeatureBlockTable& blocks = db_->feature_blocks();
  const DistanceKernels& kernels = ActiveKernels();
  std::vector<std::size_t> chunk_batches(chunks, 0);
  pool.ParallelForChunks(
      0, table.size(), chunks,
      [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
        Ranking& top = partial[chunk];
        const auto offer = [&](std::size_t i, double dist) {
          KnnMatch m{static_cast<ImageId>(i), dist};
          if (top.size() >= k && !better(m, top.front())) return;
          top.push_back(m);
          std::push_heap(top.begin(), top.end(), better);
          if (top.size() > k) {
            std::pop_heap(top.begin(), top.end(), better);
            top.pop_back();
          }
        };
        std::size_t i = lo;
        const std::size_t head_end = std::min(
            hi, (lo + kBlockWidth - 1) / kBlockWidth * kBlockWidth);
        for (; i < head_end; ++i) offer(i, query.DisjunctiveScore(table[i]));
        double out[kBlockWidth];
        double best[kBlockWidth];
        while (i + kBlockWidth <= hi) {
          std::fill(best, best + kBlockWidth,
                    std::numeric_limits<double>::infinity());
          for (const FeatureVector& p : centroids) {
            kernels.squared_l2(blocks.block(i / kBlockWidth), p.data(),
                               blocks.dim(), out);
            for (std::size_t lane = 0; lane < kBlockWidth; ++lane) {
              best[lane] = std::min(best[lane], out[lane]);
            }
          }
          for (std::size_t lane = 0; lane < kBlockWidth; ++lane) {
            offer(i + lane, best[lane]);
          }
          chunk_batches[chunk] += 1;
          i += kBlockWidth;
        }
        for (; i < hi; ++i) offer(i, query.DisjunctiveScore(table[i]));
      });
  std::size_t total_batches = 0;
  for (const std::size_t n : chunk_batches) total_batches += n;
  AddBlockBatches(total_batches);
  obs::CountLeafScan(obs::kTableScanLeaf, table.size() * centroids.size(),
                     table.size() * blocks.dim() * sizeof(double));
  stats_.global_knn_computations += 1;
  stats_.candidates_scanned += table.size();
  Ranking ranking;
  for (Ranking& top : partial) {
    ranking.insert(ranking.end(), top.begin(), top.end());
  }
  std::sort(ranking.begin(), ranking.end(), better);
  if (ranking.size() > k) ranking.resize(k);
  if (cache_mgr != nullptr) {
    cache_mgr->InsertAs<Ranking>(
        cache_key, std::make_shared<const Ranking>(ranking),
        sizeof(Ranking) + ranking.size() * sizeof(KnnMatch), cache_token);
  }
  return ranking;
}

StatusOr<Ranking> QclusterEngine::Finalize(std::size_t k) {
  return ComputeRanking(k);
}

}  // namespace qdcbir
