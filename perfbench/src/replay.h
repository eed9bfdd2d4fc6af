#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstddef>
#include <string>
#include <vector>

#include "qdcbir/core/thread_pool.h"
#include "qdcbir/dataset/database.h"
#include "qdcbir/rfs/rfs_tree.h"
#include "report.h"
#include "workload.h"

namespace perfbench {

/// Outcome of replaying recorded sessions in-process through the library's
/// public `QdSession` API.
struct ReplayResult {
  std::size_t sessions_checked = 0;
  /// Sessions whose replayed displays or ranked ids differ from the
  /// server's replies, by index.
  std::vector<std::size_t> mismatched;
  std::string first_mismatch;

  // Filled when timing (the traced run only).
  std::vector<double> start_us, feedback_us, finalize_us;
  std::vector<double> subqueries, expanded_subqueries, knn_candidates;
  std::vector<double> distance_evals, feature_bytes, tiles_gathered,
      alloc_bytes;
  std::vector<Span> spans;
};

/// Replays every finalized session on `threads` threads sharing `pool` (the
/// server's query-pool shape) and checks each display and the final ranked
/// ids against what the server answered. With `timed`, also records
/// per-call engine times and per-session resource accounting; sessions with
/// a span id get spans parented to their recorded requests.
ReplayResult ReplaySessions(const qdcbir::RfsTree& rfs,
                            const std::vector<SessionRecord>& sessions,
                            int threads, qdcbir::ThreadPool& pool, bool timed);

/// Compares every `/api/rep` reply whose body was kept with
/// `EncodePpm(db.Render(id))`.
struct ThumbnailCheck {
  std::size_t checked = 0;
  std::size_t mismatches = 0;
};
ThumbnailCheck CheckThumbnails(const qdcbir::ImageDatabase& db,
                               const std::vector<const RequestRecord*>& reps);

/// Finalize of the same sessions at one pool lane, at `pool`'s lanes, and
/// at `pool`'s lanes with a fresh cache of the server's budget.
struct FinalizeVariants {
  std::size_t sessions = 0;
  double one_lane_ms = 0.0;
  double pool_ms = 0.0;
  double cached_ms = 0.0;
};
FinalizeVariants MeasureFinalizeVariants(
    const qdcbir::RfsTree& rfs, const std::vector<SessionRecord>& sessions,
    std::size_t max_sessions, qdcbir::ThreadPool& pool);

/// Per-call times (µs) of the HTTP and JSON layers on the sampled request
/// and reply bytes, with one span per call parented to its request.
struct CodecTimes {
  std::vector<double> parse_us, serialize_us, json_parse_us;
  std::vector<Span> spans;
};
CodecTimes MeasureCodecs(const std::vector<SessionRecord>& sessions);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
