#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "qdcbir/core/status.h"
#include "qdcbir/core/types.h"
#include "qdcbir/dataset/database.h"
#include "qdcbir/eval/ground_truth.h"
#include "qdcbir/query/qd_engine.h"

namespace perfbench {

using qdcbir::DisplayGroup;
using qdcbir::ImageId;

/// One traffic mix. The workload rationale is in perfbench/README.md.
struct WorkloadSpec {
  std::string name;
  /// Corpus size the workload is defined at (the fixture it needs).
  std::size_t images = 0;
  /// Keep-alive connections; in the open loop, the most sessions in flight.
  int connections = 1;
  /// Run the client on one CPU and the server on the others. With a single
  /// connection, whether the scheduler happens to put the client and the
  /// server's connection thread on one CPU sets a run's wake-up cost:
  /// unpinned runs of one seed differed by 1.5x in sessions per second.
  /// Pinned apart, every run takes the cross-CPU path, as a remote client
  /// does. Not done with several connections, whose clients need more than
  /// one CPU.
  bool isolate_client = false;
  /// Open loop: Poisson session arrivals at `arrivals_per_s`. Closed loop:
  /// each connection starts its next session when the last one finished.
  bool open_loop = false;
  double arrivals_per_s = 0.0;
  /// Target every catalog category instead of the 11 Table 1 queries.
  bool all_categories = false;
  /// Finalize with k = |ground truth| (the paper's setting); otherwise the
  /// request names no k and the server's default applies.
  bool k_is_ground_truth = false;
  /// GUI behaviour: fetch `GET /api/rep` for every displayed image and for
  /// the first 21 results of each session.
  bool gui_thumbnails = false;
  /// Share of sessions that repeat an earlier session's seed and target,
  /// so their picks and finalized top-k keys are identical.
  double repeat_share = 0.0;
  /// Untimed lead-in before the measured window.
  double warmup_s = 2.0;
  /// `precision_mean` covers sessions [0, precision_sessions) of the
  /// schedule, so it is a function of the seed alone.
  std::size_t precision_sessions = 0;
};

/// The three workloads; false for an unknown name.
bool FindWorkload(const std::string& name, WorkloadSpec* spec);

/// Result size the server uses when a finalize request names none
/// (`ServeOptions::default_k`).
std::size_t ServerDefaultK();

/// What the client does in one session, fixed by the workload seed and the
/// session's index in the schedule.
struct SessionPlan {
  std::uint32_t seed = 0;  ///< QD display-sampling seed sent at open
  std::size_t target = 0;  ///< index into the workload's targets
};

/// Plans sessions [0, count) of a workload.
std::vector<SessionPlan> PlanSessions(const WorkloadSpec& spec,
                                      std::uint64_t workload_seed,
                                      std::size_t count,
                                      std::size_t num_targets);

/// Open-loop arrival offsets (ns from the start of the run) of a Poisson
/// process at `spec.arrivals_per_s` over [0, horizon_s).
std::vector<std::uint64_t> ArrivalSchedule(const WorkloadSpec& spec,
                                           std::uint64_t workload_seed,
                                           double horizon_s);

/// The sessions' relevance targets: the catalog's Table 1 queries, or one
/// per category (its sub-concepts as ground-truth sub-concepts). Targets
/// without images in the corpus are skipped.
qdcbir::StatusOr<std::vector<qdcbir::QueryGroundTruth>> BuildTargets(
    const qdcbir::ImageDatabase& db, const WorkloadSpec& spec);

enum class RequestKind : std::uint8_t { kQuery, kFeedback, kFinalize, kRep, kHealthz };
const char* RequestKindName(RequestKind kind);

/// What an API request sent and got back, and the raw bytes of sampled
/// requests (thumbnail checks, serialize/parse timings).
struct RequestDetail {
  std::vector<ImageId> picks;         ///< feedback/finalize
  std::vector<DisplayGroup> display;  ///< query/feedback replies
  std::string raw_request;
  std::string raw_body;
};

/// One request as sent and answered. Times are ns on the run's clock. Kept
/// small: a run records millions of thumbnail fetches.
struct RequestRecord {
  std::uint64_t due_ns = 0;   ///< when it should have been sent
  std::uint64_t send_ns = 0;
  std::uint64_t recv_ns = 0;
  std::uint64_t span_id = 0;
  RequestKind kind = RequestKind::kQuery;
  int status = 0;
  ImageId rep_id = 0;  ///< rep
  std::uint32_t wire_bytes = 0;
  /// Set for API requests and sampled thumbnails.
  std::unique_ptr<RequestDetail> detail;

  bool ok() const { return status >= 200 && status < 300; }
  double latency_ms() const { return (recv_ns - due_ns) / 1e6; }
};

struct SessionRecord {
  std::size_t index = 0;
  SessionPlan plan;
  std::size_t k = 0;  ///< 0: server default
  std::uint64_t due_ns = 0;  ///< scheduled (open loop) or actual open send
  std::uint64_t finalize_reply_ns = 0;
  bool finalized = false;  ///< finalize answered 200 with a ranked list
  bool failed = false;     ///< some request failed
  bool settled = false;    ///< oracle found nothing; one display pick used
  std::uint64_t server_session = 0;
  std::vector<ImageId> results;
  std::uint64_t rounds_ns = 0;    ///< server engine time before finalize
  std::uint64_t finalize_ns = 0;  ///< server engine time of finalize
  std::vector<RequestRecord> requests;
  std::uint64_t span_id = 0;
};

std::vector<ImageId> FlattenDisplay(const std::vector<DisplayGroup>& display);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
