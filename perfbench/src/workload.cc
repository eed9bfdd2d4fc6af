#include "workload.h"

#include <cmath>
#include <numeric>

#include "qdcbir/dataset/catalog.h"
#include "qdcbir/serve/serve_app.h"

namespace perfbench {
namespace {

/// The benchmark's own generator (SplitMix64), so its inputs do not move
/// when the program's RNG changes.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return (Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Keep-alive connections the server serves at once with default flags.
/// Its connection pool has `http_threads` (4) lanes, but `ThreadPool::Post`
/// runs tasks on the pool's worker threads only, which number one fewer: a
/// fourth keep-alive client is not read until another connection closes or
/// idles out (5 s), and then fails. Fixed here rather than derived, so the
/// workloads stay the same when that changes.
constexpr int kServedConnections = 3;

}  // namespace

bool FindWorkload(const std::string& name, WorkloadSpec* spec) {
  WorkloadSpec w;
  w.name = name;
  if (name == "paper_serial") {
    w.images = 15000;
    w.connections = 1;
    w.isolate_client = true;
    w.k_is_ground_truth = true;
    w.precision_sessions = 5000;
  } else if (name == "gui_concurrent") {
    w.images = 15000;
    w.connections = kServedConnections;
    w.all_categories = true;
    w.gui_thumbnails = true;
    w.warmup_s = 3.0;
    w.precision_sessions = 2000;
  } else if (name == "open_arrivals") {
    w.images = 3000;
    w.connections = kServedConnections;
    w.open_loop = true;
    w.arrivals_per_s = 200.0;
    w.repeat_share = 0.25;
    w.precision_sessions = 1500;
  } else {
    return false;
  }
  *spec = w;
  return true;
}

std::size_t ServerDefaultK() { return qdcbir::serve::ServeOptions().default_k; }

std::vector<SessionPlan> PlanSessions(const WorkloadSpec& spec,
                                      std::uint64_t workload_seed,
                                      std::size_t count,
                                      std::size_t num_targets) {
  SplitMix rng(workload_seed * 0x2545f4914f6cdd1dULL + 17);
  // Targets are dealt round-robin from a seeded permutation, so every
  // target recurs evenly whatever the session count.
  std::vector<std::size_t> order(num_targets);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = num_targets; i > 1; --i) {
    std::swap(order[i - 1], order[rng.Next() % i]);
  }
  std::vector<SessionPlan> plans(count);
  for (std::size_t i = 0; i < count; ++i) {
    SessionPlan& plan = plans[i];
    // Kept below 2^31: the server's JSON numbers are doubles.
    plan.seed = static_cast<std::uint32_t>(rng.Next() & 0x7fffffffu);
    plan.target = order[i % num_targets];
    if (i > 0 && rng.Uniform() < spec.repeat_share) {
      const SessionPlan& earlier = plans[rng.Next() % i];
      plan.seed = earlier.seed;
      plan.target = earlier.target;
    }
  }
  return plans;
}

std::vector<std::uint64_t> ArrivalSchedule(const WorkloadSpec& spec,
                                           std::uint64_t workload_seed,
                                           double horizon_s) {
  SplitMix rng(workload_seed * 0x9e3779b97f4a7c15ULL + 101);
  std::vector<std::uint64_t> arrivals;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.Uniform()) / spec.arrivals_per_s;
    if (t >= horizon_s) break;
    arrivals.push_back(static_cast<std::uint64_t>(t * 1e9));
  }
  return arrivals;
}

qdcbir::StatusOr<std::vector<qdcbir::QueryGroundTruth>> BuildTargets(
    const qdcbir::ImageDatabase& db, const WorkloadSpec& spec) {
  const qdcbir::Catalog& catalog = db.catalog();
  std::vector<qdcbir::QueryConceptSpec> specs;
  if (spec.all_categories) {
    for (const qdcbir::CategorySpec& category : catalog.categories()) {
      qdcbir::QueryConceptSpec query;
      query.name = category.name;
      for (const qdcbir::SubConceptId sub : category.subconcepts) {
        query.subconcepts.push_back({catalog.subconcept(sub).name, {sub}});
      }
      specs.push_back(std::move(query));
    }
  } else {
    specs = catalog.queries();
  }
  std::vector<qdcbir::QueryGroundTruth> targets;
  for (const qdcbir::QueryConceptSpec& query : specs) {
    qdcbir::StatusOr<qdcbir::QueryGroundTruth> gt =
        qdcbir::BuildGroundTruth(db, query);
    if (!gt.ok()) return gt.status();
    if (gt->size() > 0) targets.push_back(std::move(gt).value());
  }
  if (targets.empty()) {
    return qdcbir::Status::FailedPrecondition("corpus has no target images");
  }
  return targets;
}

const char* RequestKindName(RequestKind kind) {
  switch (kind) {
    case RequestKind::kQuery: return "query";
    case RequestKind::kFeedback: return "feedback";
    case RequestKind::kFinalize: return "finalize";
    case RequestKind::kRep: return "rep";
    case RequestKind::kHealthz: return "healthz";
  }
  return "unknown";
}

std::vector<ImageId> FlattenDisplay(const std::vector<DisplayGroup>& display) {
  std::vector<ImageId> ids;
  for (const DisplayGroup& group : display) {
    ids.insert(ids.end(), group.images.begin(), group.images.end());
  }
  return ids;
}

}  // namespace perfbench
