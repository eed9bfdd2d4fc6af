#ifndef QDCBIR_OBS_QUERY_LOG_H_
#define QDCBIR_OBS_QUERY_LOG_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace qdcbir {
namespace obs {

struct ResourceUsage;
struct SessionQuality;
class WideEventBuilder;

/// One completed retrieval session, as shown on `/queryz`. Fixed-size and
/// trivially copyable so records can live in the lock-free audit ring:
/// the struct is copied word-by-word through `std::atomic<uint64_t>`
/// slots, which keeps concurrent record/snapshot TSan-clean.
struct QueryAuditRecord {
  std::uint64_t sequence = 0;  ///< assigned by QueryLog::Record, 0-based
  char engine[12] = {};        ///< "qd" or "global"
  char label[28] = {};         ///< query/session name, truncated
  std::uint64_t seed = 0;

  std::uint64_t rounds = 0;       ///< relevance-feedback rounds run
  std::uint64_t picks = 0;        ///< relevant images marked across rounds
  std::uint64_t results = 0;      ///< final ranked results returned

  std::uint64_t subqueries = 0;             ///< localized subqueries issued
  std::uint64_t boundary_expansions = 0;
  /// Subqueries whose search node expanded past their leaf (paper 3.3) —
  /// correlates expansion cost with per-session latency on /queryz.
  std::uint64_t expanded_subqueries = 0;
  std::uint64_t nodes_visited = 0;          ///< k-NN nodes visited
  std::uint64_t candidates_scored = 0;      ///< k-NN candidates scored
  std::uint64_t nodes_touched = 0;          ///< display-set nodes touched
  std::uint64_t distinct_nodes_sampled = 0;

  std::uint64_t rounds_ns = 0;    ///< wall time of the feedback rounds
  std::uint64_t finalize_ns = 0;  ///< wall time of Finalize / final rank
  std::uint64_t total_ns = 0;

  /// The session's 128-bit trace id (see obs/trace_context.h); zero when
  /// the session ran without one. Links /queryz rows to /tracez trees.
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;

  /// Per-session resource accounting (obs/resource_stats.h): physical work
  /// summed across every pool worker that executed for this session.
  std::uint64_t distance_evals = 0;
  std::uint64_t feature_bytes = 0;
  std::uint64_t leaves_visited = 0;
  /// Cache traffic of the session (src/qdcbir/cache/): lookups served from
  /// memory vs. computed. Zero on both when the session ran uncached.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  /// Retrieval-quality telemetry (obs/quality_stats.h). Ratios are carried
  /// as permille so the record stays a flat array of words.
  std::uint64_t quality_jaccard_permille = 0;   ///< last round-to-round overlap
  std::uint64_t quality_rank_churn = 0;         ///< last-transition churn
  std::uint64_t quality_rounds_to_stability = 0;  ///< 0 = never stabilized
  /// `SessionOutcome` as its underlying value (finalized/abandoned/errored).
  std::uint64_t quality_outcome = 0;
  /// Oracle precision@k in permille, plus one so 0 still means "undefined"
  /// (serve has no ground truth; eval/bench paths fill it in).
  std::uint64_t quality_oracle_precision_permille_plus1 = 0;

  void set_engine(std::string_view name);
  void set_label(std::string_view name);
  /// Copies the session's resource totals and quality summary into the
  /// record's resource and quality fields.
  void SetTelemetry(const ResourceUsage& usage, const SessionQuality& quality);
  std::string_view engine_view() const;
  std::string_view label_view() const;
  /// 32-hex trace id, "" when zero.
  std::string trace_hex() const;
};

static_assert(sizeof(QueryAuditRecord) % sizeof(std::uint64_t) == 0,
              "record must pack into whole atomic words");

/// Adds the record's fields to `event` in `/queryz` row order: the one
/// field list behind both `/queryz` rows and session wide events. `label`
/// stands in for the record's truncated copy (a wide event passes the
/// session's full label).
void AddAuditFields(const QueryAuditRecord& record, std::string_view label,
                    WideEventBuilder& event);

/// A fixed-capacity lock-free ring of the most recent completed sessions.
/// Writers claim a slot by sequence number and publish through a per-slot
/// seqlock version (even = stable, odd = write in progress); readers retry
/// on torn slots. Writers never block and never touch the query hot path —
/// recording happens once per *session*, after Finalize. On the rare
/// collision (two writers `Capacity()` sequences apart racing for one
/// slot) the younger record is dropped and counted.
class QueryLog {
 public:
  static constexpr std::size_t kCapacity = 128;
  static constexpr std::size_t kWords =
      sizeof(QueryAuditRecord) / sizeof(std::uint64_t);

  QueryLog() = default;
  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  /// Assigns the next sequence number and publishes a copy of `record`
  /// (with `sequence` filled in) into the ring. Returns that sequence.
  std::uint64_t Record(QueryAuditRecord record);

  /// A consistent copy of every stable record, ascending by sequence.
  /// Records being overwritten concurrently are skipped, never torn.
  std::vector<QueryAuditRecord> Snapshot() const;

  /// Total sessions ever recorded (including those since evicted).
  std::uint64_t total_recorded() const {
    return head_.load(std::memory_order_relaxed);
  }

  /// Records dropped on same-slot writer collisions.
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// The `/queryz` JSON document: ring stats plus the most recent `limit`
  /// stable records (default: the whole ring).
  std::string RenderJson(std::size_t limit = kCapacity) const;

  /// The process-wide audit ring that SessionRunner and the serve layer
  /// record into.
  static QueryLog& Global();

 private:
  /// Test-only accessor: a real slot collision needs two writers racing
  /// `kCapacity` sequences apart mid-write, which cannot be scheduled
  /// deterministically from the public API. The peer pins a slot's seqlock
  /// version to "write in progress" so the drop path is directly testable.
  friend class QueryLogTestPeer;

  struct Slot {
    /// Seqlock version: 0 = never written, odd = write in progress.
    std::atomic<std::uint32_t> version{0};
    std::atomic<std::uint64_t> words[kWords] = {};
  };

  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> dropped_{0};
  Slot slots_[kCapacity];
};

}  // namespace obs
}  // namespace qdcbir

#endif  // QDCBIR_OBS_QUERY_LOG_H_
