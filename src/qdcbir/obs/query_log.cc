#include "qdcbir/obs/query_log.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "qdcbir/obs/metrics.h"
#include "qdcbir/obs/quality_stats.h"
#include "qdcbir/obs/resource_stats.h"
#include "qdcbir/obs/wide_event.h"

namespace qdcbir {
namespace obs {

namespace {

void CopyTruncated(char* dst, std::size_t dst_size, std::string_view src) {
  const std::size_t n = src.size() < dst_size ? src.size() : dst_size;
  std::memset(dst, 0, dst_size);
  std::memcpy(dst, src.data(), n);
}

std::string_view ViewOf(const char* data, std::size_t max) {
  std::size_t len = 0;
  while (len < max && data[len] != '\0') ++len;
  return std::string_view(data, len);
}

}  // namespace

void QueryAuditRecord::set_engine(std::string_view name) {
  CopyTruncated(engine, sizeof(engine), name);
}

void QueryAuditRecord::set_label(std::string_view name) {
  CopyTruncated(label, sizeof(label), name);
}

void QueryAuditRecord::SetTelemetry(const ResourceUsage& usage,
                                    const SessionQuality& quality) {
  distance_evals = usage.distance_evals;
  feature_bytes = usage.feature_bytes;
  leaves_visited = usage.leaves_visited;
  cache_hits = usage.cache_hits;
  cache_misses = usage.cache_misses;
  quality_jaccard_permille = quality.last_jaccard_permille;
  quality_rank_churn = quality.last_rank_churn;
  quality_rounds_to_stability = quality.rounds_to_stability;
  quality_outcome = static_cast<std::uint64_t>(quality.outcome);
  quality_oracle_precision_permille_plus1 =
      quality.oracle_precision_defined ? quality.oracle_precision_permille + 1
                                       : 0;
}

std::string_view QueryAuditRecord::engine_view() const {
  return ViewOf(engine, sizeof(engine));
}

std::string_view QueryAuditRecord::label_view() const {
  return ViewOf(label, sizeof(label));
}

std::string QueryAuditRecord::trace_hex() const {
  if ((trace_hi | trace_lo) == 0) return "";
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(trace_hi),
                static_cast<unsigned long long>(trace_lo));
  return std::string(buf, 32);
}

void AddAuditFields(const QueryAuditRecord& record, std::string_view label,
                    WideEventBuilder& event) {
  event.Add("sequence", record.sequence)
      .Add("engine", record.engine_view())
      .Add("label", label)
      .Add("seed", record.seed)
      .Add("rounds", record.rounds)
      .Add("picks", record.picks)
      .Add("results", record.results)
      .Add("subqueries", record.subqueries)
      .Add("boundary_expansions", record.boundary_expansions)
      .Add("expanded_subqueries", record.expanded_subqueries)
      .Add("nodes_visited", record.nodes_visited)
      .Add("candidates_scored", record.candidates_scored)
      .Add("nodes_touched", record.nodes_touched)
      .Add("distinct_nodes_sampled", record.distinct_nodes_sampled)
      .Add("rounds_ns", record.rounds_ns)
      .Add("finalize_ns", record.finalize_ns)
      .Add("total_ns", record.total_ns)
      .Add("distance_evals", record.distance_evals)
      .Add("feature_bytes", record.feature_bytes)
      .Add("leaves_visited", record.leaves_visited)
      .Add("cache_hits", record.cache_hits)
      .Add("cache_misses", record.cache_misses)
      .Add("quality_jaccard_permille", record.quality_jaccard_permille)
      .Add("quality_rank_churn", record.quality_rank_churn)
      .Add("quality_rounds_to_stability", record.quality_rounds_to_stability)
      .Add("outcome", SessionOutcomeName(
                          static_cast<SessionOutcome>(record.quality_outcome)));
  if (record.quality_oracle_precision_permille_plus1 > 0) {
    event.Add("oracle_precision_permille",
              record.quality_oracle_precision_permille_plus1 - 1);
  }
  event.Add("trace", record.trace_hex());
}

std::uint64_t QueryLog::Record(QueryAuditRecord record) {
  const std::uint64_t seq = head_.fetch_add(1, std::memory_order_relaxed);
  record.sequence = seq;
  Slot& slot = slots_[seq % kCapacity];

  std::uint32_t version = slot.version.load(std::memory_order_relaxed);
  if ((version & 1u) != 0 ||
      !slot.version.compare_exchange_strong(version, version + 1,
                                            std::memory_order_acquire,
                                            std::memory_order_relaxed)) {
    // Another writer holds this slot (sequences kCapacity apart racing).
    dropped_.fetch_add(1, std::memory_order_relaxed);
    static Counter& dropped_counter = MetricsRegistry::Global().GetCounter(
        "querylog.dropped",
        "Session audit records dropped on a query-log slot collision");
    dropped_counter.Add(1);
    return seq;
  }

  std::uint64_t words[kWords];
  std::memcpy(words, &record, sizeof(record));
  for (std::size_t w = 0; w < kWords; ++w) {
    slot.words[w].store(words[w], std::memory_order_relaxed);
  }
  slot.version.store(version + 2, std::memory_order_release);
  return seq;
}

std::vector<QueryAuditRecord> QueryLog::Snapshot() const {
  std::vector<QueryAuditRecord> records;
  records.reserve(kCapacity);
  for (const Slot& slot : slots_) {
    // Bounded retries: a slot rewritten in a tight loop is skipped rather
    // than stalling the reader.
    for (int attempt = 0; attempt < 4; ++attempt) {
      const std::uint32_t v1 = slot.version.load(std::memory_order_acquire);
      if (v1 == 0) break;             // never written
      if ((v1 & 1u) != 0) continue;   // write in progress
      std::uint64_t words[kWords];
      for (std::size_t w = 0; w < kWords; ++w) {
        words[w] = slot.words[w].load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.version.load(std::memory_order_relaxed) != v1) continue;
      QueryAuditRecord record;
      std::memcpy(&record, words, sizeof(record));
      records.push_back(record);
      break;
    }
  }
  std::sort(records.begin(), records.end(),
            [](const QueryAuditRecord& a, const QueryAuditRecord& b) {
              return a.sequence < b.sequence;
            });
  return records;
}

std::string QueryLog::RenderJson(std::size_t limit) const {
  std::vector<QueryAuditRecord> records = Snapshot();
  if (records.size() > limit) {
    // Keep the most recent records: Snapshot sorts ascending by sequence.
    records.erase(records.begin(),
                  records.end() - static_cast<std::ptrdiff_t>(limit));
  }
  std::string out = "{\"capacity\":" + std::to_string(kCapacity);
  out += ",\"total_recorded\":" + std::to_string(total_recorded());
  out += ",\"dropped\":" + std::to_string(dropped());
  out += ",\"records\":[";
  bool first = true;
  for (const QueryAuditRecord& record : records) {
    if (!first) out.push_back(',');
    first = false;
    WideEventBuilder row;
    AddAuditFields(record, record.label_view(), row);
    out += row.Build();
  }
  out += "]}";
  return out;
}

QueryLog& QueryLog::Global() {
  static QueryLog* log = new QueryLog();
  return *log;
}

}  // namespace obs
}  // namespace qdcbir
