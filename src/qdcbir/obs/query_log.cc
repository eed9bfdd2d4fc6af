#include "qdcbir/obs/query_log.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "qdcbir/obs/metrics.h"
#include "qdcbir/obs/quality_stats.h"
#include "qdcbir/obs/resource_stats.h"

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

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendField(std::string* out, const char* name, std::uint64_t value,
                 bool* first) {
  if (!*first) out->push_back(',');
  *first = false;
  *out += '"';
  *out += name;
  *out += "\":";
  *out += std::to_string(value);
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
  tiles_gathered = usage.tiles_gathered;
  container_allocs = usage.container_allocs;
  alloc_bytes = usage.alloc_bytes;
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

void QueryLog::Record(QueryAuditRecord record) {
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
    return;
  }

  std::uint64_t words[kWords];
  std::memcpy(words, &record, sizeof(record));
  for (std::size_t w = 0; w < kWords; ++w) {
    slot.words[w].store(words[w], std::memory_order_relaxed);
  }
  slot.version.store(version + 2, std::memory_order_release);
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
  bool first_record = true;
  for (const QueryAuditRecord& record : records) {
    if (!first_record) out.push_back(',');
    first_record = false;
    out.push_back('{');
    bool first = true;
    AppendField(&out, "sequence", record.sequence, &first);
    out += ",\"engine\":";
    AppendJsonString(&out, record.engine_view());
    out += ",\"label\":";
    AppendJsonString(&out, record.label_view());
    AppendField(&out, "seed", record.seed, &first);
    AppendField(&out, "rounds", record.rounds, &first);
    AppendField(&out, "picks", record.picks, &first);
    AppendField(&out, "results", record.results, &first);
    AppendField(&out, "subqueries", record.subqueries, &first);
    AppendField(&out, "boundary_expansions", record.boundary_expansions,
                &first);
    AppendField(&out, "expanded_subqueries", record.expanded_subqueries,
                &first);
    AppendField(&out, "nodes_visited", record.nodes_visited, &first);
    AppendField(&out, "candidates_scored", record.candidates_scored, &first);
    AppendField(&out, "nodes_touched", record.nodes_touched, &first);
    AppendField(&out, "distinct_nodes_sampled",
                record.distinct_nodes_sampled, &first);
    AppendField(&out, "rounds_ns", record.rounds_ns, &first);
    AppendField(&out, "finalize_ns", record.finalize_ns, &first);
    AppendField(&out, "total_ns", record.total_ns, &first);
    AppendField(&out, "distance_evals", record.distance_evals, &first);
    AppendField(&out, "feature_bytes", record.feature_bytes, &first);
    AppendField(&out, "leaves_visited", record.leaves_visited, &first);
    AppendField(&out, "tiles_gathered", record.tiles_gathered, &first);
    AppendField(&out, "container_allocs", record.container_allocs, &first);
    AppendField(&out, "alloc_bytes", record.alloc_bytes, &first);
    AppendField(&out, "cache_hits", record.cache_hits, &first);
    AppendField(&out, "cache_misses", record.cache_misses, &first);
    AppendField(&out, "quality_jaccard_permille",
                record.quality_jaccard_permille, &first);
    AppendField(&out, "quality_rank_churn", record.quality_rank_churn,
                &first);
    AppendField(&out, "quality_rounds_to_stability",
                record.quality_rounds_to_stability, &first);
    out += ",\"outcome\":";
    AppendJsonString(&out, SessionOutcomeName(static_cast<SessionOutcome>(
                               record.quality_outcome)));
    if (record.quality_oracle_precision_permille_plus1 > 0) {
      AppendField(&out, "oracle_precision_permille",
                  record.quality_oracle_precision_permille_plus1 - 1, &first);
    }
    out += ",\"trace\":";
    AppendJsonString(&out, record.trace_hex());
    out.push_back('}');
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
