#include "replay.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "qdcbir/cache/cache_manager.h"
#include "qdcbir/image/ppm_io.h"
#include "qdcbir/obs/http_server.h"
#include "qdcbir/obs/resource_stats.h"
#include "qdcbir/query/qd_engine.h"
#include "qdcbir/serve/json_mini.h"
#include "qdcbir/serve/serve_app.h"

namespace perfbench {
namespace {

std::uint64_t Now() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The server's session options for `seed` (serve_app's defaults).
qdcbir::QdOptions ServerQdOptions(std::uint32_t seed, qdcbir::ThreadPool* pool,
                                  qdcbir::cache::CacheManager* cache) {
  const qdcbir::serve::ServeOptions serve_defaults;
  qdcbir::QdOptions options;
  options.display_size = serve_defaults.display_size;
  options.boundary_threshold = serve_defaults.boundary_threshold;
  options.seed = seed;
  options.pool = pool;
  options.cache = cache;
  return options;
}

bool SameDisplay(const std::vector<DisplayGroup>& a,
                 const std::vector<DisplayGroup>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].node != b[i].node || a[i].images != b[i].images) return false;
  }
  return true;
}

std::size_t FinalK(const SessionRecord& s) {
  return s.k > 0 ? s.k : ServerDefaultK();
}

/// Drives `session` through the recorded requests up to (not including)
/// the finalize call. Returns false when the replay diverges.
bool ReplayToFinalize(qdcbir::QdSession& session, const SessionRecord& s) {
  for (const RequestRecord& r : s.requests) {
    if (r.kind == RequestKind::kQuery) {
      session.Start();
    } else if (r.kind == RequestKind::kFeedback ||
               r.kind == RequestKind::kFinalize) {
      if (!session.Feedback(r.detail->picks).ok()) return false;
    }
  }
  return true;
}

}  // namespace

ReplayResult ReplaySessions(const qdcbir::RfsTree& rfs,
                            const std::vector<SessionRecord>& sessions,
                            int threads, qdcbir::ThreadPool& pool,
                            bool timed) {
  ReplayResult result;
  std::mutex mu;
  std::atomic<std::size_t> next{0};

  auto worker = [&](int lane) {
    ReplayResult local;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= sessions.size()) break;
      const SessionRecord& s = sessions[i];
      if (!s.finalized) continue;
      ++local.sessions_checked;
      qdcbir::obs::ResourceAccumulator resources;
      const qdcbir::obs::ScopedResourceAccounting accounting(
          timed ? &resources : nullptr);
      qdcbir::QdSession session(&rfs, ServerQdOptions(s.plan.seed, &pool, nullptr));
      const int tid = 1000 + lane;
      const std::uint64_t session_start = Now();
      std::string mismatch;
      auto span = [&](const char* name, const RequestRecord& r,
                      std::uint64_t t0, std::uint64_t t1) {
        if (s.span_id != 0) {
          local.spans.push_back({name, tid, NextSpanId(), r.span_id,
                                 s.plan.seed, t0, t1});
        }
      };
      for (const RequestRecord& r : s.requests) {
        if (!mismatch.empty()) break;
        if (r.kind == RequestKind::kQuery) {
          const std::uint64_t t0 = Now();
          const std::vector<DisplayGroup> display = session.Start();
          const std::uint64_t t1 = Now();
          span("query.start", r, t0, t1);
          local.start_us.push_back((t1 - t0) / 1e3);
          if (!SameDisplay(display, r.detail->display)) mismatch = "start display";
        } else if (r.kind == RequestKind::kFeedback ||
                   r.kind == RequestKind::kFinalize) {
          const std::uint64_t t0 = Now();
          auto display = session.Feedback(r.detail->picks);
          const std::uint64_t t1 = Now();
          span("query.feedback", r, t0, t1);
          local.feedback_us.push_back((t1 - t0) / 1e3);
          if (!display.ok()) {
            mismatch = "feedback rejected: " + display.status().ToString();
          } else if (r.kind == RequestKind::kFeedback &&
                     !SameDisplay(*display, r.detail->display)) {
            mismatch = "feedback display";
          }
          if (r.kind != RequestKind::kFinalize || !mismatch.empty()) continue;
          const std::uint64_t t2 = Now();
          auto finalized = session.Finalize(FinalK(s));
          const std::uint64_t t3 = Now();
          span("query.finalize", r, t2, t3);
          local.finalize_us.push_back((t3 - t2) / 1e3);
          if (!finalized.ok()) {
            mismatch = "finalize failed: " + finalized.status().ToString();
          } else if (finalized->Flatten() != s.results) {
            mismatch = "ranked ids";
          }
        }
      }
      if (s.span_id != 0) {
        local.spans.push_back({"replay.session", tid, NextSpanId(), s.span_id,
                               s.plan.seed, session_start, Now()});
      }
      if (timed) {
        const qdcbir::QdSessionStats& stats = session.stats();
        local.subqueries.push_back(static_cast<double>(stats.localized_subqueries));
        local.expanded_subqueries.push_back(
            static_cast<double>(stats.expanded_subqueries));
        local.knn_candidates.push_back(static_cast<double>(stats.knn_candidates));
        qdcbir::obs::FlushResourceAccounting();
        const qdcbir::obs::ResourceUsage usage = resources.Snapshot();
        local.distance_evals.push_back(static_cast<double>(usage.distance_evals));
        local.feature_bytes.push_back(static_cast<double>(usage.feature_bytes));
        local.tiles_gathered.push_back(static_cast<double>(usage.tiles_gathered));
        local.alloc_bytes.push_back(static_cast<double>(usage.alloc_bytes));
      }
      if (!mismatch.empty()) {
        local.mismatched.push_back(s.index);
        if (local.first_mismatch.empty()) {
          local.first_mismatch =
              "session " + std::to_string(s.index) + ": " + mismatch;
        }
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    result.sessions_checked += local.sessions_checked;
    result.mismatched.insert(result.mismatched.end(), local.mismatched.begin(),
                             local.mismatched.end());
    if (result.first_mismatch.empty()) result.first_mismatch = local.first_mismatch;
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(result.start_us, local.start_us);
    append(result.feedback_us, local.feedback_us);
    append(result.finalize_us, local.finalize_us);
    append(result.subqueries, local.subqueries);
    append(result.expanded_subqueries, local.expanded_subqueries);
    append(result.knn_candidates, local.knn_candidates);
    append(result.distance_evals, local.distance_evals);
    append(result.feature_bytes, local.feature_bytes);
    append(result.tiles_gathered, local.tiles_gathered);
    append(result.alloc_bytes, local.alloc_bytes);
    result.spans.insert(result.spans.end(), local.spans.begin(),
                        local.spans.end());
  };
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) workers.emplace_back(worker, t);
  for (std::thread& t : workers) t.join();
  return result;
}

ThumbnailCheck CheckThumbnails(const qdcbir::ImageDatabase& db,
                               const std::vector<const RequestRecord*>& reps) {
  ThumbnailCheck out;
  for (const RequestRecord* r : reps) {
    if (r->kind != RequestKind::kRep || !r->detail || !r->ok()) continue;
    ++out.checked;
    if (qdcbir::EncodePpm(db.Render(r->rep_id)) != r->detail->raw_body) {
      ++out.mismatches;
    }
  }
  return out;
}

FinalizeVariants MeasureFinalizeVariants(
    const qdcbir::RfsTree& rfs, const std::vector<SessionRecord>& sessions,
    std::size_t max_sessions, qdcbir::ThreadPool& pool) {
  qdcbir::ThreadPool one_lane(1);
  qdcbir::cache::CacheManager::Options cache_options;
  cache_options.budget_bytes = qdcbir::serve::ServeOptions().cache_mb << 20;
  qdcbir::cache::CacheManager cache(cache_options);
  FinalizeVariants out;
  auto finalize_ms = [&](const SessionRecord& s, qdcbir::ThreadPool* lanes,
                         qdcbir::cache::CacheManager* with_cache) {
    qdcbir::QdSession session(&rfs, ServerQdOptions(s.plan.seed, lanes, with_cache));
    if (!ReplayToFinalize(session, s)) return 0.0;
    const std::uint64_t t0 = Now();
    const bool ok = session.Finalize(FinalK(s)).ok();
    return ok ? (Now() - t0) / 1e6 : 0.0;
  };
  for (const SessionRecord& s : sessions) {
    if (out.sessions >= max_sessions) break;
    if (!s.finalized) continue;
    ++out.sessions;
    out.one_lane_ms += finalize_ms(s, &one_lane, nullptr);
    out.pool_ms += finalize_ms(s, &pool, nullptr);
    out.cached_ms += finalize_ms(s, &pool, &cache);
  }
  return out;
}

CodecTimes MeasureCodecs(const std::vector<SessionRecord>& sessions) {
  CodecTimes out;
  constexpr int kPasses = 5;
  constexpr int kTid = 2000;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const SessionRecord& s : sessions) {
      for (const RequestRecord& r : s.requests) {
        if (!r.detail || r.detail->raw_request.empty()) continue;
        auto record = [&](const char* name, std::vector<double>& into,
                          std::uint64_t t0, std::uint64_t t1) {
          into.push_back((t1 - t0) / 1e3);
          if (pass == 0) {
            out.spans.push_back({name, kTid, NextSpanId(), r.span_id,
                                 s.plan.seed, t0, t1});
          }
        };
        qdcbir::obs::HttpRequest request;
        std::size_t consumed = 0;
        std::uint64_t t0 = Now();
        const auto status = qdcbir::obs::ParseHttpRequest(
            r.detail->raw_request, &request, &consumed);
        std::uint64_t t1 = Now();
        record("http.parse", out.parse_us, t0, t1);
        if (status == qdcbir::obs::HttpParseStatus::kOk && !request.body.empty()) {
          t0 = Now();
          const bool parsed = qdcbir::serve::ParseJson(request.body).ok();
          t1 = Now();
          if (parsed) record("serve.json_parse", out.json_parse_us, t0, t1);
        }
        const qdcbir::obs::HttpResponse response(
            r.status,
            r.kind == RequestKind::kRep ? "image/x-portable-pixmap"
                                        : "application/json",
            r.detail->raw_body);
        t0 = Now();
        const std::string wire = qdcbir::obs::SerializeHttpResponse(response, true);
        t1 = Now();
        if (!wire.empty()) record("http.serialize", out.serialize_us, t0, t1);
      }
    }
  }
  return out;
}

}  // namespace perfbench
