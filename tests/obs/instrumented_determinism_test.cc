// Observability must not disturb the engine's determinism contract: the
// same scripted QD session must return byte-identical results at 1/2/4/8
// pool lanes, with the tracer disarmed AND with it armed (tracing adds
// mutex-serialized event appends on every span — none of that may leak
// into result ordering or scoring). The same holds for index-access
// telemetry and the metrics flight recorder: ranked results AND the
// logical cost model (QdSessionStats) must be byte-identical with them on
// vs off.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "qdcbir/core/thread_pool.h"
#include "qdcbir/dataset/synthesizer.h"
#include "qdcbir/obs/metrics.h"
#include "qdcbir/obs/resource_stats.h"
#include "qdcbir/obs/timeseries.h"
#include "qdcbir/obs/trace.h"
#include "qdcbir/query/qd_engine.h"
#include "qdcbir/rfs/rfs_builder.h"

namespace qdcbir {
namespace {

class InstrumentedDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CatalogOptions catalog_options;
    catalog_options.num_categories = 20;
    Catalog catalog = Catalog::Build(catalog_options).value();
    SynthesizerOptions options;
    options.total_images = 500;
    options.image_width = 32;
    options.image_height = 32;
    db_ = new ImageDatabase(
        DatabaseSynthesizer::Synthesize(catalog, options).value());

    RfsBuildOptions build;
    build.tree.max_entries = 40;
    build.tree.min_entries = 16;
    rfs_ = new RfsTree(RfsBuilder::Build(db_->features(), build).value());
  }
  static void TearDownTestSuite() {
    delete rfs_;
    delete db_;
  }

  static QdResult RunScriptedSession(ThreadPool* pool,
                                     QdSessionStats* stats_out = nullptr) {
    QdOptions options;
    options.seed = 1234;
    options.pool = pool;
    QdSession session(rfs_, options);
    std::vector<DisplayGroup> display = session.Start();
    for (int round = 0; round < 2; ++round) {
      std::vector<ImageId> picks;
      for (const DisplayGroup& group : display) {
        for (std::size_t i = 0; i < group.images.size() && i < 2; ++i) {
          picks.push_back(group.images[i]);
        }
      }
      display = session.Feedback(picks).value();
    }
    QdResult result = session.Finalize(60).value();
    if (stats_out != nullptr) *stats_out = session.stats();
    return result;
  }

  static const ImageDatabase* db_;
  static const RfsTree* rfs_;
};

const ImageDatabase* InstrumentedDeterminismTest::db_ = nullptr;
const RfsTree* InstrumentedDeterminismTest::rfs_ = nullptr;

void ExpectIdenticalResults(const QdResult& a, const QdResult& b) {
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (std::size_t g = 0; g < a.groups.size(); ++g) {
    const ResultGroup& ga = a.groups[g];
    const ResultGroup& gb = b.groups[g];
    EXPECT_EQ(ga.leaf, gb.leaf);
    EXPECT_EQ(ga.search_node, gb.search_node);
    EXPECT_EQ(ga.relevant_count, gb.relevant_count);
    EXPECT_EQ(ga.ranking_score, gb.ranking_score);  // bit-exact
    ASSERT_EQ(ga.images.size(), gb.images.size());
    for (std::size_t i = 0; i < ga.images.size(); ++i) {
      EXPECT_EQ(ga.images[i].id, gb.images[i].id);
      EXPECT_EQ(ga.images[i].distance_squared, gb.images[i].distance_squared);
    }
  }
}

void ExpectIdenticalStats(const QdSessionStats& a, const QdSessionStats& b) {
  EXPECT_EQ(a.feedback_rounds, b.feedback_rounds);
  EXPECT_EQ(a.nodes_touched, b.nodes_touched);
  EXPECT_EQ(a.distinct_nodes_sampled, b.distinct_nodes_sampled);
  EXPECT_EQ(a.boundary_expansions, b.boundary_expansions);
  EXPECT_EQ(a.expanded_subqueries, b.expanded_subqueries);
  EXPECT_EQ(a.localized_subqueries, b.localized_subqueries);
  EXPECT_EQ(a.knn_candidates, b.knn_candidates);
  EXPECT_EQ(a.knn_nodes_visited, b.knn_nodes_visited);
}

TEST_F(InstrumentedDeterminismTest, IdenticalAcrossThreadCountsTracingOff) {
  ASSERT_FALSE(obs::Tracer::Global().enabled());
  ThreadPool pool1(1);
  const QdResult baseline = RunScriptedSession(&pool1);
  for (const std::size_t lanes : {2u, 4u, 8u}) {
    ThreadPool pool(lanes);
    const QdResult result = RunScriptedSession(&pool);
    ExpectIdenticalResults(baseline, result);
  }
}

TEST_F(InstrumentedDeterminismTest, IdenticalAcrossThreadCountsTracingOn) {
  // Untraced baseline first, then every traced run must match it exactly:
  // arming the tracer may change timing, never results.
  ThreadPool pool1(1);
  const QdResult baseline = RunScriptedSession(&pool1);

  const std::string path =
      ::testing::TempDir() + "/instrumented_determinism_trace.json";
  std::string error;
  ASSERT_TRUE(obs::Tracer::Global().Start(path, &error)) << error;
  for (const std::size_t lanes : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(lanes);
    const QdResult result = RunScriptedSession(&pool);
    ExpectIdenticalResults(baseline, result);
  }
  ASSERT_TRUE(obs::Tracer::Global().Stop(&error)) << error;

  // The traced runs also must have produced a structurally valid file.
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(obs::ValidateChromeTrace(buffer.str(), &error, nullptr))
      << error;
}

TEST_F(InstrumentedDeterminismTest, IdenticalWithAccessTelemetryOnVsOff) {
  // Untracked baseline: no resource sink installed, so every tap is the
  // accounting-off branch.
  ThreadPool pool1(1);
  QdSessionStats baseline_stats;
  const QdResult baseline = RunScriptedSession(&pool1, &baseline_stats);

  // A live flight recorder sampling its own registry on a tight cadence
  // runs concurrently with the accounted sessions: neither the TLS-batched
  // access taps nor the recorder's background snapshots may perturb ranked
  // results or the logical cost model.
  obs::MetricsRegistry registry;
  obs::FlightRecorder::Options recorder_options;
  recorder_options.interval_ns = 1000ull * 1000;  // 1ms
  obs::FlightRecorder recorder(recorder_options, &registry);
  recorder.Start();

  for (const std::size_t lanes : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(lanes);
    obs::ResourceAccumulator access;
    QdSessionStats stats;
    QdResult result;
    {
      const obs::ScopedResourceAccounting accounting(&access);
      result = RunScriptedSession(&pool, &stats);
    }
    ExpectIdenticalResults(baseline, result);
    ExpectIdenticalStats(baseline_stats, stats);

    // The telemetry must actually have been on: the scripted session's
    // localized searches record per-leaf scans with distance evals.
    const std::vector<obs::LeafAccess> rows = access.LeafSnapshot();
    ASSERT_FALSE(rows.empty()) << "access accounting captured nothing";
    obs::LeafAccessCounts totals;
    for (const obs::LeafAccess& row : rows) totals.Add(row.counts);
    EXPECT_GT(totals.scans, 0u);
    EXPECT_GT(totals.distance_evals, 0u);
  }

  recorder.Stop();
  EXPECT_GT(recorder.samples_taken(), 0u);
}

}  // namespace
}  // namespace qdcbir
