// Prometheus exposition tests: name sanitization, rendering of the three
// metric kinds, validator acceptance of the renderer's own output (for a
// local registry AND for every metric registered in the global registry),
// and validator rejection of duplicate families, interleaved families, and
// non-monotonic cumulative buckets.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "qdcbir/core/thread_pool.h"
#include "qdcbir/obs/access_stats.h"
#include "qdcbir/obs/metrics.h"
#include "qdcbir/obs/prom_export.h"

namespace qdcbir {
namespace obs {
namespace {

TEST(PrometheusNameTest, SanitizesAndPrefixes) {
  EXPECT_EQ(PrometheusName("pool.task.wait_ns"), "qdcbir_pool_task_wait_ns");
  EXPECT_EQ(PrometheusName("io.load.bytes"), "qdcbir_io_load_bytes");
  EXPECT_EQ(PrometheusName("span.qd.finalize"), "qdcbir_span_qd_finalize");
  EXPECT_EQ(PrometheusName("weird-name!x"), "qdcbir_weird_name_x");
}

TEST(PromExportTest, RendersCounterGaugeHistogram) {
  MetricsRegistry registry;
  registry.GetCounter("test.requests", "Requests served").Add(3);
  Gauge& gauge = registry.GetGauge("test.depth", "Queue depth");
  gauge.Add(5);
  gauge.Add(-2);
  Histogram& histogram = registry.GetHistogram("test.latency_ns", "Latency");
  histogram.Record(10);
  histogram.Record(1000);

  const std::string text = RenderPrometheusText(registry);
  EXPECT_NE(text.find("# TYPE qdcbir_test_requests counter"),
            std::string::npos);
  EXPECT_NE(text.find("qdcbir_test_requests 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE qdcbir_test_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("qdcbir_test_depth 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE qdcbir_test_depth_highwater gauge"),
            std::string::npos);
  EXPECT_NE(text.find("qdcbir_test_depth_highwater 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE qdcbir_test_latency_ns histogram"),
            std::string::npos);
  EXPECT_NE(text.find("qdcbir_test_latency_ns_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("qdcbir_test_latency_ns_count 2"), std::string::npos);
  // The help string and the inferred unit reach the HELP line.
  EXPECT_NE(text.find("# HELP qdcbir_test_latency_ns Latency "
                      "(unit: nanoseconds)"),
            std::string::npos);

  std::string error;
  std::map<std::string, double> samples;
  ASSERT_TRUE(ValidatePrometheusText(text, &error, &samples)) << error;
  EXPECT_DOUBLE_EQ(samples["qdcbir_test_requests"], 3.0);
  EXPECT_DOUBLE_EQ(samples["qdcbir_test_latency_ns_count"], 2.0);
}

TEST(PromExportTest, EveryGlobalRegistrationRendersAValidTypeLine) {
  // Touch at least one metric of every module that registers lazily, so
  // the global registry holds a representative population.
  MetricsRegistry& registry = MetricsRegistry::Global();
  { ThreadPool pool(2); pool.ParallelFor(0, 8, [](std::size_t) {}); }
  registry.SpanHistogram("prom_export_test").Record(1);

  const std::string text = RenderPrometheusText(registry);
  std::string error;
  std::map<std::string, double> samples;
  ASSERT_TRUE(ValidatePrometheusText(text, &error, &samples)) << error;

  const MetricsRegistry::RegistrySnapshot snapshot = registry.Snapshot();
  for (const auto& [name, value] : snapshot.counters) {
    const std::string prom = PrometheusName(name);
    EXPECT_NE(text.find("# TYPE " + prom + " counter\n"), std::string::npos)
        << "counter " << name << " missing its TYPE line";
    EXPECT_TRUE(samples.count(prom)) << name;
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string prom = PrometheusName(name);
    EXPECT_NE(text.find("# TYPE " + prom + " gauge\n"), std::string::npos)
        << "gauge " << name << " missing its TYPE line";
    EXPECT_NE(text.find("# TYPE " + prom + "_highwater gauge\n"),
              std::string::npos)
        << "gauge " << name << " missing its highwater family";
  }
  for (const auto& [name, value] : snapshot.histograms) {
    const std::string prom = PrometheusName(name);
    EXPECT_NE(text.find("# TYPE " + prom + " histogram\n"), std::string::npos)
        << "histogram " << name << " missing its TYPE line";
    EXPECT_TRUE(samples.count(prom + "_count")) << name;
  }
}

TEST(PromExportTest, HistogramBucketsAreCumulativeAndClosed) {
  MetricsRegistry registry;
  Histogram& histogram = registry.GetHistogram("test.h_ns", "h");
  for (std::uint64_t v = 1; v < 100000; v *= 3) histogram.Record(v);
  const std::string text = RenderPrometheusText(registry);
  std::string error;
  EXPECT_TRUE(ValidatePrometheusText(text, &error)) << error;
}

TEST(PromValidatorTest, RejectsDuplicateFamily) {
  const std::string text =
      "# TYPE qdcbir_a counter\nqdcbir_a 1\n"
      "# TYPE qdcbir_b counter\nqdcbir_b 1\n"
      "# TYPE qdcbir_a counter\nqdcbir_a 2\n";
  std::string error;
  EXPECT_FALSE(ValidatePrometheusText(text, &error));
  EXPECT_NE(error.find("qdcbir_a"), std::string::npos) << error;
}

TEST(PromValidatorTest, RejectsInterleavedFamilies) {
  const std::string text =
      "# TYPE qdcbir_a counter\n"
      "# TYPE qdcbir_b counter\n"
      "qdcbir_b 1\n"
      "qdcbir_a 1\n";
  std::string error;
  EXPECT_FALSE(ValidatePrometheusText(text, &error));
}

TEST(PromValidatorTest, RejectsNonMonotonicCumulativeBuckets) {
  const std::string text =
      "# TYPE qdcbir_h histogram\n"
      "qdcbir_h_bucket{le=\"10\"} 5\n"
      "qdcbir_h_bucket{le=\"20\"} 3\n"
      "qdcbir_h_bucket{le=\"+Inf\"} 3\n"
      "qdcbir_h_sum 40\n"
      "qdcbir_h_count 3\n";
  std::string error;
  EXPECT_FALSE(ValidatePrometheusText(text, &error));
  EXPECT_NE(error.find("cumulative"), std::string::npos) << error;
}

TEST(PromValidatorTest, RejectsDecreasingBucketBounds) {
  const std::string text =
      "# TYPE qdcbir_h histogram\n"
      "qdcbir_h_bucket{le=\"20\"} 1\n"
      "qdcbir_h_bucket{le=\"10\"} 2\n"
      "qdcbir_h_bucket{le=\"+Inf\"} 2\n"
      "qdcbir_h_sum 12\n"
      "qdcbir_h_count 2\n";
  std::string error;
  EXPECT_FALSE(ValidatePrometheusText(text, &error));
}

TEST(PromValidatorTest, RejectsMissingInfBucket) {
  const std::string text =
      "# TYPE qdcbir_h histogram\n"
      "qdcbir_h_bucket{le=\"10\"} 1\n"
      "qdcbir_h_sum 5\n"
      "qdcbir_h_count 1\n";
  std::string error;
  EXPECT_FALSE(ValidatePrometheusText(text, &error));
}

TEST(PromValidatorTest, RejectsSampleWithoutType) {
  std::string error;
  EXPECT_FALSE(ValidatePrometheusText("qdcbir_orphan 1\n", &error));
}

TEST(PromValidatorTest, AcceptsEmptyInput) {
  std::string error;
  std::map<std::string, double> samples;
  EXPECT_TRUE(ValidatePrometheusText("", &error, &samples));
  EXPECT_TRUE(samples.empty());
}

TEST(PromExemplarTest, RendersExemplarOnMatchingBucketAndValidates) {
  MetricsRegistry registry;
  Histogram& histogram = registry.GetHistogram("test.lat_ns", "latency");
  histogram.Record(12345);
  const std::string trace_id = "0123456789abcdef0123456789abcdef";
  registry.RecordExemplar("test.lat_ns", 12345, trace_id);

  const std::string text = RenderPrometheusText(registry);
  EXPECT_NE(text.find("# {trace_id=\"" + trace_id + "\"} 12345"),
            std::string::npos)
      << text;

  std::string error;
  std::map<std::string, double> samples;
  std::vector<std::string> exemplar_ids;
  ASSERT_TRUE(ValidatePrometheusText(text, &error, &samples, &exemplar_ids))
      << error;
  ASSERT_EQ(exemplar_ids.size(), 1u);
  EXPECT_EQ(exemplar_ids[0], trace_id);
}

TEST(PromExemplarTest, LatestExemplarPerBucketWins) {
  MetricsRegistry registry;
  Histogram& histogram = registry.GetHistogram("test.lat2_ns", "latency");
  histogram.Record(100);
  histogram.Record(101);
  registry.RecordExemplar("test.lat2_ns", 100, std::string(32, 'a'));
  registry.RecordExemplar("test.lat2_ns", 101, std::string(32, 'b'));
  const std::string text = RenderPrometheusText(registry);
  EXPECT_EQ(text.find(std::string(32, 'a')), std::string::npos);
  EXPECT_NE(text.find(std::string(32, 'b')), std::string::npos);
}

TEST(PromExemplarTest, EmptyTraceIdRecordsNothing) {
  MetricsRegistry registry;
  registry.GetHistogram("test.lat3_ns", "latency").Record(7);
  registry.RecordExemplar("test.lat3_ns", 7, "");
  EXPECT_EQ(RenderPrometheusText(registry).find(" # {"), std::string::npos);
}

TEST(PromValidatorTest, RejectsExemplarOnNonBucketSample) {
  const std::string text =
      "# TYPE qdcbir_c counter\n"
      "qdcbir_c 1 # {trace_id=\"0123456789abcdef0123456789abcdef\"} 1\n";
  std::string error;
  EXPECT_FALSE(ValidatePrometheusText(text, &error));
  EXPECT_NE(error.find("exemplar"), std::string::npos) << error;
}

TEST(PromValidatorTest, RejectsMalformedExemplarTraceId) {
  // Too short, uppercase, and non-hex ids must all fail.
  for (const std::string& bad :
       {std::string("abc"), std::string(32, 'A'), std::string(32, 'g')}) {
    const std::string text =
        "# TYPE qdcbir_h histogram\n"
        "qdcbir_h_bucket{le=\"10\"} 1 # {trace_id=\"" + bad + "\"} 5\n"
        "qdcbir_h_bucket{le=\"+Inf\"} 1\n"
        "qdcbir_h_sum 5\n"
        "qdcbir_h_count 1\n";
    std::string error;
    EXPECT_FALSE(ValidatePrometheusText(text, &error)) << bad;
  }
}

TEST(PromEscapingTest, HelpTextEscapesBackslashAndNewline) {
  EXPECT_EQ(EscapeHelpText("plain help"), "plain help");
  EXPECT_EQ(EscapeHelpText("path C:\\tmp"), "path C:\\\\tmp");
  EXPECT_EQ(EscapeHelpText("line one\nline two"), "line one\\nline two");
  // HELP lines keep double quotes literal per the exposition format.
  EXPECT_EQ(EscapeHelpText("a \"quoted\" word"), "a \"quoted\" word");
  EXPECT_EQ(EscapeHelpText("\\n is not a newline\n"),
            "\\\\n is not a newline\\n");
}

TEST(PromEscapingTest, LabelValuesAlsoEscapeQuotes) {
  EXPECT_EQ(EscapeLabelValue("abc123"), "abc123");
  EXPECT_EQ(EscapeLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(EscapeLabelValue("a\\b\nc"), "a\\\\b\\nc");
}

TEST(PromEscapingTest, HelpWithEdgeCaseBytesRendersAndValidates) {
  // A help string carrying every character the format makes special must
  // come out as one physical, parseable HELP line.
  MetricsRegistry registry;
  registry
      .GetCounter("test.tricky",
                  "back\\slash, \"quotes\",\nand a newline")
      .Add(1);
  const std::string text = RenderPrometheusText(registry);
  EXPECT_NE(
      text.find("# HELP qdcbir_test_tricky "
                "back\\\\slash, \"quotes\",\\nand a newline\n"),
      std::string::npos)
      << text;
  std::string error;
  std::map<std::string, double> samples;
  ASSERT_TRUE(ValidatePrometheusText(text, &error, &samples)) << error;
  EXPECT_DOUBLE_EQ(samples["qdcbir_test_tricky"], 1.0);
}

TEST(PromExportTest, AccessAndHistoryFamiliesRenderAndValidate) {
  // The /metrics surface for the index-access telemetry: label-free
  // access.* and history.* rollups from the registry, plus the labeled
  // per-leaf index.leaf.* families appended after them. The combined
  // document must be one valid exposition.
  MetricsRegistry registry;
  registry.GetCounter("access.leaf.scans", "Leaf scans across sessions")
      .Add(12);
  registry
      .GetCounter("access.leaf.distance_evals", "Distance evals in leaf scans")
      .Add(400);
  registry.GetCounter("access.leaf.feature_bytes", "Bytes read by leaf scans")
      .Add(3);
  registry.GetCounter("history.samples.taken", "Recorder samples").Add(9);
  registry.GetGauge("index.tree.leaves", "RFS leaf count").Set(17);

  std::vector<LeafAccess> rows;
  rows.push_back({3, {5, 100, 800}});
  rows.push_back({kTableScanLeaf, {2, 900, 7200}});
  const std::string text =
      RenderPrometheusText(registry) + RenderIndexLeafPrometheusText(rows, 8);

  std::string error;
  std::map<std::string, double> samples;
  ASSERT_TRUE(ValidatePrometheusText(text, &error, &samples)) << error;
  EXPECT_DOUBLE_EQ(samples["qdcbir_access_leaf_scans"], 12.0);
  EXPECT_DOUBLE_EQ(samples["qdcbir_history_samples_taken"], 9.0);
  EXPECT_DOUBLE_EQ(samples["qdcbir_index_tree_leaves"], 17.0);
  EXPECT_NE(text.find("# TYPE qdcbir_access_leaf_scans counter"),
            std::string::npos);
  EXPECT_NE(text.find("# HELP qdcbir_access_leaf_scans"), std::string::npos);
  EXPECT_NE(text.find("# TYPE qdcbir_index_leaf_scans counter"),
            std::string::npos);
  EXPECT_NE(text.find("qdcbir_index_leaf_scans{leaf=\"3\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("qdcbir_index_leaf_scans{leaf=\"table\"} 2"),
            std::string::npos);
}

TEST(HistogramBucketBoundsTest, UpperBoundsMatchBucketOf) {
  // Every bucket's upper bound must map back into that bucket, and the
  // next integer must map past it — the exposition's `le` labels are only
  // correct if the bound is tight.
  for (std::size_t bucket = 0; bucket < 200; ++bucket) {
    const std::uint64_t bound = Histogram::BucketUpperBound(bucket);
    EXPECT_EQ(Histogram::BucketOf(bound), bucket) << "bucket " << bucket;
    EXPECT_GT(Histogram::BucketOf(bound + 1), bucket) << "bucket " << bucket;
  }
}

}  // namespace
}  // namespace obs
}  // namespace qdcbir
