// The per-session resource sink: TLS-batched totals and per-leaf rows,
// scoped install and flush, and propagation through the thread pool's task
// context. Totals always count; leaf rows exist only when obs is compiled
// in, so each test asserts them present or absent accordingly.

#include "qdcbir/obs/resource_stats.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "qdcbir/core/thread_pool.h"
#include "qdcbir/obs/metrics.h"
#include "qdcbir/obs/span.h"
#include "qdcbir/obs/task_context.h"
#include "qdcbir/obs/trace_tree.h"

namespace qdcbir {
namespace obs {
namespace {

#ifndef QDCBIR_DISABLE_OBS
constexpr bool kLeafRows = true;
#else
constexpr bool kLeafRows = false;
#endif

/// Asserts the sink's leaf rows equal `expected` (sorted by leaf id) when
/// obs is compiled in, and that there are none when it is compiled out.
void ExpectLeafRows(const ResourceAccumulator& sink,
                    const std::vector<LeafAccess>& expected) {
  const std::vector<LeafAccess> rows = sink.LeafSnapshot();
  if (!kLeafRows) {
    EXPECT_TRUE(rows.empty());
    return;
  }
  ASSERT_EQ(rows.size(), expected.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].leaf, expected[i].leaf) << i;
    EXPECT_EQ(rows[i].counts.scans, expected[i].counts.scans) << i;
    EXPECT_EQ(rows[i].counts.distance_evals,
              expected[i].counts.distance_evals) << i;
    EXPECT_EQ(rows[i].counts.feature_bytes, expected[i].counts.feature_bytes)
        << i;
  }
}

TEST(ResourceStatsTest, TapsAreNoOpsWithoutSink) {
  ASSERT_EQ(CurrentResourceAccumulator(), nullptr);
  CountDistanceEvals(10);
  CountFeatureBytes(100);
  CountLeafVisits(1);
  CountTileGathers(1);
  CountContainerAlloc(64);
  CountLeafScan(7, 100, 800);
  // No sink: nothing is retained anywhere, and a later scope must not
  // inherit stale deltas.
  ResourceAccumulator sink;
  {
    const ScopedResourceAccounting scope(&sink);
  }
  EXPECT_TRUE(sink.Snapshot().IsZero());
  EXPECT_TRUE(sink.LeafSnapshot().empty());
}

TEST(ResourceStatsTest, ScopeCollectsAndMergesAtExit) {
  ResourceAccumulator sink;
  {
    const ScopedResourceAccounting scope(&sink);
    EXPECT_EQ(CurrentResourceAccumulator(), &sink);
    CountDistanceEvals(5);
    CountFeatureBytes(1024);
    CountLeafVisits(3);
    CountTileGathers(2);
    CountContainerAlloc(256);
    CountContainerAlloc(128);
    CountLeafScan(9, 10, 80);
    CountLeafScan(3, 5, 40);
    CountLeafScan(9, 1, 8);
    // Deltas are batched thread-locally; the sink sees them at scope exit.
    EXPECT_TRUE(sink.Snapshot().IsZero());
    EXPECT_TRUE(sink.LeafSnapshot().empty());
  }
  // Leaf scans add to the totals as well as to their rows.
  const ResourceUsage usage = sink.Snapshot();
  EXPECT_EQ(usage.distance_evals, 21u);
  EXPECT_EQ(usage.feature_bytes, 1152u);
  EXPECT_EQ(usage.leaves_visited, 3u);
  EXPECT_EQ(usage.tiles_gathered, 2u);
  EXPECT_EQ(usage.container_allocs, 2u);
  EXPECT_EQ(usage.alloc_bytes, 384u);
  ExpectLeafRows(sink, {{3, {1, 5, 40}}, {9, {2, 11, 88}}});
  EXPECT_EQ(CurrentResourceAccumulator(), nullptr);
}

TEST(ResourceStatsTest, FlushPublishesMidScope) {
  ResourceAccumulator sink;
  {
    const ScopedResourceAccounting scope(&sink);
    CountLeafScan(5, 9, 72);
    FlushResourceAccounting();
    EXPECT_EQ(sink.Snapshot().distance_evals, 9u);
    ExpectLeafRows(sink, {{5, {1, 9, 72}}});
    CountLeafScan(5, 1, 8);
  }
  // Flush zeroed the local deltas, so the scope-exit merge adds only the
  // post-flush tally — nothing is double-counted.
  EXPECT_EQ(sink.Snapshot().distance_evals, 10u);
  EXPECT_EQ(sink.Snapshot().feature_bytes, 80u);
  ExpectLeafRows(sink, {{5, {2, 10, 80}}});
}

TEST(ResourceStatsTest, NestedScopesIsolateAndRestore) {
  ResourceAccumulator outer;
  ResourceAccumulator inner;
  {
    const ScopedResourceAccounting outer_scope(&outer);
    CountLeafScan(1, 1, 8);
    {
      const ScopedResourceAccounting inner_scope(&inner);
      CountLeafScan(2, 100, 800);
    }
    // The inner scope neither leaked its counts to the outer sink nor
    // clobbered the outer scope's pending deltas.
    CountLeafScan(1, 2, 16);
  }
  EXPECT_EQ(outer.Snapshot().distance_evals, 3u);
  EXPECT_EQ(inner.Snapshot().distance_evals, 100u);
  ExpectLeafRows(outer, {{1, {2, 3, 24}}});
  ExpectLeafRows(inner, {{2, {1, 100, 800}}});
}

TEST(ResourceStatsTest, NullScopeDisablesAccounting) {
  ResourceAccumulator sink;
  {
    const ScopedResourceAccounting scope(&sink);
    {
      const ScopedResourceAccounting off(nullptr);
      EXPECT_EQ(CurrentResourceAccumulator(), nullptr);
      CountDistanceEvals(1000);
      CountLeafScan(2, 100, 800);  // dropped: accounting off in this scope
    }
    CountLeafScan(1, 1, 8);
  }
  EXPECT_EQ(sink.Snapshot().distance_evals, 1u);
  ExpectLeafRows(sink, {{1, {1, 1, 8}}});
}

/// Span names and trace ids observed inside pool tasks.
class TaskObserver {
 public:
  explicit TaskObserver(const TraceContext& expected) : expected_(expected) {}

  void Note() {
    const char* name = CurrentSpanName();
    const TraceContext& trace = CurrentTraceContext();
    std::lock_guard<std::mutex> lock(mu_);
    names_.insert(name != nullptr ? name : "(null)");
    if (trace.trace_hi != expected_.trace_hi ||
        trace.trace_lo != expected_.trace_lo) {
      ++wrong_trace_;
    }
  }
  std::set<std::string> TakeNames() {
    std::lock_guard<std::mutex> lock(mu_);
    std::set<std::string> names;
    names.swap(names_);
    return names;
  }
  std::size_t wrong_trace() {
    std::lock_guard<std::mutex> lock(mu_);
    return wrong_trace_;
  }

 private:
  const TraceContext expected_;
  std::mutex mu_;
  std::set<std::string> names_;
  std::size_t wrong_trace_ = 0;
};

Histogram& TestSpanHistogram(const char* name) {
  return MetricsRegistry::Global().SpanHistogram(name);
}

TEST(ResourceStatsTest, PoolCarriesTaskContextThroughNestedRunsAndPost) {
  // A pool task runs under its submitter's TaskContext: spans inside it
  // parent under the submitter's open span, profiler attribution names the
  // enqueuing span, and taps land in the submitter's sink. This holds for
  // worker-run and caller-adopted tasks of a nested ParallelFor, and for a
  // posted task that may run after its submitter's scope has closed.
  // ScopedSpan is used directly so the test runs with obs compiled out too.
  TraceContext context = NewTraceContext();
  context.buffer = std::make_shared<TraceBuffer>();
  const std::shared_ptr<TraceBuffer> buffer = context.buffer;
  TaskObserver observer(context);
  ResourceAccumulator sink;
  std::set<std::string> inner_names;
  std::uint64_t root_span = 0;
  const std::uint32_t base_depth = CurrentSpanStack().depth.load();
  {
    ThreadPool pool(4);
    const ScopedTaskContext scoped({context, nullptr, &sink});
    EXPECT_EQ(CurrentSpanStack().depth.load(), base_depth);  // null name
    const ScopedSpan root("test.root", TestSpanHistogram("test.root"));
    root_span = CurrentTraceContext().span_id;
    ASSERT_NE(root_span, 0u);
    pool.ParallelFor(0, 8, [&](std::size_t outer) {
      const ScopedSpan span("test.outer", TestSpanHistogram("test.outer"));
      pool.ParallelFor(0, 4, [&](std::size_t) {
        observer.Note();
        const ScopedSpan leaf("test.leaf", TestSpanHistogram("test.leaf"));
        CountLeafScan(static_cast<AccessLeafId>(outer), 3, 24);
      });
    });
    // The inner batches were enqueued under test.outer on whichever thread
    // ran the outer iteration; none may fall back to test.root or to none.
    inner_names = observer.TakeNames();
    pool.Post([&] {
      observer.Note();
      const ScopedSpan posted("test.posted", TestSpanHistogram("test.posted"));
      CountLeafScan(kTableScanLeaf, 5, 40);
    });
  }  // the pool's destructor drains the posted task
  EXPECT_EQ(inner_names, std::set<std::string>{"test.outer"});
  EXPECT_EQ(observer.TakeNames(), std::set<std::string>{"test.root"});
  EXPECT_EQ(observer.wrong_trace(), 0u);
  EXPECT_EQ(CurrentResourceAccumulator(), nullptr);
  EXPECT_EQ(CurrentSpanStack().depth.load(), base_depth);

  // Totals and rows sum once across workers, the caller and the post.
  const ResourceUsage usage = sink.Snapshot();
  EXPECT_EQ(usage.distance_evals, 8u * 4u * 3u + 5u);
  EXPECT_EQ(usage.feature_bytes, 8u * 4u * 24u + 40u);
  std::vector<LeafAccess> expected;
  for (AccessLeafId leaf = 0; leaf < 8; ++leaf) {
    expected.push_back({leaf, {4, 12, 96}});
  }
  expected.push_back({kTableScanLeaf, {1, 5, 40}});
  ExpectLeafRows(sink, expected);

  // The recorded tree links leaf → outer → root and posted → root.
  std::set<std::uint64_t> outer_ids;
  for (const SpanRecord& span : buffer->spans()) {
    if (std::string(span.name) == "test.outer") outer_ids.insert(span.span_id);
  }
  std::size_t roots = 0, outers = 0, leaves = 0, posted = 0;
  for (const SpanRecord& span : buffer->spans()) {
    const std::string name = span.name;
    if (name == "test.root") {
      ++roots;
      EXPECT_EQ(span.span_id, root_span);
      EXPECT_EQ(span.parent_id, 0u);
    } else if (name == "test.outer") {
      ++outers;
      EXPECT_EQ(span.parent_id, root_span);
    } else if (name == "test.leaf") {
      ++leaves;
      EXPECT_EQ(outer_ids.count(span.parent_id), 1u)
          << "leaf parented under unknown span " << span.parent_id;
    } else if (name == "test.posted") {
      ++posted;
      EXPECT_EQ(span.parent_id, root_span);
    }
  }
  EXPECT_EQ(roots, 1u);
  EXPECT_EQ(outers, 8u);
  EXPECT_EQ(leaves, 32u);
  EXPECT_EQ(posted, 1u);
  EXPECT_EQ(buffer->dropped(), 0u);
}

TEST(ResourceStatsTest, UsageAddAndIsZero) {
  ResourceUsage a;
  EXPECT_TRUE(a.IsZero());
  ResourceUsage b;
  b.distance_evals = 1;
  b.alloc_bytes = 7;
  a.Add(b);
  a.Add(b);
  EXPECT_FALSE(a.IsZero());
  EXPECT_EQ(a.distance_evals, 2u);
  EXPECT_EQ(a.alloc_bytes, 14u);
}

}  // namespace
}  // namespace obs
}  // namespace qdcbir
