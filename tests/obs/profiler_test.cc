#include "qdcbir/obs/profiler.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "qdcbir/obs/clock.h"
#include "qdcbir/obs/span.h"
#include "qdcbir/obs/span_stack.h"
#include "qdcbir/obs/trace_context.h"
#include "qdcbir/serve/json_mini.h"

namespace qdcbir {
namespace obs {
namespace {

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kUnderSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr bool kUnderSanitizer = true;
#else
constexpr bool kUnderSanitizer = false;
#endif
#else
constexpr bool kUnderSanitizer = false;
#endif

TEST(SpanStackTest, PushPopTracksInnermost) {
  SpanStack stack;
  EXPECT_EQ(stack.Innermost(), nullptr);
  stack.Push("outer");
  EXPECT_STREQ(stack.Innermost(), "outer");
  stack.Push("inner");
  EXPECT_STREQ(stack.Innermost(), "inner");
  stack.Pop();
  EXPECT_STREQ(stack.Innermost(), "outer");
  stack.Pop();
  EXPECT_EQ(stack.Innermost(), nullptr);
  stack.Pop();  // underflow is a clamped no-op
  EXPECT_EQ(stack.Innermost(), nullptr);
}

TEST(SpanStackTest, OverflowCountsDepthButClampsRecording) {
  SpanStack stack;
  for (std::uint32_t i = 0; i < SpanStack::kMaxDepth + 8; ++i) {
    stack.Push(i + 1 == SpanStack::kMaxDepth ? "deepest-recorded" : "filler");
  }
  EXPECT_EQ(stack.depth.load(), SpanStack::kMaxDepth + 8);
  // Frames past kMaxDepth were counted but not stored; the innermost
  // *recorded* frame is reported.
  EXPECT_STREQ(stack.Innermost(), "deepest-recorded");
  for (std::uint32_t i = 0; i < SpanStack::kMaxDepth + 8; ++i) stack.Pop();
  EXPECT_EQ(stack.Innermost(), nullptr);
}

TEST(SpanStackTest, ScopedSpanMirrorsOntoCurrentStack) {
  const std::uint32_t base = CurrentSpanStack().depth.load();
  {
    QDCBIR_SPAN("test.outer");
    EXPECT_STREQ(CurrentSpanName(), "test.outer");
    {
      QDCBIR_SPAN("test.inner");
      EXPECT_STREQ(CurrentSpanName(), "test.inner");
    }
    EXPECT_STREQ(CurrentSpanName(), "test.outer");
  }
  EXPECT_EQ(CurrentSpanStack().depth.load(), base);
}

TEST(SpanStackTest, ScopedTraceContextMirrorsTraceId) {
  const TraceContext context = NewTraceContext();
  {
    const ScopedTraceContext scoped(context);
    EXPECT_EQ(CurrentSpanStack().trace_hi, context.trace_hi);
    EXPECT_EQ(CurrentSpanStack().trace_lo, context.trace_lo);
  }
  EXPECT_EQ(CurrentSpanStack().trace_hi, 0u);
  EXPECT_EQ(CurrentSpanStack().trace_lo, 0u);
}

ProfileSample MakeSample(const char* span, std::uint64_t hi,
                         std::uint64_t lo) {
  ProfileSample sample;
  sample.span = span;
  sample.trace_hi = hi;
  sample.trace_lo = lo;
  sample.num_frames = 2;
  sample.frames[0] = 0x1000;
  sample.frames[1] = 0x2000;
  return sample;
}

TEST(ProfilerRenderTest, CollapsedGroupsBySpanRootAndCounts) {
  std::vector<ProfileSample> samples;
  samples.push_back(MakeSample("qd.feedback", 0, 0));
  samples.push_back(MakeSample("qd.feedback", 0, 0));
  samples.push_back(MakeSample(nullptr, 0, 0));
  const std::string text = Profiler::RenderCollapsed(samples);
  // Two identical tagged samples fold into one line with count 2; the
  // untagged one roots at (no-span).
  EXPECT_NE(text.find("qd.feedback;"), std::string::npos) << text;
  EXPECT_NE(text.find(" 2\n"), std::string::npos) << text;
  EXPECT_NE(text.find("(no-span);"), std::string::npos) << text;
  // Every line is `stack count`.
  std::size_t lines = 0;
  for (std::size_t pos = 0; (pos = text.find('\n', pos)) != std::string::npos;
       ++pos) {
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
}

TEST(ProfilerRenderTest, CollapsedSanitizesSeparatorCharacters) {
  std::vector<ProfileSample> samples;
  ProfileSample sample = MakeSample("bad span;name", 0, 0);
  sample.num_frames = 0;
  samples.push_back(sample);
  const std::string text = Profiler::RenderCollapsed(samples);
  // Spaces and semicolons in the span frame would corrupt the collapsed
  // format (both are structural); they must be rewritten.
  EXPECT_EQ(text, "bad_span_name 1\n");
}

TEST(ProfilerRenderTest, JsonAggregatesSpansAndTraces) {
  std::vector<ProfileSample> samples;
  samples.push_back(MakeSample("qd.feedback", 0xAB, 0xCD));
  samples.push_back(MakeSample("qd.feedback", 0xAB, 0xCD));
  samples.push_back(MakeSample("serve.api.query", 0, 0));
  const std::string json =
      Profiler::RenderJson(samples, /*hz=*/99, /*seconds=*/2.0,
                           /*dropped=*/7);
  StatusOr<serve::JsonValue> parsed = serve::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << json;
  EXPECT_EQ(parsed->U64Field("hz", 0), 99u);
  EXPECT_EQ(parsed->U64Field("samples", 0), 3u);
  EXPECT_EQ(parsed->U64Field("dropped", 0), 7u);
  const serve::JsonValue* spans = parsed->Find("spans");
  ASSERT_NE(spans, nullptr);
  EXPECT_EQ(spans->U64Field("qd.feedback", 0), 2u);
  EXPECT_EQ(spans->U64Field("serve.api.query", 0), 1u);
  const serve::JsonValue* traces = parsed->Find("traces");
  ASSERT_NE(traces, nullptr);
  EXPECT_EQ(
      traces->U64Field("00000000000000ab00000000000000cd", 0), 2u);
  const serve::JsonValue* stacks = parsed->Find("stacks");
  ASSERT_NE(stacks, nullptr);
  EXPECT_TRUE(stacks->is_array());
  EXPECT_EQ(stacks->items.size(), 2u);
}

TEST(ProfilerTest, CollectSinceOnEmptyRingIsEmpty) {
  // Before any Start, the cursor is stable and collection yields nothing.
  const std::uint64_t cursor = Profiler::Global().SampleCursor();
  EXPECT_TRUE(Profiler::Global().CollectSince(cursor).empty());
}

TEST(ProfilerTest, CapturesSpanAttributedSamplesWhileBurningCpu) {
#if !defined(__linux__)
  GTEST_SKIP() << "sampling profiler is Linux-only";
#else
  if (kUnderSanitizer) {
    GTEST_SKIP() << "signal delivery timing unreliable under sanitizers";
  }
  Profiler& profiler = Profiler::Global();
  Profiler::RegisterCurrentThread();
  ProfilerOptions options;
  options.hz = 997;  // dense sampling keeps the burn window short
  std::string error;
  ASSERT_TRUE(profiler.Start(options, &error)) << error;
  EXPECT_TRUE(profiler.running());
  const std::uint64_t cursor = profiler.SampleCursor();

  const TraceContext context = NewTraceContext();
  {
    const ScopedTraceContext scoped(context);
    QDCBIR_SPAN("test.burn");
    const std::uint64_t start = MonotonicNanos();
    volatile double sink = 1.0;
    while (MonotonicNanos() - start < 400000000ull) {
      for (int i = 0; i < 4096; ++i) sink = sink * 1.0000001 + 0.5;
    }
  }
  profiler.Stop();
  EXPECT_FALSE(profiler.running());

  const std::vector<ProfileSample> samples = profiler.CollectSince(cursor);
  Profiler::UnregisterCurrentThread();
  ASSERT_FALSE(samples.empty())
      << "400ms of CPU at 997 Hz produced no samples";
  std::size_t attributed = 0;
  std::size_t traced = 0;
  std::size_t with_frames = 0;
  for (const ProfileSample& sample : samples) {
    if (sample.span != nullptr &&
        std::strcmp(sample.span, "test.burn") == 0) {
      ++attributed;
    }
    if (sample.trace_hi == context.trace_hi &&
        sample.trace_lo == context.trace_lo) {
      ++traced;
    }
    if (sample.num_frames >= 1) ++with_frames;
  }
  EXPECT_GE(attributed, 1u) << samples.size() << " samples, none in span";
  EXPECT_GE(traced, 1u);
  EXPECT_EQ(with_frames, samples.size());
#endif
}

TEST(ProfilerTest, StartWhileRunningFails) {
#if !defined(__linux__)
  GTEST_SKIP() << "sampling profiler is Linux-only";
#else
  Profiler& profiler = Profiler::Global();
  std::string error;
  ASSERT_TRUE(profiler.Start(ProfilerOptions{}, &error)) << error;
  EXPECT_FALSE(profiler.Start(ProfilerOptions{}, &error));
  EXPECT_FALSE(error.empty());
  profiler.Stop();
#endif
}

}  // namespace
}  // namespace obs
}  // namespace qdcbir
