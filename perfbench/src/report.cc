#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::uint64_t NextSpanId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

namespace {

/// Spans of each tid in nesting order: by start, the enclosing one first.
std::map<int, std::vector<Span>> ByTid(std::vector<Span> spans) {
  std::map<int, std::vector<Span>> by_tid;
  for (Span& span : spans) by_tid[span.tid].push_back(span);
  for (auto& [tid, list] : by_tid) {
    std::sort(list.begin(), list.end(), [](const Span& a, const Span& b) {
      return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                      : a.end_ns > b.end_ns;
    });
  }
  return by_tid;
}

}  // namespace

bool WriteChromeTrace(const std::string& path, std::vector<Span> spans) {
  std::uint64_t origin = UINT64_MAX;
  for (const Span& span : spans) origin = std::min(origin, span.start_ns);
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  auto emit = [&](const Span& span, const char* ph, std::uint64_t ns) {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":1,"
                  "\"tid\":%d,\"span\":%llu,\"parent\":%llu,\"session\":%llu}",
                  first ? "" : ",\n", span.name, ph, (ns - origin) / 1e3,
                  span.tid, static_cast<unsigned long long>(span.id),
                  static_cast<unsigned long long>(span.parent),
                  static_cast<unsigned long long>(span.session));
    out += buf;
    first = false;
  };
  for (auto& [tid, list] : ByTid(std::move(spans))) {
    std::vector<Span> stack;
    for (Span span : list) {
      while (!stack.empty() && stack.back().end_ns <= span.start_ns) {
        emit(stack.back(), "E", stack.back().end_ns);
        stack.pop_back();
      }
      // A child never outlasts its parent in the file, so B/E stay nested.
      if (!stack.empty()) span.end_ns = std::min(span.end_ns, stack.back().end_ns);
      emit(span, "B", span.start_ns);
      stack.push_back(span);
    }
    while (!stack.empty()) {
      emit(stack.back(), "E", stack.back().end_ns);
      stack.pop_back();
    }
  }
  out += "\n]}\n";
  std::ofstream file(path, std::ios::binary);
  file << out;
  return static_cast<bool>(file);
}

std::vector<SpanTotals> SelfTimes(std::vector<Span> spans) {
  std::map<std::string, SpanTotals> totals;
  for (auto& [tid, list] : ByTid(std::move(spans))) {
    // Stack of (span, time covered by its direct children).
    std::vector<std::pair<Span, std::uint64_t>> stack;
    auto close = [&] {
      const auto [span, covered] = stack.back();
      stack.pop_back();
      const std::uint64_t dur = span.end_ns - span.start_ns;
      SpanTotals& t = totals[span.name];
      t.name = span.name;
      ++t.count;
      t.total_ms += dur / 1e6;
      t.self_ms += (dur - std::min(dur, covered)) / 1e6;
      if (!stack.empty()) stack.back().second += dur;
    };
    for (Span span : list) {
      while (!stack.empty() && stack.back().first.end_ns <= span.start_ns) {
        close();
      }
      if (!stack.empty()) {
        span.end_ns = std::min(span.end_ns, stack.back().first.end_ns);
      }
      stack.push_back({span, 0});
    }
    while (!stack.empty()) close();
  }
  std::vector<SpanTotals> out;
  for (auto& [name, t] : totals) out.push_back(t);
  std::sort(out.begin(), out.end(), [](const SpanTotals& a, const SpanTotals& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::pair<std::string, std::string> LayerTarget(const std::string& metric) {
  // Prefix → (end-to-end metric it should move, workload). Mirrors the
  // table in perfbench/README.md.
  static const std::vector<std::pair<std::string,
                                     std::pair<std::string, std::string>>>
      kMap = {
          {"http.", {"client.round_p50_ms, finalize_p50_ms", "open_arrivals"}},
          {"serve.", {"client.session_p50_ms", "open_arrivals"}},
          {"query.", {"finalize_p50_ms", "paper_serial"}},
          {"core.", {"finalize_p50_ms", "paper_serial"}},
          {"pool.",
           {"finalize_p50_ms; client.session_p90_ms",
            "paper_serial; gui_concurrent"}},
          {"cache.",
           {"finalize_p50_ms; rep_p50_ms; none",
            "open_arrivals; gui_concurrent; paper_serial"}},
          {"dataset.", {"setup_s", "all"}},
          {"rfs.", {"setup_s", "all"}},
          {"proc.",
           {"client.sessions_per_s, client.session_p90_ms", "gui_concurrent"}},
          {"client.", {"(no bound, or a validity guard)", "all"}},
      };
  for (const auto& [prefix, target] : kMap) {
    if (metric.rfind(prefix, 0) == 0) return target;
  }
  return {};
}

}  // namespace perfbench
