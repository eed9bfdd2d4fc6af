#include "qdcbir/obs/prom_export.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <vector>

namespace qdcbir {
namespace obs {

namespace {

constexpr char kPrefix[] = "qdcbir_";

bool LegalFirstChar(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}

bool LegalChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}

void AppendHelp(std::string& out, const std::string& family,
                const MetricMeta& meta) {
  if (meta.help.empty() && meta.unit.empty()) return;
  out += "# HELP ";
  out += family;
  out.push_back(' ');
  out += EscapeHelpText(meta.help);
  if (!meta.unit.empty()) {
    if (!meta.help.empty()) out.push_back(' ');
    out += "(unit: " + meta.unit + ")";
  }
  out.push_back('\n');
}

void AppendType(std::string& out, const std::string& family,
                const char* type) {
  out += "# TYPE ";
  out += family;
  out.push_back(' ');
  out += type;
  out.push_back('\n');
}

const MetricMeta& MetaOf(const MetricsRegistry::RegistrySnapshot& snap,
                         const std::string& name) {
  static const MetricMeta kEmpty;
  const auto it = snap.meta.find(name);
  return it == snap.meta.end() ? kEmpty : it->second;
}

}  // namespace

std::string PrometheusName(const std::string& name) {
  std::string out = kPrefix;
  for (const char c : name) {
    out.push_back(LegalChar(c) ? c : '_');
  }
  return out;
}

std::string EscapeHelpText(const std::string& text) {
  // The exposition format escapes newlines and backslashes in help text;
  // double quotes are legal there unescaped.
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '\\') out += "\\\\";
    else if (c == '\n') out += "\\n";
    else out.push_back(c);
  }
  return out;
}

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\') out += "\\\\";
    else if (c == '"') out += "\\\"";
    else if (c == '\n') out += "\\n";
    else out.push_back(c);
  }
  return out;
}

std::string RenderPrometheusText(const MetricsRegistry& registry) {
  const MetricsRegistry::RegistrySnapshot snap = registry.Snapshot();
  std::string out;
  out.reserve(4096);

  for (const auto& [name, value] : snap.counters) {
    const std::string family = PrometheusName(name);
    AppendHelp(out, family, MetaOf(snap, name));
    AppendType(out, family, "counter");
    out += family + " " + std::to_string(value) + "\n";
  }

  for (const auto& [name, value_max] : snap.gauges) {
    const std::string family = PrometheusName(name);
    AppendHelp(out, family, MetaOf(snap, name));
    AppendType(out, family, "gauge");
    out += family + " " + std::to_string(value_max.first) + "\n";
    // The high-water mark is its own family (a gauge cannot carry two
    // unlabeled samples).
    const std::string high = family + "_highwater";
    AppendType(out, high, "gauge");
    out += high + " " + std::to_string(value_max.second) + "\n";
  }

  for (std::size_t h = 0; h < snap.histograms.size(); ++h) {
    const std::string& name = snap.histograms[h].first;
    const Histogram::Snapshot& hs = snap.histograms[h].second;
    const auto& buckets = snap.histogram_buckets[h].second;
    const std::string family = PrometheusName(name);
    AppendHelp(out, family, MetaOf(snap, name));
    AppendType(out, family, "histogram");
    const auto exemplars_it = snap.exemplars.find(name);
    for (const auto& [upper, cum] : buckets) {
      out += family + "_bucket{le=\"" + std::to_string(upper) + "\"} " +
             std::to_string(cum);
      if (exemplars_it != snap.exemplars.end()) {
        // OpenMetrics exemplar: the trace that produced a recent value in
        // this bucket, appended after the sample value.
        for (const HistogramExemplar& exemplar : exemplars_it->second) {
          if (exemplar.bucket_le != upper) continue;
          out += " # {trace_id=\"" + EscapeLabelValue(exemplar.trace_id) +
                 "\"} " + std::to_string(exemplar.value);
          break;
        }
      }
      out.push_back('\n');
    }
    // `hs.count` and the buckets come from one shard merge, so +Inf
    // equals _count by construction.
    out += family + "_bucket{le=\"+Inf\"} " + std::to_string(hs.count) +
           "\n";
    out += family + "_sum " + std::to_string(hs.sum) + "\n";
    out += family + "_count " + std::to_string(hs.count) + "\n";
  }
  return out;
}

namespace {

struct FamilyState {
  std::string type;
  bool samples_seen = false;
  bool closed = false;
  // Histogram bookkeeping.
  double last_le = -std::numeric_limits<double>::infinity();
  double last_bucket_value = 0.0;
  bool saw_inf_bucket = false;
  double inf_bucket_value = 0.0;
  bool saw_count = false;
  double count_value = 0.0;
};

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// Splits `line` ("name{labels} value" or "name value") into parts.
bool ParseSample(const std::string& line, std::string* name,
                 std::string* labels, double* value) {
  std::size_t i = 0;
  if (i >= line.size() || !LegalFirstChar(line[i])) return false;
  while (i < line.size() && LegalChar(line[i])) ++i;
  *name = line.substr(0, i);
  if (i < line.size() && line[i] == '{') {
    const std::size_t close = line.find('}', i);
    if (close == std::string::npos) return false;
    *labels = line.substr(i + 1, close - i - 1);
    i = close + 1;
  } else {
    labels->clear();
  }
  if (i >= line.size() || (line[i] != ' ' && line[i] != '\t')) return false;
  while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  const std::string value_text = line.substr(i);
  if (value_text.empty()) return false;
  if (value_text == "+Inf") {
    *value = std::numeric_limits<double>::infinity();
    return true;
  }
  char* end = nullptr;
  *value = std::strtod(value_text.c_str(), &end);
  return end != nullptr && *end == '\0';
}

/// Validates an exemplar suffix (everything after the sample's ` # `):
/// `{label="value",...} <number> [<timestamp>]`. On success `*trace_id`
/// holds the `trace_id` label's value ("" when the label is absent), which
/// must be exactly 32 lowercase hex characters when present.
bool ParseExemplar(const std::string& text, std::string* trace_id,
                   std::string* why) {
  if (text.empty() || text[0] != '{') {
    *why = "missing {label} block";
    return false;
  }
  const std::size_t close = text.find('}');
  if (close == std::string::npos) {
    *why = "unterminated label block";
    return false;
  }
  const std::string labels = text.substr(1, close - 1);

  std::size_t i = close + 1;
  while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
  std::size_t j = i;
  while (j < text.size() && text[j] != ' ' && text[j] != '\t') ++j;
  const std::string value_text = text.substr(i, j - i);
  if (value_text.empty()) {
    *why = "missing exemplar value";
    return false;
  }
  char* end = nullptr;
  std::strtod(value_text.c_str(), &end);
  if (end == nullptr || *end != '\0') {
    *why = "exemplar value is not a number";
    return false;
  }
  while (j < text.size() && (text[j] == ' ' || text[j] == '\t')) ++j;
  if (j < text.size()) {
    const std::string ts_text = text.substr(j);
    std::strtod(ts_text.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      *why = "trailing bytes after exemplar value";
      return false;
    }
  }

  trace_id->clear();
  const std::size_t pos = labels.find("trace_id=\"");
  if (pos != std::string::npos) {
    const std::size_t start = pos + 10;
    const std::size_t quote = labels.find('"', start);
    if (quote == std::string::npos) {
      *why = "unterminated trace_id label";
      return false;
    }
    const std::string id = labels.substr(start, quote - start);
    if (id.size() != 32) {
      *why = "trace_id is not 32 hex chars";
      return false;
    }
    for (const char c : id) {
      const bool hex =
          (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
      if (!hex) {
        *why = "trace_id holds a non-hex character";
        return false;
      }
    }
    *trace_id = id;
  }
  return true;
}

/// `le` label value of a `_bucket` sample; NaN when absent/garbled.
double ParseLe(const std::string& labels) {
  const std::size_t pos = labels.find("le=\"");
  if (pos == std::string::npos) return std::nan("");
  const std::size_t start = pos + 4;
  const std::size_t end = labels.find('"', start);
  if (end == std::string::npos) return std::nan("");
  const std::string text = labels.substr(start, end - start);
  if (text == "+Inf") return std::numeric_limits<double>::infinity();
  char* parse_end = nullptr;
  const double v = std::strtod(text.c_str(), &parse_end);
  if (parse_end == nullptr || *parse_end != '\0') return std::nan("");
  return v;
}

}  // namespace

bool ValidatePrometheusText(const std::string& text, std::string* error,
                            std::map<std::string, double>* samples,
                            std::vector<std::string>* exemplar_trace_ids) {
  std::map<std::string, FamilyState> families;
  std::string open_family;  // family whose sample block is in progress
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;

  const auto close_family = [&](const std::string& family) -> bool {
    FamilyState& state = families[family];
    state.closed = true;
    if (state.type == "histogram") {
      if (!state.saw_inf_bucket) {
        return Fail(error, "histogram " + family + " has no +Inf bucket");
      }
      if (state.saw_count && state.inf_bucket_value != state.count_value) {
        return Fail(error, "histogram " + family +
                               ": +Inf bucket disagrees with _count");
      }
    }
    return true;
  };

  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::string at = " (line " + std::to_string(line_no) + ")";
    if (line.empty()) continue;

    if (line[0] == '#') {
      std::istringstream meta(line);
      std::string hash, keyword, family;
      meta >> hash >> keyword >> family;
      if (keyword != "TYPE") continue;  // HELP and comments are free-form
      std::string type;
      meta >> type;
      if (family.empty() || type.empty()) {
        return Fail(error, "malformed TYPE line" + at);
      }
      if (type != "counter" && type != "gauge" && type != "histogram" &&
          type != "summary" && type != "untyped") {
        return Fail(error, "unknown metric type '" + type + "'" + at);
      }
      // A TYPE line ends the open sample block: samples after it can only
      // belong to the newly declared family.
      if (!open_family.empty()) {
        if (!close_family(open_family)) return false;
        open_family.clear();
      }
      // Any earlier family that never produced samples can no longer
      // legally produce them — its block would not be adjacent to its
      // TYPE line.
      for (auto& [declared, state] : families) {
        if (!state.samples_seen) state.closed = true;
      }
      auto [it, inserted] = families.emplace(family, FamilyState{});
      if (!inserted) {
        return Fail(error, "duplicate family " + family + at);
      }
      it->second.type = type;
      continue;
    }

    // An exemplar rides after the sample value, separated by " # ".
    std::string sample_line = line;
    std::string exemplar_text;
    const std::size_t exemplar_pos = line.find(" # ");
    if (exemplar_pos != std::string::npos) {
      sample_line = line.substr(0, exemplar_pos);
      exemplar_text = line.substr(exemplar_pos + 3);
    }

    std::string name, labels;
    double value = 0.0;
    if (!ParseSample(sample_line, &name, &labels, &value)) {
      return Fail(error, "malformed sample line" + at);
    }

    // Resolve the sample's family: histogram/summary series carry
    // _bucket/_sum/_count suffixes on top of the family name.
    std::string family = name;
    std::string suffix;
    for (const char* candidate : {"_bucket", "_sum", "_count"}) {
      const std::string cand(candidate);
      if (name.size() > cand.size() &&
          name.compare(name.size() - cand.size(), cand.size(), cand) == 0) {
        const std::string base = name.substr(0, name.size() - cand.size());
        const auto it = families.find(base);
        if (it != families.end() &&
            (it->second.type == "histogram" || it->second.type == "summary")) {
          family = base;
          suffix = cand;
          break;
        }
      }
    }

    const auto it = families.find(family);
    if (it == families.end()) {
      return Fail(error, "sample " + name + " has no preceding TYPE line" + at);
    }
    FamilyState& state = it->second;
    if (state.closed) {
      return Fail(error, "family " + family + " is interleaved" + at);
    }
    if (!open_family.empty() && open_family != family) {
      if (!close_family(open_family)) return false;
    }
    open_family = family;
    state.samples_seen = true;

    if (state.type == "histogram" && suffix == "_bucket") {
      const double le = ParseLe(labels);
      if (std::isnan(le)) {
        return Fail(error, "bucket of " + family + " lacks a le label" + at);
      }
      if (le <= state.last_le) {
        return Fail(error, "bucket le values of " + family +
                               " are not strictly increasing" + at);
      }
      if (value < state.last_bucket_value) {
        return Fail(error, "cumulative bucket counts of " + family +
                               " decreased" + at);
      }
      state.last_le = le;
      state.last_bucket_value = value;
      if (std::isinf(le)) {
        state.saw_inf_bucket = true;
        state.inf_bucket_value = value;
      }
    } else if (state.type == "histogram" && suffix == "_count") {
      state.saw_count = true;
      state.count_value = value;
    }

    if (!exemplar_text.empty()) {
      if (state.type != "histogram" || suffix != "_bucket") {
        return Fail(error, "exemplar on non-bucket sample " + name + at);
      }
      std::string trace_id, why;
      if (!ParseExemplar(exemplar_text, &trace_id, &why)) {
        return Fail(error,
                    "malformed exemplar on " + name + ": " + why + at);
      }
      if (exemplar_trace_ids != nullptr && !trace_id.empty()) {
        exemplar_trace_ids->push_back(trace_id);
      }
    }

    if (samples != nullptr) {
      const auto [sit, inserted] = samples->emplace(name, value);
      if (!inserted && value > sit->second) sit->second = value;
    }
  }
  if (!open_family.empty() && !close_family(open_family)) return false;

  for (const auto& [family, state] : families) {
    if (!state.samples_seen && state.type != "untyped") {
      return Fail(error, "family " + family + " declared but has no samples");
    }
  }
  return true;
}

}  // namespace obs
}  // namespace qdcbir
