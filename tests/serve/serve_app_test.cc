// ServeApp tests: the readiness state machine on a broken snapshot path, a
// complete relevance-feedback session driven over loopback HTTP (query →
// feedback → finalize → audit ring + metrics), API error handling, and
// seed determinism of `/api/query` responses.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "qdcbir/core/thread_pool.h"
#include "qdcbir/dataset/database_io.h"
#include "qdcbir/dataset/synthesizer.h"
#include "qdcbir/image/ppm_io.h"
#include "qdcbir/obs/log.h"
#include "qdcbir/obs/prom_export.h"
#include "qdcbir/obs/query_log.h"
#include "qdcbir/obs/trace_tree.h"
#include "qdcbir/rfs/rfs_builder.h"
#include "qdcbir/rfs/rfs_serialization.h"
#include "qdcbir/serve/json_mini.h"
#include "qdcbir/serve/serve_app.h"

namespace qdcbir {
namespace serve {
namespace {

/// A loopback TCP connection to `port`, or -1.
int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends one request on `fd` and reads its full response (status line +
/// headers + body); stops early on close or a receive timeout.
std::string Exchange(int fd, const std::string& raw_request) {
  (void)::send(fd, raw_request.data(), raw_request.size(), 0);
  std::string response;
  char chunk[4096];
  for (;;) {
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) break;
    response.append(chunk, static_cast<std::size_t>(got));
    const std::size_t head_end = response.find("\r\n\r\n");
    if (head_end == std::string::npos) continue;
    const std::size_t cl = response.find("Content-Length: ");
    if (cl == std::string::npos || cl > head_end) break;
    const std::size_t body_bytes = static_cast<std::size_t>(
        std::strtoull(response.c_str() + cl + 16, nullptr, 10));
    if (response.size() >= head_end + 4 + body_bytes) break;
  }
  return response;
}

/// One blocking HTTP exchange on a fresh connection; returns the full
/// response or "" on connect failure.
std::string HttpRoundTrip(int port, const std::string& raw_request) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) return "";
  std::string response = Exchange(fd, raw_request);
  ::close(fd);
  return response;
}

std::string Get(int port, const std::string& path) {
  return HttpRoundTrip(port, "GET " + path +
                                 " HTTP/1.1\r\nConnection: close\r\n\r\n");
}

/// `extra_headers` is raw header text, each line CRLF-terminated (e.g.
/// "traceparent: 00-…-01\r\n").
std::string Post(int port, const std::string& path, const std::string& body,
                 const std::string& extra_headers = "") {
  return HttpRoundTrip(
      port, "POST " + path + " HTTP/1.1\r\nContent-Length: " +
                std::to_string(body.size()) + "\r\n" + extra_headers +
                "Connection: close\r\n\r\n" + body);
}

std::string BodyOf(const std::string& response) {
  const std::size_t head_end = response.find("\r\n\r\n");
  return head_end == std::string::npos ? "" : response.substr(head_end + 4);
}

std::string HeaderValue(const std::string& response, const std::string& name) {
  const std::string needle = "\r\n" + name + ": ";
  const std::size_t pos = response.find(needle);
  if (pos == std::string::npos) return "";
  const std::size_t start = pos + needle.size();
  return response.substr(start, response.find("\r\n", start) - start);
}

struct FlatSpan {
  std::string name;
  std::uint64_t duration_ns = 0;
  std::uint64_t self_ns = 0;
  bool has_leaf_annotation = false;
};

void CollectSpans(const JsonValue& node, std::vector<FlatSpan>* out) {
  FlatSpan span;
  if (const JsonValue* name = node.Find("name")) span.name = name->string;
  span.duration_ns = node.U64Field("duration_ns", 0);
  span.self_ns = node.U64Field("self_ns", 0);
  if (const JsonValue* annotations = node.Find("annotations")) {
    span.has_leaf_annotation = annotations->Find("leaf") != nullptr;
  }
  out->push_back(span);
  if (const JsonValue* children = node.Find("children")) {
    for (const JsonValue& child : children->items) {
      CollectSpans(child, out);
    }
  }
}

/// The /tracez entry with the given trace id, or nullptr.
const JsonValue* FindTrace(const JsonValue& tracez,
                           const std::string& trace_id) {
  const JsonValue* traces = tracez.Find("traces");
  if (traces == nullptr || !traces->is_array()) return nullptr;
  for (const JsonValue& entry : traces->items) {
    const JsonValue* id = entry.Find("trace_id");
    if (id != nullptr && id->string == trace_id) return &entry;
  }
  return nullptr;
}

class ServeAppTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CatalogOptions catalog_options;
    catalog_options.num_categories = 12;
    Catalog catalog = Catalog::Build(catalog_options).value();
    SynthesizerOptions options;
    options.total_images = 300;
    options.image_width = 32;
    options.image_height = 32;
    const ImageDatabase db =
        DatabaseSynthesizer::Synthesize(catalog, options).value();

    RfsBuildOptions build;
    build.tree.max_entries = 40;
    build.tree.min_entries = 16;
    const RfsTree rfs = RfsBuilder::Build(db.features(), build).value();
    const std::string blob = RfsSerializer::Serialize(rfs);

    db_path_ = new std::string(::testing::TempDir() + "serve_test.qdb");
    ASSERT_TRUE(DatabaseIo::SaveDatabase(db, *db_path_, &blob).ok());
  }
  static void TearDownTestSuite() {
    delete db_path_;
    db_path_ = nullptr;
  }

  static std::string* db_path_;
};

std::string* ServeAppTest::db_path_ = nullptr;

TEST_F(ServeAppTest, MissingSnapshotReachesFailedAndReadyzAnswers503) {
  ThreadPool pool(2);
  ServeOptions options;
  options.db_path = ::testing::TempDir() + "does_not_exist.qdb";
  options.pool = &pool;
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  EXPECT_FALSE(app.WaitUntilReady(10000));
  EXPECT_EQ(app.readiness(), Readiness::kFailed);
  EXPECT_FALSE(app.load_error().empty());
  const std::string readyz = Get(app.port(), "/readyz");
  EXPECT_NE(readyz.find("503"), std::string::npos);
  EXPECT_NE(readyz.find("failed"), std::string::npos);
  // Query endpoints refuse with 503 too instead of touching the absent db.
  EXPECT_NE(Post(app.port(), "/api/query", "{}").find("503"),
            std::string::npos);
  // So does the index introspection walk: no tree, no answer.
  EXPECT_NE(Get(app.port(), "/indexz").find("503"), std::string::npos);
  app.Stop();
}

TEST_F(ServeAppTest, FullFeedbackSessionOverHttp) {
  ThreadPool pool(4);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();
  ASSERT_GT(app.port(), 0);

  EXPECT_NE(Get(app.port(), "/healthz").find("200 OK"), std::string::npos);
  EXPECT_NE(Get(app.port(), "/readyz").find("serving"), std::string::npos);

  // Open a session.
  const std::string query_body = BodyOf(Post(
      app.port(), "/api/query", "{\"seed\":42,\"label\":\"serve-test\"}"));
  StatusOr<JsonValue> query = ParseJson(query_body);
  ASSERT_TRUE(query.ok()) << query_body;
  const std::uint64_t session_id = query->U64Field("session", 0);
  ASSERT_GT(session_id, 0u);
  const JsonValue* display = query->Find("display");
  ASSERT_NE(display, nullptr);
  ASSERT_TRUE(display->is_array());
  ASSERT_FALSE(display->items.empty());

  // Mark the first two images of every display group relevant.
  std::string relevant = "[";
  bool first = true;
  for (const JsonValue& group : display->items) {
    const JsonValue* images = group.Find("images");
    ASSERT_NE(images, nullptr);
    for (std::size_t i = 0; i < images->items.size() && i < 2; ++i) {
      if (!first) relevant.push_back(',');
      first = false;
      relevant += std::to_string(
          static_cast<std::uint64_t>(images->items[i].number));
    }
  }
  relevant.push_back(']');

  // One feedback round returns the next display.
  const std::string round_body = BodyOf(Post(
      app.port(), "/api/feedback",
      "{\"session\":" + std::to_string(session_id) +
          ",\"relevant\":" + relevant + "}"));
  StatusOr<JsonValue> round = ParseJson(round_body);
  ASSERT_TRUE(round.ok()) << round_body;
  EXPECT_EQ(round->U64Field("round", 0), 1u);
  ASSERT_NE(round->Find("display"), nullptr);

  // Second round finalizes into ranked result groups.
  const std::string final_body = BodyOf(Post(
      app.port(), "/api/feedback",
      "{\"session\":" + std::to_string(session_id) +
          ",\"relevant\":" + relevant + ",\"finalize\":25}"));
  StatusOr<JsonValue> final_round = ParseJson(final_body);
  ASSERT_TRUE(final_round.ok()) << final_body;
  const JsonValue* results = final_round->Find("results");
  ASSERT_NE(results, nullptr);
  EXPECT_FALSE(results->items.empty());
  const JsonValue* stats = final_round->Find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->U64Field("subqueries", 0), 0u);

  // The finalized session reaches the /queryz audit ring, carrying the
  // per-session resource accounting gathered across the pool workers.
  const std::string queryz_body = BodyOf(Get(app.port(), "/queryz"));
  EXPECT_NE(queryz_body.find("serve-test"), std::string::npos);
  {
    StatusOr<JsonValue> queryz = ParseJson(queryz_body);
    ASSERT_TRUE(queryz.ok()) << queryz_body;
    const JsonValue* records = queryz->Find("records");
    ASSERT_NE(records, nullptr);
    const JsonValue* ours = nullptr;
    for (const JsonValue& record : records->items) {
      const JsonValue* label = record.Find("label");
      if (label != nullptr && label->string == "serve-test") ours = &record;
    }
    ASSERT_NE(ours, nullptr) << queryz_body;
    // Three engine calls (Start + 2×Feedback/Finalize) must have scanned
    // features and descended the tree.
    EXPECT_GT(ours->U64Field("distance_evals", 0), 0u);
    EXPECT_GT(ours->U64Field("feature_bytes", 0), 0u);
    EXPECT_GT(ours->U64Field("leaves_visited", 0), 0u);
  }
  // ...the session is gone, so further feedback answers 404...
  EXPECT_NE(Post(app.port(), "/api/feedback",
                 "{\"session\":" + std::to_string(session_id) + "}")
                .find("404"),
            std::string::npos);
  // ...and /metrics renders a valid exposition that saw our requests.
  const std::string metrics = BodyOf(Get(app.port(), "/metrics"));
  std::string prom_error;
  std::map<std::string, double> samples;
  ASSERT_TRUE(obs::ValidatePrometheusText(metrics, &prom_error, &samples))
      << prom_error;
  EXPECT_GE(samples["qdcbir_serve_http_requests"], 5.0);
  // The serve.session.* resource family recorded the finalized session.
  EXPECT_GE(samples["qdcbir_serve_session_distance_evals_count"], 1.0);
  EXPECT_GE(samples["qdcbir_serve_session_feature_bytes_count"], 1.0);
#if defined(__linux__)
  // The standard process_* block is appended after the registry families.
  EXPECT_GT(samples["process_cpu_seconds_total"], 0.0);
  EXPECT_GT(samples["process_resident_memory_bytes"], 0.0);
#endif
  EXPECT_NE(BodyOf(Get(app.port(), "/varz")).find("\"counters\""),
            std::string::npos);

  // /statusz is a human landing page linking every admin surface.
  const std::string statusz = Get(app.port(), "/statusz");
  EXPECT_NE(statusz.find("200 OK"), std::string::npos);
  EXPECT_NE(statusz.find("serving"), std::string::npos);
  EXPECT_NE(statusz.find("/profilez"), std::string::npos);
  EXPECT_NE(statusz.find("/queryz"), std::string::npos);
  EXPECT_NE(statusz.find("uptime_seconds"), std::string::npos);

  app.Stop();
}

TEST_F(ServeAppTest, ProfilezCapturesAndValidatesFormats) {
  ThreadPool pool(2);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  const std::string bad = Get(app.port(), "/profilez?format=xml");
  EXPECT_NE(bad.find("400"), std::string::npos);

#if defined(__linux__)
  const std::string response =
      Get(app.port(), "/profilez?seconds=0.05&hz=199&format=json");
  ASSERT_NE(response.find("200 OK"), std::string::npos) << response;
  StatusOr<JsonValue> profile = ParseJson(BodyOf(response));
  ASSERT_TRUE(profile.ok()) << BodyOf(response);
  EXPECT_EQ(profile->U64Field("hz", 0), 199u);
  EXPECT_NE(profile->Find("spans"), nullptr);
  EXPECT_NE(profile->Find("stacks"), nullptr);
  // The window owned its capture, so the profiler is disarmed again and a
  // second (collapsed) window succeeds.
  const std::string collapsed = Get(app.port(), "/profilez?seconds=0.05");
  EXPECT_NE(collapsed.find("200 OK"), std::string::npos);
#endif

  app.Stop();
}

TEST_F(ServeAppTest, ApiRejectsMalformedRequests) {
  ThreadPool pool(2);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  EXPECT_NE(Get(app.port(), "/api/query").find("405"), std::string::npos);
  EXPECT_NE(Post(app.port(), "/api/feedback", "not json").find("400"),
            std::string::npos);
  EXPECT_NE(Post(app.port(), "/api/feedback", "{}").find("400"),
            std::string::npos);
  EXPECT_NE(Post(app.port(), "/api/feedback", "{\"session\":9999}")
                .find("404"),
            std::string::npos);
  EXPECT_NE(
      Post(app.port(), "/api/query", "{\"seed\":1,").find("400"),
      std::string::npos);
  app.Stop();
}

TEST_F(ServeAppTest, ApiRejectsIntegersOutOfRangeAndNamesTheField) {
  ThreadPool pool(2);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  StatusOr<JsonValue> query =
      ParseJson(BodyOf(Post(app.port(), "/api/query", "{\"seed\":3}")));
  ASSERT_TRUE(query.ok());
  const std::string session = std::to_string(query->U64Field("session", 0));
  const JsonValue* display = query->Find("display");
  ASSERT_NE(display, nullptr);
  ASSERT_FALSE(display->items.empty());
  const JsonValue* images = display->items[0].Find("images");
  ASSERT_NE(images, nullptr);
  ASSERT_FALSE(images->items.empty());
  std::uint64_t pick = 0;
  ASSERT_TRUE(images->items[0].AsUint(UINT32_MAX, &pick));
  const std::string ok_relevant =
      ",\"relevant\":[" + std::to_string(pick) + "]";

  // A client integer that is negative, fractional, past its type or not a
  // number answers 400 and names the field; none may reach a conversion.
  const std::string s = "{\"session\":" + session;
  const std::string f = s + ok_relevant + ",\"finalize\":";
  struct Case {
    const char* path;
    std::string body;
    const char* field;
  };
  for (const Case& c : std::vector<Case>{
           {"/api/query", "{\"seed\":-1}", "seed"},
           {"/api/query", "{\"seed\":1.5}", "seed"},
           {"/api/query", "{\"seed\":1e30}", "seed"},
           {"/api/query", "{\"seed\":\"7\"}", "seed"},
           {"/api/query", "{\"display_size\":-3}", "display_size"},
           {"/api/query", "{\"display_size\":1e300}", "display_size"},
           {"/api/feedback", "{\"session\":1e30}", "session"},
           {"/api/feedback", "{\"session\":-1}", "session"},
           {"/api/feedback", "{\"session\":1.5}", "session"},
           {"/api/feedback", "{\"session\":true}", "session"},
           {"/api/feedback", s + ",\"relevant\":[5e9]}", "relevant"},
           {"/api/feedback", s + ",\"relevant\":[1.5]}", "relevant"},
           {"/api/feedback", s + ",\"relevant\":[-1]}", "relevant"},
           {"/api/feedback", s + ",\"relevant\":[4294967296]}", "relevant"},
           {"/api/feedback", s + ",\"relevant\":[\"1\"]}", "relevant"},
           {"/api/feedback", f + "1e300}", "finalize"},
           {"/api/feedback", f + "2.5}", "finalize"},
           {"/api/feedback", f + "-1}", "finalize"},
           {"/api/feedback", f + "301}", "finalize"},  // the corpus is 300
           {"/api/feedback", f + "false}", "finalize"},
           {"/api/feedback", f + "\"25\"}", "finalize"},
       }) {
    const std::string response = Post(app.port(), c.path, c.body);
    EXPECT_NE(response.find("400"), std::string::npos) << c.body;
    EXPECT_NE(BodyOf(response).find(c.field), std::string::npos) << c.body;
  }

  // Rejected requests left the session untouched: the first valid round
  // is round 1, and "finalize":true still finalizes.
  StatusOr<JsonValue> round = ParseJson(
      BodyOf(Post(app.port(), "/api/feedback", s + ok_relevant + "}")));
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->U64Field("round", 0), 1u);
  const std::string final_response =
      Post(app.port(), "/api/feedback",
           s + ",\"relevant\":[],\"finalize\":true}");
  EXPECT_NE(final_response.find("200 OK"), std::string::npos)
      << final_response;
  StatusOr<JsonValue> final_round = ParseJson(BodyOf(final_response));
  ASSERT_TRUE(final_round.ok());
  const JsonValue* results = final_round->Find("results");
  ASSERT_NE(results, nullptr);
  EXPECT_FALSE(results->items.empty());
  app.Stop();
}

TEST_F(ServeAppTest, StartRefusesACacheBudgetThatOverflows) {
  constexpr std::size_t kMaxCacheMb =
      std::numeric_limits<std::size_t>::max() >> 20;
  for (const std::size_t cache_mb : {kMaxCacheMb + 1, kMaxCacheMb}) {
    ThreadPool pool(1);
    ServeOptions options;
    options.db_path = *db_path_;
    options.pool = &pool;
    options.cache_mb = cache_mb;
    ServeApp app(std::move(options));
    std::string error;
    // `cache_mb << 20` would wrap to a small budget past the largest value.
    EXPECT_EQ(app.Start(&error), cache_mb == kMaxCacheMb) << cache_mb;
    if (cache_mb != kMaxCacheMb) {
      EXPECT_NE(error.find("cache_mb"), std::string::npos) << error;
    }
    app.Stop();
  }
}

TEST_F(ServeAppTest, SameSeedYieldsIdenticalFirstDisplay) {
  ThreadPool pool(2);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  const std::string a = BodyOf(Post(app.port(), "/api/query",
                                    "{\"seed\":7}"));
  const std::string b = BodyOf(Post(app.port(), "/api/query",
                                    "{\"seed\":7}"));
  const std::size_t display_a = a.find("\"display\"");
  const std::size_t display_b = b.find("\"display\"");
  ASSERT_NE(display_a, std::string::npos);
  ASSERT_NE(display_b, std::string::npos);
  // Session ids differ; everything from the display on is seed-driven and
  // must be byte-identical.
  EXPECT_EQ(a.substr(display_a), b.substr(display_b));
  app.Stop();
}

TEST_F(ServeAppTest, TraceparentSessionRoundTripsThroughEveryObsSurface) {
  obs::TraceStore::Global().Clear();
  obs::LogRing::Global().Clear();

  // One query-pool lane: subqueries run sequentially, so every span's self
  // time is disjoint and the tree's self times must sum to no more than the
  // session's wall time. (Cross-thread parentage is covered by the thread
  // pool's own trace test.)
  ThreadPool pool(1);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  options.trace_sample_every = 1;  // head-sample every session
  options.slow_trace_ms = -1.0;    // slow trigger off: sampling must suffice
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  const std::string trace_id = "4bf92f3577b34da6a3ce929d0e0e4736";
  const std::string traceparent =
      "traceparent: 00-" + trace_id + "-00f067aa0ba902b7-01\r\n";

  // The response echoes the client's trace id as a header and JSON field.
  const std::string query_response = Post(
      app.port(), "/api/query", "{\"seed\":11,\"label\":\"trace-test\"}",
      traceparent);
  EXPECT_NE(HeaderValue(query_response, "traceparent").find(trace_id),
            std::string::npos)
      << query_response;
  StatusOr<JsonValue> query = ParseJson(BodyOf(query_response));
  ASSERT_TRUE(query.ok()) << BodyOf(query_response);
  const JsonValue* trace_field = query->Find("trace");
  ASSERT_NE(trace_field, nullptr);
  EXPECT_EQ(trace_field->string, trace_id);
  const std::uint64_t session_id = query->U64Field("session", 0);
  ASSERT_GT(session_id, 0u);

  // Drive one feedback round and finalize; responses keep echoing the id.
  const JsonValue* display = query->Find("display");
  ASSERT_NE(display, nullptr);
  ASSERT_FALSE(display->items.empty());
  const JsonValue* images = display->items[0].Find("images");
  ASSERT_NE(images, nullptr);
  ASSERT_FALSE(images->items.empty());
  const std::string relevant =
      "[" +
      std::to_string(static_cast<std::uint64_t>(images->items[0].number)) +
      "]";
  const std::string round_response =
      Post(app.port(), "/api/feedback",
           "{\"session\":" + std::to_string(session_id) +
               ",\"relevant\":" + relevant + "}");
  EXPECT_NE(HeaderValue(round_response, "traceparent").find(trace_id),
            std::string::npos);
  const std::string final_response =
      Post(app.port(), "/api/feedback",
           "{\"session\":" + std::to_string(session_id) +
               ",\"relevant\":" + relevant + ",\"finalize\":20}");
  StatusOr<JsonValue> final_round = ParseJson(BodyOf(final_response));
  ASSERT_TRUE(final_round.ok()) << BodyOf(final_response);
  ASSERT_NE(final_round->Find("results"), nullptr);
  EXPECT_EQ(final_round->Find("trace")->string, trace_id);

  // /queryz: the audit record carries the trace id.
  EXPECT_NE(BodyOf(Get(app.port(), "/queryz"))
                .find("\"trace\":\"" + trace_id + "\""),
            std::string::npos);

  // /tracez: the session was head-sampled and published.
  const std::string tracez = BodyOf(Get(app.port(), "/tracez"));
  StatusOr<JsonValue> tracez_json = ParseJson(tracez);
  ASSERT_TRUE(tracez_json.ok()) << tracez;
  const JsonValue* entry = FindTrace(*tracez_json, trace_id);
  ASSERT_NE(entry, nullptr) << tracez;
  EXPECT_EQ(entry->Find("reason")->string, "sampled");
  const std::uint64_t total_ns = entry->U64Field("total_ns", 0);

#ifndef QDCBIR_DISABLE_OBS
  // The tree holds the session's phases: descent (feedback rounds),
  // finalize, and at least one per-leaf subquery span with leaf
  // attribution. Self times are consistent and sum within the wall time.
  std::vector<FlatSpan> spans;
  const JsonValue* roots = entry->Find("spans");
  ASSERT_NE(roots, nullptr);
  for (const JsonValue& root : roots->items) CollectSpans(root, &spans);
  std::size_t descents = 0, finalizes = 0, subqueries = 0,
              attributed_subqueries = 0, api_feedbacks = 0, api_finalizes = 0;
  std::uint64_t self_sum = 0;
  for (const FlatSpan& span : spans) {
    EXPECT_LE(span.self_ns, span.duration_ns) << span.name;
    self_sum += span.self_ns;
    if (span.name == "qd.round.descent") ++descents;
    if (span.name == "qd.finalize") ++finalizes;
    if (span.name == "serve.api.feedback") ++api_feedbacks;
    if (span.name == "serve.api.finalize") ++api_finalizes;
    if (span.name == "qd.finalize.subquery") {
      ++subqueries;
      if (span.has_leaf_annotation) ++attributed_subqueries;
    }
  }
  EXPECT_GE(descents, 1u);
  EXPECT_GE(finalizes, 1u);
  EXPECT_GE(subqueries, 1u);
  EXPECT_EQ(attributed_subqueries, subqueries);
  // One serve.api.feedback span per feedback request (the plain round and
  // the finalizing one) and one serve.api.finalize span per session.
  EXPECT_EQ(api_feedbacks, 2u);
  EXPECT_EQ(api_finalizes, 1u);
  EXPECT_LE(self_sum, total_ns);
#endif

  // /metrics: the session-latency histogram carries a matching exemplar.
  const std::string metrics = BodyOf(Get(app.port(), "/metrics"));
  std::string prom_error;
  std::map<std::string, double> samples;
  std::vector<std::string> exemplar_ids;
  ASSERT_TRUE(obs::ValidatePrometheusText(metrics, &prom_error, &samples,
                                          &exemplar_ids))
      << prom_error;
  EXPECT_GE(samples["qdcbir_serve_session_latency_ns_count"], 1.0);
  bool found_exemplar = false;
  for (const std::string& id : exemplar_ids) {
    if (id == trace_id) found_exemplar = true;
  }
  EXPECT_TRUE(found_exemplar) << metrics;

  // /logz: the finalize log line is stamped with the trace id.
  EXPECT_NE(BodyOf(Get(app.port(), "/logz"))
                .find("\"trace\":\"" + trace_id + "\""),
            std::string::npos);

  // /varz: the spliced build object precedes the registry sections.
  const std::string varz = BodyOf(Get(app.port(), "/varz"));
  EXPECT_NE(varz.find("\"build\":{\"git\":"), std::string::npos);
  EXPECT_NE(varz.find("\"counters\""), std::string::npos);

  app.Stop();
}

TEST_F(ServeAppTest, SlowTriggerKeepsTraceWithHeadSamplingOff) {
  obs::TraceStore::Global().Clear();

  ThreadPool pool(4);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  options.trace_sample_every = 0;  // head sampling off
  options.slow_trace_ms = 0.0;     // threshold 0: every session is "slow"
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  // No client traceparent: the server must mint an id of its own.
  StatusOr<JsonValue> query =
      ParseJson(BodyOf(Post(app.port(), "/api/query", "{\"seed\":3}")));
  ASSERT_TRUE(query.ok());
  const JsonValue* trace_field = query->Find("trace");
  ASSERT_NE(trace_field, nullptr);
  const std::string trace_id = trace_field->string;
  ASSERT_EQ(trace_id.size(), 32u);
  const std::uint64_t session_id = query->U64Field("session", 0);

  const JsonValue* images = query->Find("display")->items[0].Find("images");
  ASSERT_FALSE(images->items.empty());
  const std::string body =
      "{\"session\":" + std::to_string(session_id) + ",\"relevant\":[" +
      std::to_string(static_cast<std::uint64_t>(images->items[0].number)) +
      "],\"finalize\":10}";
  ASSERT_NE(Post(app.port(), "/api/feedback", body).find("200 OK"),
            std::string::npos);

  // The retroactive trigger retained the full tree as "slow".
  StatusOr<JsonValue> tracez = ParseJson(BodyOf(Get(app.port(), "/tracez")));
  ASSERT_TRUE(tracez.ok());
  const JsonValue* entry = FindTrace(*tracez, trace_id);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->Find("reason")->string, "slow");
#ifndef QDCBIR_DISABLE_OBS
  EXPECT_GT(entry->U64Field("span_count", 0), 0u);
#endif
  app.Stop();
}

TEST_F(ServeAppTest, TracingDisabledDropsTreesButKeepsTraceIds) {
  obs::TraceStore::Global().Clear();

  ThreadPool pool(2);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  options.trace_sample_every = 0;  // both retention mechanisms off
  options.slow_trace_ms = -1.0;
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  StatusOr<JsonValue> query =
      ParseJson(BodyOf(Post(app.port(), "/api/query", "{\"seed\":5}")));
  ASSERT_TRUE(query.ok());
  // Responses still carry a trace id for correlation...
  ASSERT_NE(query->Find("trace"), nullptr);
  const std::uint64_t session_id = query->U64Field("session", 0);
  const JsonValue* images = query->Find("display")->items[0].Find("images");
  ASSERT_FALSE(images->items.empty());
  const std::string body =
      "{\"session\":" + std::to_string(session_id) + ",\"relevant\":[" +
      std::to_string(static_cast<std::uint64_t>(images->items[0].number)) +
      "],\"finalize\":10}";
  ASSERT_NE(Post(app.port(), "/api/feedback", body).find("200 OK"),
            std::string::npos);
  // ...but nothing is published to /tracez.
  StatusOr<JsonValue> tracez = ParseJson(BodyOf(Get(app.port(), "/tracez")));
  ASSERT_TRUE(tracez.ok());
  EXPECT_EQ(FindTrace(*tracez, query->Find("trace")->string), nullptr);
  app.Stop();
}

std::map<std::string, double> ScrapeMetrics(int port) {
  std::map<std::string, double> samples;
  std::string prom_error;
  EXPECT_TRUE(obs::ValidatePrometheusText(BodyOf(Get(port, "/metrics")),
                                          &prom_error, &samples))
      << prom_error;
  return samples;
}

/// Drives the scripted session (seed 42, first-two-of-each-group feedback,
/// finalize 25) and returns the finalize response body.
std::string RunScriptedHttpSession(int port, const std::string& label) {
  const std::string query_body = BodyOf(Post(
      port, "/api/query", "{\"seed\":42,\"label\":\"" + label + "\"}"));
  StatusOr<JsonValue> query = ParseJson(query_body);
  EXPECT_TRUE(query.ok()) << query_body;
  if (!query.ok()) return "";
  const std::uint64_t session_id = query->U64Field("session", 0);
  const JsonValue* display = query->Find("display");
  EXPECT_NE(display, nullptr);
  std::string relevant = "[";
  bool first = true;
  for (const JsonValue& group : display->items) {
    const JsonValue* images = group.Find("images");
    if (images == nullptr) continue;
    for (std::size_t i = 0; i < images->items.size() && i < 2; ++i) {
      if (!first) relevant.push_back(',');
      first = false;
      relevant += std::to_string(
          static_cast<std::uint64_t>(images->items[i].number));
    }
  }
  relevant.push_back(']');
  return BodyOf(Post(port, "/api/feedback",
                     "{\"session\":" + std::to_string(session_id) +
                         ",\"relevant\":" + relevant + ",\"finalize\":25}"));
}

/// The deterministic part of a finalize body: results + groups + stats,
/// excluding the session id, trace id and wall-clock timings around it.
std::string ResultsSlice(const std::string& final_body) {
  const std::size_t begin = final_body.find("\"results\"");
  const std::size_t end = final_body.find(",\"rounds_ns\"");
  EXPECT_NE(begin, std::string::npos) << final_body;
  EXPECT_NE(end, std::string::npos) << final_body;
  if (begin == std::string::npos || end == std::string::npos) return "";
  return final_body.substr(begin, end - begin);
}

/// The /queryz record with the given label, or nullptr.
const JsonValue* FindAuditRecord(const JsonValue& queryz,
                                 const std::string& label) {
  const JsonValue* records = queryz.Find("records");
  if (records == nullptr) return nullptr;
  for (const JsonValue& record : records->items) {
    const JsonValue* field = record.Find("label");
    if (field != nullptr && field->string == label) return &record;
  }
  return nullptr;
}

TEST_F(ServeAppTest, RepeatedIdenticalQueriesServeFromCache) {
  ThreadPool pool(4);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;  // cache_mb stays at its default: cache on
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  const std::map<std::string, double> before = ScrapeMetrics(app.port());
  const std::string cold = RunScriptedHttpSession(app.port(), "cache-cold");
  const std::string warm = RunScriptedHttpSession(app.port(), "cache-warm");

  // Cache on, cache cold, cache warm: byte-identical ranked output.
  ASSERT_FALSE(cold.empty());
  EXPECT_EQ(ResultsSlice(cold), ResultsSlice(warm));

  // The warm replay hit the finalized-top-k cache, and /metrics says so.
  std::map<std::string, double> after = ScrapeMetrics(app.port());
  const auto delta = [&](const char* name) {
    const auto it = before.find(name);
    return after[name] - (it == before.end() ? 0.0 : it->second);
  };
  EXPECT_GE(delta("qdcbir_cache_hit"), 1.0);
  EXPECT_GE(delta("qdcbir_cache_miss"), 1.0);
  EXPECT_GE(delta("qdcbir_cache_topk_hit"), 1.0);
  EXPECT_GE(delta("qdcbir_cache_insertions"), 1.0);
  EXPECT_GT(after["qdcbir_cache_bytes"], 0.0);

  // /queryz attributes the hits to the warm session's audit record.
  StatusOr<JsonValue> queryz = ParseJson(BodyOf(Get(app.port(), "/queryz")));
  ASSERT_TRUE(queryz.ok());
  const JsonValue* warm_record = FindAuditRecord(*queryz, "cache-warm");
  ASSERT_NE(warm_record, nullptr);
  EXPECT_GT(warm_record->U64Field("cache_hits", 0), 0u);
  const JsonValue* cold_record = FindAuditRecord(*queryz, "cache-cold");
  ASSERT_NE(cold_record, nullptr);
  EXPECT_GT(cold_record->U64Field("cache_misses", 0), 0u);

  // /statusz surfaces the cache row for humans.
  EXPECT_NE(Get(app.port(), "/statusz").find("cache"), std::string::npos);
  app.Stop();
}

TEST_F(ServeAppTest, CacheDisabledStillServesIdenticalResults) {
  ThreadPool pool(2);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  options.cache_mb = 0;  // cache off
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  const std::string a = RunScriptedHttpSession(app.port(), "nocache-a");
  const std::string b = RunScriptedHttpSession(app.port(), "nocache-b");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(ResultsSlice(a), ResultsSlice(b));

  StatusOr<JsonValue> queryz = ParseJson(BodyOf(Get(app.port(), "/queryz")));
  ASSERT_TRUE(queryz.ok());
  const JsonValue* record = FindAuditRecord(*queryz, "nocache-b");
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->U64Field("cache_hits", 0), 0u);
  EXPECT_EQ(record->U64Field("cache_misses", 0), 0u);
  app.Stop();
}

TEST_F(ServeAppTest, ApiRepRendersRepresentativeAndCachesIt) {
  ThreadPool pool(2);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  EXPECT_NE(Post(app.port(), "/api/rep", "").find("405"), std::string::npos);
  EXPECT_NE(Get(app.port(), "/api/rep").find("400"), std::string::npos);
  EXPECT_NE(Get(app.port(), "/api/rep?id=nope").find("400"),
            std::string::npos);
  EXPECT_NE(Get(app.port(), "/api/rep?id=999999").find("404"),
            std::string::npos);

  const std::map<std::string, double> before = ScrapeMetrics(app.port());
  const std::string first = Get(app.port(), "/api/rep?id=3");
  ASSERT_NE(first.find("200 OK"), std::string::npos);
  EXPECT_EQ(HeaderValue(first, "Content-Type"), "image/x-portable-pixmap");
  const std::string body = BodyOf(first);
  ASSERT_GE(body.size(), 2u);
  EXPECT_EQ(body.substr(0, 2), "P6");  // binary PPM magic

  // The second fetch is served from the representatives cache, byte-equal.
  const std::string second = Get(app.port(), "/api/rep?id=3");
  EXPECT_EQ(BodyOf(second), body);
  std::map<std::string, double> after = ScrapeMetrics(app.port());
  const auto it = before.find("qdcbir_cache_representatives_hit");
  EXPECT_GE(after["qdcbir_cache_representatives_hit"] -
                (it == before.end() ? 0.0 : it->second),
            1.0);
  app.Stop();
}

TEST_F(ServeAppTest, ReloadFlushesCacheAndRefusesWhileSessionsOpen) {
  ThreadPool pool(4);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  // Warm the cache with a cold + hit pair.
  const std::string baseline =
      RunScriptedHttpSession(app.port(), "reload-warmup");
  ASSERT_FALSE(baseline.empty());
  RunScriptedHttpSession(app.port(), "reload-warm");

  EXPECT_NE(Get(app.port(), "/api/reload").find("405"), std::string::npos);

  // An open session pins the corpus: reload must refuse.
  StatusOr<JsonValue> open = ParseJson(
      BodyOf(Post(app.port(), "/api/query", "{\"seed\":9}")));
  ASSERT_TRUE(open.ok());
  const std::uint64_t open_id = open->U64Field("session", 0);
  const std::string refused = Post(app.port(), "/api/reload", "");
  EXPECT_NE(refused.find("409"), std::string::npos);
  EXPECT_NE(refused.find("sessions open"), std::string::npos);

  // Draining the session (finalize closes it) unblocks the reload.
  const JsonValue* images = open->Find("display")->items[0].Find("images");
  ASSERT_FALSE(images->items.empty());
  ASSERT_NE(
      Post(app.port(), "/api/feedback",
           "{\"session\":" + std::to_string(open_id) + ",\"relevant\":[" +
               std::to_string(
                   static_cast<std::uint64_t>(images->items[0].number)) +
               "],\"finalize\":10}")
          .find("200 OK"),
      std::string::npos);

  const std::map<std::string, double> before = ScrapeMetrics(app.port());
  const std::string accepted = Post(app.port(), "/api/reload", "");
  EXPECT_NE(accepted.find("202"), std::string::npos);
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  // The reload flushed the cache: the identical replay misses the top-k
  // cache (no new hit) yet still returns byte-identical results.
  const std::string after_reload =
      RunScriptedHttpSession(app.port(), "reload-after");
  EXPECT_EQ(ResultsSlice(baseline), ResultsSlice(after_reload));
  std::map<std::string, double> after = ScrapeMetrics(app.port());
  const auto delta = [&](const char* name) {
    const auto it = before.find(name);
    return after[name] - (it == before.end() ? 0.0 : it->second);
  };
  EXPECT_GE(delta("qdcbir_cache_invalidation_flushes"), 1.0);
  EXPECT_GE(delta("qdcbir_cache_topk_miss"), 1.0);
  EXPECT_EQ(delta("qdcbir_cache_topk_hit"), 0.0);

  StatusOr<JsonValue> queryz = ParseJson(BodyOf(Get(app.port(), "/queryz")));
  ASSERT_TRUE(queryz.ok());
  const JsonValue* record = FindAuditRecord(*queryz, "reload-warm");
  ASSERT_NE(record, nullptr);
  EXPECT_GT(record->U64Field("cache_hits", 0), 0u);
  app.Stop();
}

TEST_F(ServeAppTest, ReloadRefusesWhileThumbnailRendersAreInFlight) {
  // /api/rep renders outside the session lock, pinning the corpus with an
  // in-flight count: reload answers 409 while a render runs and never
  // swaps db_ under one, so every 200 carries the right bytes.
  ThreadPool pool(2);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  options.cache_mb = 0;  // every fetch renders
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  StatusOr<ImageDatabase> db = DatabaseIo::LoadDatabase(*db_path_);
  ASSERT_TRUE(db.ok());
  std::vector<std::string> expected;
  for (ImageId id = 0; id < 16; ++id) {
    expected.push_back(EncodePpm(db->Render(id)));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> served{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> fetchers;
  for (int t = 0; t < 3; ++t) {
    fetchers.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t);
           !stop.load(std::memory_order_relaxed); ++i) {
        const std::size_t id = i % expected.size();
        const std::string reply =
            Get(app.port(), "/api/rep?id=" + std::to_string(id));
        if (reply.find("200 OK") != std::string::npos &&
            BodyOf(reply) == expected[id]) {
          served.fetch_add(1);
        } else if (reply.find("503") == std::string::npos) {
          wrong.fetch_add(1);  // neither the right bytes nor "reloading"
        }
      }
    });
  }
  int in_flight_refusals = 0;
  for (int attempt = 0; attempt < 400 && in_flight_refusals == 0;
       ++attempt) {
    const std::string reply = Post(app.port(), "/api/reload", "");
    if (reply.find("renders in flight") != std::string::npos) {
      EXPECT_NE(reply.find("409"), std::string::npos) << reply;
      ++in_flight_refusals;
    } else if (reply.find("202") == std::string::npos ||
               !app.WaitUntilReady(30000)) {
      ADD_FAILURE() << reply;
      break;
    }
  }
  stop.store(true);
  for (std::thread& fetcher : fetchers) fetcher.join();
  EXPECT_EQ(in_flight_refusals, 1);
  EXPECT_GT(served.load(), 0);
  EXPECT_EQ(wrong.load(), 0);
  app.Stop();
}

TEST_F(ServeAppTest, EveryAdminRouteDeclaresItsContentType) {
  ThreadPool pool(4);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  // An open session keeps /api/reload at 409 (a JSON error) instead of
  // kicking off a real reload mid-walk.
  const std::string query_body =
      BodyOf(Post(app.port(), "/api/query", "{\"seed\":7}"));
  ASSERT_TRUE(ParseJson(query_body).ok()) << query_body;

  const std::string json = "application/json; charset=utf-8";
  const std::string plain = "text/plain; charset=utf-8";
  // path -> {query/body suffix or "", POST body or nullopt, expected type}
  struct RouteProbe {
    std::string request_path;
    bool post = false;
    std::string expected_type;
  };
  const std::map<std::string, RouteProbe> probes = {
      {"/healthz", {"/healthz", false, plain}},
      {"/readyz", {"/readyz", false, plain}},
      {"/statusz", {"/statusz", false, "text/html; charset=utf-8"}},
      {"/varz", {"/varz", false, json}},
      {"/metrics",
       {"/metrics", false, "text/plain; version=0.0.4; charset=utf-8"}},
      {"/queryz", {"/queryz", false, json}},
      {"/indexz", {"/indexz", false, json}},
      {"/historyz", {"/historyz", false, json}},
      {"/tracez", {"/tracez", false, json}},
      {"/logz", {"/logz", false, json}},
      {"/sloz", {"/sloz", false, json}},
      {"/profilez", {"/profilez?seconds=0.05&hz=20", false, plain}},
      {"/api/query", {"/api/query", true, json}},
      {"/api/feedback", {"/api/feedback", true, json}},
      {"/api/rep", {"/api/rep", false, json}},  // no id: JSON error
      {"/api/reload", {"/api/reload", true, json}},
  };

  const std::vector<std::string> routes = app.HandledPaths();
  EXPECT_GE(routes.size(), probes.size());
  for (const std::string& route : routes) {
    const auto it = probes.find(route);
    ASSERT_NE(it, probes.end())
        << "route " << route << " has no Content-Type expectation; add one";
    const RouteProbe& probe = it->second;
    const std::string response =
        probe.post ? Post(app.port(), probe.request_path, "{}")
                   : Get(app.port(), probe.request_path);
    EXPECT_EQ(HeaderValue(response, "Content-Type"), probe.expected_type)
        << route;
  }
  app.Stop();
}

TEST_F(ServeAppTest, QueryzAndLogzHonorCountLimit) {
  ThreadPool pool(4);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  RunScriptedHttpSession(app.port(), "limit-a");
  RunScriptedHttpSession(app.port(), "limit-b");

  // ?n=1 keeps only the newest record.
  StatusOr<JsonValue> queryz =
      ParseJson(BodyOf(Get(app.port(), "/queryz?n=1")));
  ASSERT_TRUE(queryz.ok());
  const JsonValue* records = queryz->Find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_EQ(records->items.size(), 1u);
  const JsonValue* label = records->items[0].Find("label");
  ASSERT_NE(label, nullptr);
  EXPECT_EQ(label->string, "limit-b");

  // The default (no ?n=) still returns both.
  queryz = ParseJson(BodyOf(Get(app.port(), "/queryz")));
  ASSERT_TRUE(queryz.ok());
  EXPECT_NE(FindAuditRecord(*queryz, "limit-a"), nullptr);

  StatusOr<JsonValue> logz = ParseJson(BodyOf(Get(app.port(), "/logz?n=1")));
  ASSERT_TRUE(logz.ok());
  const JsonValue* entries = logz->Find("entries");
  ASSERT_NE(entries, nullptr);
  EXPECT_LE(entries->items.size(), 1u);

  // Malformed and non-positive limits answer 400, not a silent default.
  for (const char* bad :
       {"/queryz?n=abc", "/queryz?n=0", "/queryz?n=-1", "/logz?n=1x",
        "/logz?n=0"}) {
    const std::string response = Get(app.port(), bad);
    EXPECT_NE(response.find("400"), std::string::npos) << bad;
  }
  app.Stop();
}

TEST_F(ServeAppTest, SlozReportsConfiguredSlosAndMetricsExposeGauges) {
  ThreadPool pool(4);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  RunScriptedHttpSession(app.port(), "sloz-session");

  StatusOr<JsonValue> sloz = ParseJson(BodyOf(Get(app.port(), "/sloz")));
  ASSERT_TRUE(sloz.ok());
  const JsonValue* slos = sloz->Find("slos");
  ASSERT_NE(slos, nullptr);
  ASSERT_TRUE(slos->is_array());
  std::map<std::string, std::string> states;
  for (const JsonValue& slo : slos->items) {
    const JsonValue* name = slo.Find("name");
    const JsonValue* state = slo.Find("state");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(state, nullptr);
    states[name->string] = state->string;
  }
  for (const char* name : {"session_latency", "http_availability",
                           "cache_hit_rate", "quality_stability"}) {
    ASSERT_TRUE(states.count(name)) << name;
    // A handful of healthy local sessions must not trip any SLO.
    EXPECT_EQ(states[name], "ok") << name;
  }

  // The gauge families back the scrape-level CI gate.
  const std::map<std::string, double> samples = ScrapeMetrics(app.port());
  EXPECT_TRUE(samples.count("qdcbir_slo_session_latency_state"));
  EXPECT_EQ(samples.at("qdcbir_slo_session_latency_state"), 0.0);
  EXPECT_TRUE(samples.count("qdcbir_slo_http_availability_state"));
  EXPECT_TRUE(samples.count("qdcbir_quality_topk_jaccard_count"));

  const std::string statusz = BodyOf(Get(app.port(), "/statusz"));
  EXPECT_NE(statusz.find("/sloz"), std::string::npos);
  EXPECT_NE(statusz.find("slo"), std::string::npos);
  app.Stop();
}

TEST_F(ServeAppTest, WideEventsJoinSessionOutcomeQualityAndSloState) {
  const std::string events_path =
      ::testing::TempDir() + "serve_wide_events.jsonl";
  std::remove(events_path.c_str());

  ThreadPool pool(4);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  options.wide_events_path = events_path;
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  RunScriptedHttpSession(app.port(), "wide-final");

  // The finalized session's audit record already carries the quality
  // telemetry the wide event joins.
  StatusOr<JsonValue> queryz = ParseJson(BodyOf(Get(app.port(), "/queryz")));
  ASSERT_TRUE(queryz.ok());
  const JsonValue* record = FindAuditRecord(*queryz, "wide-final");
  ASSERT_NE(record, nullptr);
  const JsonValue* outcome = record->Find("outcome");
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->string, "finalized");
  EXPECT_NE(record->Find("quality_jaccard_permille"), nullptr);
  EXPECT_NE(record->Find("quality_rank_churn"), nullptr);

  // A second session left open is swept at Stop as abandoned.
  const std::string open_body = BodyOf(Post(
      app.port(), "/api/query", "{\"seed\":9,\"label\":\"wide-aband\"}"));
  ASSERT_TRUE(ParseJson(open_body).ok()) << open_body;
  app.Stop();

  std::ifstream in(events_path);
  ASSERT_TRUE(in.good()) << events_path;
  std::map<std::string, const JsonValue*> by_label;
  std::vector<JsonValue> events;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    StatusOr<JsonValue> parsed = ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << line;
    events.push_back(std::move(*parsed));
  }
  ASSERT_EQ(events.size(), 2u);
  for (const JsonValue& event : events) {
    const JsonValue* label = event.Find("label");
    ASSERT_NE(label, nullptr);
    by_label[label->string] = &event;
  }
  ASSERT_TRUE(by_label.count("wide-final"));
  ASSERT_TRUE(by_label.count("wide-aband"));

  const JsonValue& finalized = *by_label["wide-final"];
  EXPECT_EQ(finalized.Find("event")->string, "session");
  EXPECT_EQ(finalized.Find("outcome")->string, "finalized");
  EXPECT_EQ(finalized.Find("engine")->string, "qd");
  EXPECT_GE(finalized.U64Field("rounds", 0), 1u);
  EXPECT_GT(finalized.U64Field("results", 0), 0u);
  EXPECT_GT(finalized.U64Field("total_ns", 0), 0u);
  ASSERT_NE(finalized.Find("trace"), nullptr);
  EXPECT_EQ(finalized.Find("trace")->string.size(), 32u);
  EXPECT_NE(finalized.Find("quality_mean_jaccard_permille"), nullptr);
  EXPECT_NE(finalized.Find("slo_worst"), nullptr);
  EXPECT_NE(finalized.Find("slo_session_latency"), nullptr);

  EXPECT_EQ(by_label["wide-aband"]->Find("outcome")->string, "abandoned");
}

TEST_F(ServeAppTest, IndexzJoinsTreeWithLiveAccessStats) {
  ThreadPool pool(4);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  options.trace_sample_every = 0;
  options.cache_mb = 0;  // cache off: both sessions must touch the index
  options.slow_trace_ms = 0.0;      // every finalize samples the recorder
  options.history_interval_ms = 0;  // background cadence off: deterministic
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  EXPECT_NE(Get(app.port(), "/indexz?n=0").find("400"), std::string::npos);
  EXPECT_NE(Get(app.port(), "/indexz?n=abc").find("400"), std::string::npos);

  // Before any session: the tree geometry is full, the access join empty.
  StatusOr<JsonValue> cold = ParseJson(BodyOf(Get(app.port(), "/indexz")));
  ASSERT_TRUE(cold.ok());
  const JsonValue* tree = cold->Find("tree");
  ASSERT_NE(tree, nullptr);
  EXPECT_GT(tree->U64Field("leaves", 0), 1u);
  EXPECT_EQ(tree->U64Field("images", 0), 300u);
  const JsonValue* cold_access = cold->Find("access");
  ASSERT_NE(cold_access, nullptr);
  EXPECT_EQ(cold_access->U64Field("sessions", 1), 0u);

  RunScriptedHttpSession(app.port(), "indexz-a");
  RunScriptedHttpSession(app.port(), "indexz-b");

  StatusOr<JsonValue> warm = ParseJson(BodyOf(Get(app.port(), "/indexz")));
  ASSERT_TRUE(warm.ok());
  const JsonValue* access = warm->Find("access");
  ASSERT_NE(access, nullptr);
  EXPECT_GE(access->U64Field("sessions", 0), 2u);
  const JsonValue* totals = access->Find("totals");
  ASSERT_NE(totals, nullptr);
  EXPECT_GT(totals->U64Field("scans", 0), 0u);
  EXPECT_GT(totals->U64Field("distance_evals", 0), 0u);
  const JsonValue* hot = access->Find("hot_leaves");
  ASSERT_NE(hot, nullptr);
  ASSERT_FALSE(hot->items.empty());
  EXPECT_GT(hot->items[0].U64Field("scans", 0), 0u);
  const JsonValue* skew = access->Find("skew");
  ASSERT_NE(skew, nullptr);
  EXPECT_GT(skew->U64Field("top_share_permille", 0), 0u);

  // Each scripted session localizes several subqueries, so the sessions'
  // touched-leaf sets produce at least one co-access pair.
  const JsonValue* coaccess = warm->Find("coaccess");
  ASSERT_NE(coaccess, nullptr);
  EXPECT_GE(coaccess->U64Field("sets", 0), 2u);
  const JsonValue* pairs = coaccess->Find("pairs");
  ASSERT_NE(pairs, nullptr);
  ASSERT_FALSE(pairs->items.empty());
  EXPECT_GT(pairs->items[0].U64Field("count", 0), 0u);

  // ?n= caps the hot-leaf and pair tables.
  StatusOr<JsonValue> capped =
      ParseJson(BodyOf(Get(app.port(), "/indexz?n=1")));
  ASSERT_TRUE(capped.ok());
  EXPECT_LE(capped->Find("access")->Find("hot_leaves")->items.size(), 1u);
  EXPECT_LE(capped->Find("coaccess")->Find("pairs")->items.size(), 1u);

  // /metrics carries both the label-free rollup and the per-leaf heatmap.
  const std::string metrics = BodyOf(Get(app.port(), "/metrics"));
  std::string prom_error;
  std::map<std::string, double> samples;
  ASSERT_TRUE(obs::ValidatePrometheusText(metrics, &prom_error, &samples))
      << prom_error;
  EXPECT_GE(samples["qdcbir_access_leaf_scans"], 1.0);
  EXPECT_GE(samples["qdcbir_index_tree_leaves"], 2.0);
  EXPECT_NE(metrics.find("qdcbir_index_leaf_scans{leaf=\""),
            std::string::npos);

  // /statusz links both new surfaces.
  const std::string statusz = BodyOf(Get(app.port(), "/statusz"));
  EXPECT_NE(statusz.find("/indexz"), std::string::npos);
  EXPECT_NE(statusz.find("/historyz"), std::string::npos);
  app.Stop();
}

TEST_F(ServeAppTest, QueryzTotalsEqualTheSessionsLeafRows) {
  // Every distance evaluation and feature byte of a served QD session comes
  // from a leaf scan, and one tap counts each scan into both the session
  // totals and its leaf row: for a single session on a freshly loaded
  // index, /queryz and the /indexz access totals must agree exactly.
  ThreadPool pool(4);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  RunScriptedHttpSession(app.port(), "leaf-rows");
  StatusOr<JsonValue> queryz = ParseJson(BodyOf(Get(app.port(), "/queryz")));
  ASSERT_TRUE(queryz.ok());
  const JsonValue* record = FindAuditRecord(*queryz, "leaf-rows");
  ASSERT_NE(record, nullptr);
  const std::uint64_t evals = record->U64Field("distance_evals", 0);
  const std::uint64_t bytes = record->U64Field("feature_bytes", 0);
  EXPECT_GT(evals, 0u);
  EXPECT_GT(bytes, 0u);

  StatusOr<JsonValue> indexz = ParseJson(BodyOf(Get(app.port(), "/indexz")));
  ASSERT_TRUE(indexz.ok());
  const JsonValue* totals = indexz->Find("access")->Find("totals");
  ASSERT_NE(totals, nullptr);
#ifndef QDCBIR_DISABLE_OBS
  EXPECT_EQ(totals->U64Field("distance_evals", 0), evals);
  EXPECT_EQ(totals->U64Field("feature_bytes", 0), bytes);
#else
  // Leaf rows compile out; the session totals above still count.
  EXPECT_EQ(totals->U64Field("scans", 1), 0u);
#endif
  app.Stop();
}

TEST_F(ServeAppTest, PublishCostIsRecordedOncePerFinalizedSession) {
  ThreadPool pool(4);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  // The registry is process-global: count the samples this test adds.
  const auto publish_count = [&] {
    const std::map<std::string, double> samples = ScrapeMetrics(app.port());
    const auto it = samples.find("qdcbir_obs_publish_ns_count");
    return it == samples.end() ? 0.0 : it->second;
  };
  const double before = publish_count();
  for (int i = 0; i < 3; ++i) {
    RunScriptedHttpSession(app.port(), "publish-" + std::to_string(i));
  }
  // A feedback round without finalize, and a rejected finalize, publish
  // nothing.
  StatusOr<JsonValue> open = ParseJson(BodyOf(
      Post(app.port(), "/api/query", "{\"seed\":5,\"label\":\"open\"}")));
  ASSERT_TRUE(open.ok());
  const std::string session =
      std::to_string(open->U64Field("session", 0));
  EXPECT_NE(Post(app.port(), "/api/feedback",
                 "{\"session\":" + session + ",\"relevant\":[]}")
                .find("200 OK"),
            std::string::npos);
  EXPECT_NE(Post(app.port(), "/api/feedback",
                 "{\"session\":" + session +
                     ",\"relevant\":[],\"finalize\":25}")
                .find("400"),
            std::string::npos);
  EXPECT_EQ(publish_count() - before, 3.0);
  app.Stop();
}

TEST_F(ServeAppTest, EveryHttpThreadServesAnIdleKeepAliveConnection) {
  // `http_threads` keep-alive connections are served at once: each one is
  // answered while the earlier ones stay open and idle, instead of waiting
  // for one of them to close or idle out (5 s).
  ServeOptions options;
  options.db_path = *db_path_;
  const std::size_t lanes = options.http_threads;
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  const std::string healthz = "GET /healthz HTTP/1.1\r\n\r\n";
  std::vector<int> fds;
  for (std::size_t i = 0; i < lanes; ++i) {
    const int fd = ConnectLoopback(app.port());
    ASSERT_GE(fd, 0);
    fds.push_back(fd);
    timeval timeout{};
    timeout.tv_sec = 2;
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                           sizeof(timeout)),
              0);
    EXPECT_NE(Exchange(fd, healthz).find("200 OK"), std::string::npos)
        << "connection " << i << " of " << lanes;
  }
  // Still open and still served.
  for (const int fd : fds) {
    EXPECT_NE(Exchange(fd, healthz).find("200 OK"), std::string::npos);
  }
  for (const int fd : fds) ::close(fd);
  app.Stop();
}

TEST_F(ServeAppTest, HistoryzServesMonotoneSessionSeries) {
  ThreadPool pool(4);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  options.trace_sample_every = 0;
  options.slow_trace_ms = 0.0;      // threshold 0: every session samples
  options.history_interval_ms = 0;  // only event-driven samples
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  EXPECT_NE(Get(app.port(), "/historyz?window=-1").find("400"),
            std::string::npos);

  RunScriptedHttpSession(app.port(), "history-a");
  RunScriptedHttpSession(app.port(), "history-b");

  const std::string body =
      BodyOf(Get(app.port(), "/historyz?metric=qd.sessions"));
  StatusOr<JsonValue> history = ParseJson(body);
  ASSERT_TRUE(history.ok()) << body;
  EXPECT_EQ(history->Find("metric")->string, "qd.sessions");
  ASSERT_NE(history->Find("known"), nullptr);
  EXPECT_TRUE(history->Find("known")->boolean) << body;
  EXPECT_EQ(history->Find("type")->string, "counter");

  // Two slow-trace captures → two samples; the series must be strictly
  // ordered in time and monotone in value with non-negative deltas.
  const JsonValue* points = history->Find("points");
  ASSERT_NE(points, nullptr);
  ASSERT_GE(points->items.size(), 2u);
  std::uint64_t prev_t = 0;
  double prev_value = -1.0;
  for (const JsonValue& point : points->items) {
    const std::uint64_t t = point.U64Field("t_ns", 0);
    EXPECT_GT(t, prev_t);
    prev_t = t;
    const double value = point.Find("value")->number;
    EXPECT_GE(value, prev_value);
    prev_value = value;
    EXPECT_GE(point.Find("delta")->number, 0.0);
    EXPECT_GE(point.Find("rate")->number, 0.0);
  }
  EXPECT_GE(prev_value, 2.0);  // both sessions were counted

  // The slow-trace hook pinned each session's trace id as an event mark.
  const JsonValue* events = history->Find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_GE(events->items.size(), 2u);
  EXPECT_EQ(events->items[0].Find("label")->string.size(), 32u);

  // Unknown metric: known:false plus the series directory.
  StatusOr<JsonValue> unknown =
      ParseJson(BodyOf(Get(app.port(), "/historyz?metric=no.such")));
  ASSERT_TRUE(unknown.ok());
  EXPECT_FALSE(unknown->Find("known")->boolean);
  const JsonValue* series = unknown->Find("series");
  ASSERT_NE(series, nullptr);
  bool lists_sessions = false;
  for (const JsonValue& name : series->items) {
    if (name.string == "qd.sessions") lists_sessions = true;
  }
  EXPECT_TRUE(lists_sessions);
  app.Stop();
}

TEST_F(ServeAppTest, AdminFloatParametersMustBeFiniteNumbers) {
  ThreadPool pool(2);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  options.history_interval_ms = 0;
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  // A value that is not a finite number answers 400 before it can reach a
  // float-to-integer cast; a finite value past its range is clamped.
  struct Case {
    const char* path;
    int status;
  };
  for (const Case& c : std::vector<Case>{
           {"/historyz?window=nan", 400},
           {"/historyz?window=inf", 400},
           {"/historyz?window=-inf", 400},
           {"/historyz?window=1e400", 400},
           {"/historyz?window=abc", 400},
           {"/historyz?window=-1", 400},
           {"/historyz?window=1e20", 200},
           {"/historyz?window=2.5", 200},
           {"/profilez?seconds=nan", 400},
           {"/profilez?seconds=inf", 400},
           {"/profilez?seconds=1e400", 400},
           {"/profilez?seconds=2s", 400},
           {"/profilez?seconds=0.05&hz=nan", 400},
           {"/profilez?seconds=0.05&hz=inf", 400},
           {"/profilez?seconds=0.05&hz=-inf", 400},
#if defined(__linux__)
           {"/profilez?seconds=-1e20&hz=-1e20", 200},
#endif
       }) {
    const std::string response = Get(app.port(), c.path);
    EXPECT_EQ(response.rfind("HTTP/1.1 " + std::to_string(c.status), 0), 0u)
        << c.path << "\n"
        << response;
  }
#if defined(__linux__)
  // hz past the profiler's range runs at its 2000 Hz ceiling.
  const std::string response =
      Get(app.port(), "/profilez?seconds=0.05&hz=1e20&format=json");
  ASSERT_NE(response.find("200 OK"), std::string::npos) << response;
  StatusOr<JsonValue> profile = ParseJson(BodyOf(response));
  ASSERT_TRUE(profile.ok()) << BodyOf(response);
  EXPECT_EQ(profile->U64Field("hz", 0), 2000u);
#endif
  app.Stop();
}

TEST_F(ServeAppTest, QueryzRowCarriesExactlyTheAuditFields) {
  ThreadPool pool(2);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  RunScriptedHttpSession(app.port(), "keys-pinned");
  StatusOr<JsonValue> queryz = ParseJson(BodyOf(Get(app.port(), "/queryz")));
  ASSERT_TRUE(queryz.ok());
  const JsonValue* record = FindAuditRecord(*queryz, "keys-pinned");
  ASSERT_NE(record, nullptr);
  std::vector<std::string> keys;
  for (const auto& field : record->fields) keys.push_back(field.first);
  EXPECT_EQ(keys, (std::vector<std::string>{
                      "sequence", "engine", "label", "seed", "rounds",
                      "picks", "results", "subqueries",
                      "boundary_expansions", "expanded_subqueries",
                      "nodes_visited", "candidates_scored", "nodes_touched",
                      "distinct_nodes_sampled", "rounds_ns", "finalize_ns",
                      "total_ns", "distance_evals", "feature_bytes",
                      "leaves_visited", "cache_hits", "cache_misses",
                      "quality_jaccard_permille", "quality_rank_churn",
                      "quality_rounds_to_stability", "outcome", "trace"}));
  app.Stop();
}

TEST_F(ServeAppTest, RetiredSessionsRenderOneRecordToQueryzAndWideEvents) {
  const std::string events_path =
      ::testing::TempDir() + "serve_retire_events.jsonl";
  std::remove(events_path.c_str());
  ThreadPool pool(4);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  options.wide_events_path = events_path;
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  // One finalized session, one left open after a feedback round (swept as
  // abandoned at Stop), and one finalized under a label longer than the
  // record's 28 bytes.
  const std::string long_label(40, 'L');
  RunScriptedHttpSession(app.port(), "retire-final");
  RunScriptedHttpSession(app.port(), long_label);
  StatusOr<JsonValue> open = ParseJson(BodyOf(Post(
      app.port(), "/api/query", "{\"seed\":7,\"label\":\"retire-aband\"}")));
  ASSERT_TRUE(open.ok());
  const std::string session = std::to_string(open->U64Field("session", 0));
  EXPECT_NE(Post(app.port(), "/api/feedback",
                 "{\"session\":" + session + ",\"relevant\":[]}")
                .find("200 OK"),
            std::string::npos);
  app.Stop();

  // The abandoned session's row is written by the sweep, after the
  // listener closed: read the ring in-process.
  StatusOr<JsonValue> queryz = ParseJson(obs::QueryLog::Global().RenderJson());
  ASSERT_TRUE(queryz.ok());
  std::ifstream in(events_path);
  ASSERT_TRUE(in.good()) << events_path;
  std::vector<JsonValue> events;
  std::string line;
  while (std::getline(in, line)) {
    StatusOr<JsonValue> parsed = ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << line;
    events.push_back(std::move(*parsed));
  }
  ASSERT_EQ(events.size(), 3u);
  const auto event_for = [&events](const std::string& label) {
    for (const JsonValue& event : events) {
      if (event.Find("label")->string == label) return &event;
    }
    return static_cast<const JsonValue*>(nullptr);
  };

  std::set<std::uint64_t> sequences;
  for (const char* label : {"retire-final", "retire-aband"}) {
    SCOPED_TRACE(label);
    const JsonValue* row = FindAuditRecord(*queryz, label);
    const JsonValue* event = event_for(label);
    ASSERT_NE(row, nullptr);
    ASSERT_NE(event, nullptr);
    // Every row field is in the event, with the same value.
    for (const auto& [key, value] : row->fields) {
      const JsonValue* mirrored = event->Find(key);
      ASSERT_NE(mirrored, nullptr) << key;
      EXPECT_EQ(mirrored->kind, value.kind) << key;
      EXPECT_EQ(mirrored->number, value.number) << key;
      EXPECT_EQ(mirrored->string, value.string) << key;
    }
    for (const char* key : {"tiles_gathered", "container_allocs",
                            "alloc_bytes"}) {
      EXPECT_EQ(event->Find(key), nullptr) << key;
    }
    sequences.insert(event->U64Field("sequence", 0));
  }
  EXPECT_EQ(sequences.size(), 2u);
  EXPECT_EQ(FindAuditRecord(*queryz, "retire-final")->Find("outcome")->string,
            "finalized");
  EXPECT_EQ(FindAuditRecord(*queryz, "retire-aband")->Find("outcome")->string,
            "abandoned");

  // The event keeps the whole label; the row keeps its first 28 bytes.
  EXPECT_NE(event_for(long_label), nullptr);
  EXPECT_NE(FindAuditRecord(*queryz, long_label.substr(0, 28)), nullptr);
}

}  // namespace
}  // namespace serve
}  // namespace qdcbir
