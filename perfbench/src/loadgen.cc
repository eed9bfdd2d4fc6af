// Session-level load generator for `qdcbir_tool serve`.
//
//   qdcbir_loadgen --workload=paper_serial --seed=1 --seconds=10 --trace=0
//                  --tool=<qdcbir_tool> --trace-check=<trace_check>
//                  --db=<snapshot> --rfs=<rfs> --out-dir=<dir>
//                  [--git-sha=<sha>] [--smoke=1]
//
// Spawns the server several times to time set-up (spawn to the first
// /readyz 200), drives relevance-feedback sessions over keep-alive HTTP
// (picks made by eval::OracleUser against eval::BuildGroundTruth), stops
// the server, and replays every session in-process through QdSession to
// check the server's rankings. Prints a stamp line, then one JSON result
// line: {"correct", "attempted", "failed", "metrics"}. --trace=0 reports
// the end-to-end metrics; --trace=1 records spans around every client
// request and replayed layer call and reports the per-layer metrics.
// Exits non-zero when any request failed or any ranking differs.

#include <dirent.h>
#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "http_client.h"
#include "qdcbir/core/distance_kernels.h"
#include "qdcbir/core/thread_pool.h"
#include "qdcbir/dataset/database_io.h"
#include "qdcbir/eval/metrics.h"
#include "qdcbir/eval/oracle.h"
#include "qdcbir/obs/metrics.h"
#include "qdcbir/rfs/rfs_serialization.h"
#include "qdcbir/serve/json_mini.h"
#include "qdcbir/serve/serve_app.h"
#include "replay.h"
#include "report.h"
#include "workload.h"

extern char** environ;

namespace perfbench {
namespace {

using qdcbir::serve::JsonValue;

// ---------------------------------------------------------------- utilities

std::uint64_t Now() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Sleeps until shortly before `ns`, then spins: a plain sleep wakes tens
/// of microseconds late, which would count as server latency.
void SleepUntil(std::uint64_t ns) {
  constexpr std::uint64_t kSpinNs = 300000;
  const std::uint64_t now = Now();
  if (ns > now + kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(ns - now - kSpinNs));
  }
  while (Now() < ns) {
  }
}

/// Restricts the calling thread, and the threads and processes it starts
/// afterwards, to `cpus`.
bool PinTo(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

/// The CPUs this process may run on.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

std::string Flag(int argc, char** argv, const std::string& name,
                 const std::string& fallback) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return fallback;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Image ids of a JSON array; empty when `array` is absent.
std::vector<ImageId> Ids(const JsonValue* array) {
  std::vector<ImageId> ids;
  if (array == nullptr) return ids;
  for (const JsonValue& item : array->items) {
    ids.push_back(static_cast<ImageId>(item.number));
  }
  return ids;
}

/// The `"display"` groups of a query/feedback reply.
std::vector<DisplayGroup> Display(const JsonValue& reply) {
  std::vector<DisplayGroup> groups;
  if (const JsonValue* display = reply.Find("display")) {
    for (const JsonValue& item : display->items) {
      DisplayGroup group;
      group.node = static_cast<qdcbir::NodeId>(item.U64Field("node", 0));
      group.images = Ids(item.Find("images"));
      groups.push_back(std::move(group));
    }
  }
  return groups;
}

std::string IdsJson(const std::vector<ImageId>& ids) {
  std::string out = "[";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += std::to_string(ids[i]);
  }
  return out + "]";
}

// ------------------------------------------------------- the server process

/// Sum of a /proc status field over every thread of `pid`.
std::uint64_t SumTaskStatusField(int pid, const char* field) {
  std::uint64_t total = 0;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (dirent* entry = readdir(d)) {
    if (entry->d_name[0] == '.') continue;
    std::ifstream in(dir + "/" + entry->d_name + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind(field, 0) == 0) {
        total += std::strtoull(line.c_str() + std::strlen(field), nullptr, 10);
      }
    }
  }
  closedir(d);
  return total;
}

struct ProcSample {
  double cpu_ms = 0.0;
  std::uint64_t ctx_switches = 0;
};

ProcSample SampleProc(int pid) {
  ProcSample sample;
  const std::string stat = ReadFile("/proc/" + std::to_string(pid) + "/stat");
  const std::size_t close = stat.rfind(')');
  if (close != std::string::npos) {
    std::istringstream fields(stat.substr(close + 2));
    std::string field;
    // After the command: state is field 3; utime and stime are 14 and 15.
    std::vector<std::string> values;
    while (fields >> field) values.push_back(field);
    if (values.size() > 12) {
      const double ticks = std::strtod(values[11].c_str(), nullptr) +
                           std::strtod(values[12].c_str(), nullptr);
      sample.cpu_ms = ticks * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
    }
  }
  sample.ctx_switches = SumTaskStatusField(pid, "voluntary_ctxt_switches:") +
                        SumTaskStatusField(pid, "nonvoluntary_ctxt_switches:");
  return sample;
}

/// Machine-wide CPU time (`total`) and the part of it the hypervisor gave
/// to other guests (`steal`), in ticks, from the first line of /proc/stat.
struct CpuTicks {
  double total = 0.0;
  double steal = 0.0;
};

CpuTicks SampleCpuTicks() {
  std::istringstream fields(ReadFile("/proc/stat"));
  std::string cpu;
  fields >> cpu;
  CpuTicks ticks;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8; ++i) {
    double v = 0.0;
    fields >> v;
    ticks.total += v;
    if (i == 7) ticks.steal = v;
  }
  return ticks;
}

double PeakRssMb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Starts `args` with stdout and stderr appended to `log`; -1 on failure.
pid_t Spawn(const std::vector<std::string>& args, const std::string& log) {
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  return rc == 0 ? pid : -1;
}

/// Runs `args` to completion; its exit status, or -1.
int RunProcess(const std::vector<std::string>& args, const std::string& log) {
  const pid_t pid = Spawn(args, log);
  if (pid < 0) return -1;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// The running server, for the signal handler: a load generator told to
/// stop (SIGTERM, SIGINT) takes its server down with it.
std::atomic<pid_t> g_server_pid{-1};

void StopOnSignal(int) {
  const pid_t pid = g_server_pid.load();
  if (pid > 0) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
  }
  _exit(1);
}

/// A `qdcbir_tool serve` child with default flags. The destructor stops it
/// and waits for it, so no exit path leaves a server behind.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns and waits for /readyz 200. Returns seconds from spawn to ready,
  /// or a negative value on failure.
  double Start(const std::string& tool, const std::string& db,
               const std::string& rfs, const std::string& dir) {
    const std::string port_file = dir + "/server.port";
    std::remove(port_file.c_str());
    const std::uint64_t t0 = Now();
    pid_ = Spawn({tool, "serve", "--db=" + db, "--rfs=" + rfs, "--port=0",
                  "--port-file=" + port_file},
                 dir + "/server.log");
    if (pid_ < 0) return -1.0;
    g_server_pid.store(pid_);
    const std::uint64_t deadline = t0 + 120ull * 1000000000ull;
    while (port_ == 0) {
      if (Now() > deadline || Exited()) return -1.0;
      const std::string text = ReadFile(port_file);
      if (!text.empty() && text.back() == '\n') port_ = std::atoi(text.c_str());
      if (port_ == 0) std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    HttpConnection probe(port_);
    const std::string readyz = HttpConnection::BuildRequest("GET", "/readyz", "");
    for (;;) {
      if (probe.Send(readyz).status == 200) break;
      if (Now() > deadline || Exited()) return -1.0;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    return (Now() - t0) / 1e9;
  }

  void Stop() {
    if (pid_ <= 0) return;
    g_server_pid.store(-1);
    kill(pid_, SIGTERM);
    const std::uint64_t deadline = Now() + 20ull * 1000000000ull;
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (Now() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    port_ = 0;
  }

  int pid() const { return pid_; }
  int port() const { return port_; }

  /// One request on a fresh connection (closed afterwards, so it holds no
  /// server HTTP lane).
  HttpReply Get(const std::string& target) const {
    HttpConnection conn(port_);
    return conn.Send(HttpConnection::BuildRequest("GET", target, ""));
  }

 private:
  /// True (and forgets the child) when the server has already exited.
  bool Exited() {
    if (waitpid(pid_, nullptr, WNOHANG) == 0) return false;
    g_server_pid.store(-1);
    pid_ = -1;
    return true;
  }

  pid_t pid_ = -1;
  int port_ = 0;
};

// ------------------------------------------------------------- the clients

struct RunContext {
  WorkloadSpec spec;
  bool trace = false;
  const std::vector<qdcbir::QueryGroundTruth>* targets = nullptr;
  const std::vector<SessionPlan>* plans = nullptr;
  std::uint64_t window_start_ns = 0;
  std::uint64_t window_end_ns = 0;
  int client_cpu = -1;  ///< >= 0: client threads run on this CPU only
};

/// Per-connection state of the load phase.
struct Client {
  explicit Client(int port) : conn(port) {}
  HttpConnection conn;
  int index = 0;
  std::vector<SessionRecord> sessions;
  std::vector<RequestRecord> probes;  ///< requests outside any session
  std::vector<Span> spans;
  std::vector<double> gen_lag_ms;
  std::size_t reps_sent = 0;
};

/// Thumbnail bodies kept for the render check: every Nth /api/rep reply.
constexpr std::size_t kThumbnailSampleEvery = 16;
constexpr std::size_t kThumbnailSamplesPerClient = 64;
constexpr int kMaxPicksPerRound = 10;  // eval::ProtocolOptions defaults
constexpr int kBrowseBudget = 40;
constexpr int kFeedbackRounds = 3;
constexpr std::size_t kResultThumbnails = 21;
/// Traced runs record spans, and keep the raw API bytes for the codec
/// timings, for the first sessions of the schedule only: spans of a whole
/// run would take hundreds of MB.
constexpr std::size_t kTracedSessions = 200;

/// Sends one request and records it. The reply body goes to `*body` when
/// given; `keep_raw` also keeps the request and reply bytes.
RequestRecord Exchange(Client& client, RequestKind kind,
                       const std::string& request, std::uint64_t due_ns,
                       std::uint64_t parent_span, std::uint64_t session_seed,
                       bool keep_raw, std::string* body) {
  RequestRecord r;
  r.kind = kind;
  r.send_ns = Now();
  r.due_ns = due_ns != 0 ? due_ns : r.send_ns;
  HttpReply reply = client.conn.Send(request);
  r.recv_ns = Now();
  r.status = reply.status;
  r.wire_bytes = static_cast<std::uint32_t>(reply.wire_bytes);
  if (parent_span != 0) {
    r.span_id = NextSpanId();
    static const char* const kNames[] = {"client.query", "client.feedback",
                                         "client.finalize", "client.rep",
                                         "client.healthz"};
    client.spans.push_back({kNames[static_cast<int>(kind)], client.index,
                            r.span_id, parent_span, session_seed, r.send_ns,
                            r.recv_ns});
  }
  if (kind == RequestKind::kRep) {
    keep_raw = keep_raw || (client.reps_sent++ % kThumbnailSampleEvery == 0 &&
                            client.reps_sent / kThumbnailSampleEvery <
                                kThumbnailSamplesPerClient);
  }
  if (keep_raw || kind == RequestKind::kQuery ||
      kind == RequestKind::kFeedback || kind == RequestKind::kFinalize) {
    r.detail = std::make_unique<RequestDetail>();
  }
  if (keep_raw) {
    r.detail->raw_request = request;
    r.detail->raw_body = reply.body;
  }
  if (body != nullptr) *body = std::move(reply.body);
  return r;
}

RequestRecord FetchRep(Client& client, ImageId id, std::uint64_t parent_span,
                       std::uint64_t session_seed) {
  RequestRecord r = Exchange(
      client, RequestKind::kRep,
      HttpConnection::BuildRequest("GET", "/api/rep?id=" + std::to_string(id), ""),
      0, parent_span, session_seed, false, nullptr);
  r.rep_id = id;
  return r;
}

/// One relevance-feedback session: open, "Random" presses until the oracle
/// sees a relevant image, three feedback rounds, finalize.
void RunSession(Client& client, const RunContext& ctx, SessionRecord& s) {
  const qdcbir::QueryGroundTruth& gt = (*ctx.targets)[s.plan.target];
  s.k = ctx.spec.k_is_ground_truth ? gt.size() : 0;
  s.span_id = ctx.trace && s.index < kTracedSessions ? NextSpanId() : 0;
  const bool keep_raw = ctx.trace && s.index < kTracedSessions;
  qdcbir::OracleOptions oracle_options;
  oracle_options.seed = s.plan.seed;
  qdcbir::OracleUser oracle(oracle_options);

  JsonValue reply;
  auto api = [&](RequestKind kind, const std::string& target,
                 const std::string& json, std::uint64_t due) -> RequestRecord& {
    std::string body;
    s.requests.push_back(Exchange(client, kind,
                                  HttpConnection::BuildRequest("POST", target, json),
                                  due, s.span_id, s.plan.seed, keep_raw, &body));
    RequestRecord& r = s.requests.back();
    if (r.ok()) {
      qdcbir::StatusOr<JsonValue> parsed = qdcbir::serve::ParseJson(body);
      if (parsed.ok() && parsed->is_object()) {
        reply = std::move(parsed).value();
      } else {
        r.status = 0;  // a 2xx reply that is not a JSON object fails too
      }
    }
    if (!r.ok()) s.failed = true;
    return r;
  };
  auto thumbnails = [&](const std::vector<ImageId>& ids, std::size_t limit) {
    if (!ctx.spec.gui_thumbnails) return;
    for (std::size_t i = 0; i < ids.size() && i < limit; ++i) {
      s.requests.push_back(FetchRep(client, ids[i], s.span_id, s.plan.seed));
      if (!s.requests.back().ok()) s.failed = true;
    }
  };
  auto keep_display = [&](RequestRecord& r) {
    r.detail->display = Display(reply);
    return FlattenDisplay(r.detail->display);
  };

  RequestRecord& open =
      api(RequestKind::kQuery, "/api/query",
          "{\"seed\":" + std::to_string(s.plan.seed) + ",\"label\":\"perfbench\"}",
          s.due_ns);
  if (s.failed) return;
  if (ctx.spec.open_loop) client.gen_lag_ms.push_back((open.send_ns - s.due_ns) / 1e6);
  s.server_session = reply.U64Field("session", 0);
  std::vector<ImageId> shown = keep_display(open);
  thumbnails(shown, shown.size());
  const std::string session_field =
      "{\"session\":" + std::to_string(s.server_session) + ",\"relevant\":";

  int rounds = 0;
  int presses = 0;
  for (;;) {
    std::vector<ImageId> picks =
        oracle.SelectRelevant(shown, gt, kMaxPicksPerRound);
    if (rounds == 0 && picks.empty()) {
      if (presses < kBrowseBudget) {
        ++presses;
      } else {
        // Nothing relevant within the budget: mark one displayed image so
        // the session can still finalize.
        picks.push_back(shown.front());
        s.settled = true;
      }
    }
    if (rounds == 0 && picks.empty()) {
      RequestRecord& r = api(RequestKind::kFeedback, "/api/feedback",
                             session_field + "[]}", 0);
      if (s.failed) return;
      shown = keep_display(r);
      thumbnails(shown, shown.size());
      continue;
    }
    if (rounds < kFeedbackRounds) {
      RequestRecord& r = api(RequestKind::kFeedback, "/api/feedback",
                             session_field + IdsJson(picks) + "}", 0);
      r.detail->picks = picks;
      if (s.failed) return;
      ++rounds;
      shown = keep_display(r);
      thumbnails(shown, shown.size());
      continue;
    }
    const std::string k = s.k > 0 ? std::to_string(s.k) : "true";
    RequestRecord& r = api(RequestKind::kFinalize, "/api/feedback",
                           session_field + IdsJson(picks) + ",\"finalize\":" + k + "}",
                           0);
    r.detail->picks = picks;
    s.finalize_reply_ns = r.recv_ns;
    if (s.failed) return;
    s.results = Ids(reply.Find("results"));
    s.rounds_ns = reply.U64Field("rounds_ns", 0);
    s.finalize_ns = reply.U64Field("finalize_ns", 0);
    s.finalized = true;
    break;
  }
  thumbnails(s.results, kResultThumbnails);
  if (s.span_id != 0) {
    client.spans.push_back({"client.session", client.index, s.span_id, 0,
                            s.plan.seed, s.requests.front().send_ns,
                            s.requests.back().recv_ns});
  }
}

/// The load phase on every connection; each client keeps its records.
void DriveLoad(std::vector<std::unique_ptr<Client>>& clients,
               const RunContext& ctx, std::uint64_t run_start,
               const std::vector<std::uint64_t>& arrivals) {
  std::atomic<std::size_t> next{0};
  auto loop = [&](Client& client) {
    if (ctx.client_cpu >= 0) PinTo({ctx.client_cpu});
    for (;;) {
      std::uint64_t due = 0;
      if (!ctx.spec.open_loop && Now() >= ctx.window_end_ns) break;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= ctx.plans->size()) break;
      if (ctx.spec.open_loop) {
        if (i >= arrivals.size()) break;
        due = run_start + arrivals[i];
        SleepUntil(due);
      }
      SessionRecord s;
      s.index = i;
      s.plan = (*ctx.plans)[i];
      s.due_ns = due;
      RunSession(client, ctx, s);
      if (s.due_ns == 0 && !s.requests.empty()) s.due_ns = s.requests.front().due_ns;
      client.sessions.push_back(std::move(s));
    }
  };
  std::vector<std::thread> threads;
  for (auto& client : clients) threads.emplace_back(loop, std::ref(*client));
  for (std::thread& t : threads) t.join();
}

/// Requests on every connection in parallel: `/api/rep` for each of
/// `rep_ids` (dealt round-robin), or `healthz_each` `/healthz` per client.
void Probe(std::vector<std::unique_ptr<Client>>& clients, int client_cpu,
           RequestKind kind, const std::vector<ImageId>& rep_ids,
           std::size_t healthz_each = 0) {
  std::vector<std::thread> threads;
  for (auto& c : clients) {
    threads.emplace_back([&, client = c.get()] {
      if (client_cpu >= 0) PinTo({client_cpu});
      if (kind == RequestKind::kRep) {
        for (std::size_t j = client->index; j < rep_ids.size(); j += clients.size()) {
          client->probes.push_back(FetchRep(*client, rep_ids[j], 0, 0));
        }
        return;
      }
      const std::string healthz = HttpConnection::BuildRequest("GET", "/healthz", "");
      for (std::size_t j = 0; j < healthz_each; ++j) {
        client->probes.push_back(
            Exchange(*client, RequestKind::kHealthz, healthz, 0, 0, 0, false, nullptr));
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

/// Counter/gauge value of a Prometheus sample line `name value`.
double PromValue(const std::string& text, const std::string& name) {
  std::size_t pos = 0;
  while ((pos = text.find(name + " ", pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n') {
      return std::strtod(text.c_str() + pos + name.size() + 1, nullptr);
    }
    pos += name.size();
  }
  return 0.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

int Main(int argc, char** argv) {
  const std::string workload = Flag(argc, argv, "workload", "");
  const std::uint64_t seed = std::strtoull(Flag(argc, argv, "seed", "1").c_str(), nullptr, 10);
  const double seconds = std::strtod(Flag(argc, argv, "seconds", "10").c_str(), nullptr);
  const bool trace = Flag(argc, argv, "trace", "0") == "1";
  const bool smoke = Flag(argc, argv, "smoke", "0") == "1";
  const std::string tool = Flag(argc, argv, "tool", "");
  const std::string trace_check = Flag(argc, argv, "trace-check", "");
  const std::string db_path = Flag(argc, argv, "db", "");
  const std::string rfs_path = Flag(argc, argv, "rfs", "");
  const std::string out_dir = Flag(argc, argv, "out-dir", ".");
  const std::string git_sha = Flag(argc, argv, "git-sha", "unknown");
  // Set-up is timed before and after the load, so its median spans the run:
  // server start-up is parallel, and how fast idle vCPUs wake for it drifts
  // with the host's load over tens of seconds.
  constexpr int kSetupRunsBefore = 20;
  constexpr int kSetupRunsAfter = 21;

  std::signal(SIGTERM, StopOnSignal);
  std::signal(SIGINT, StopOnSignal);

  WorkloadSpec spec;
  if (!FindWorkload(workload, &spec)) {
    std::fprintf(stderr, "unknown --workload=%s\n", workload.c_str());
    return 2;
  }
  if (tool.empty() || db_path.empty() || rfs_path.empty() || seconds <= 0) {
    std::fprintf(stderr, "need --tool, --db, --rfs and --seconds > 0\n");
    return 2;
  }
  if (smoke) {
    spec.warmup_s = 0.5;
    spec.precision_sessions = std::min<std::size_t>(spec.precision_sessions, 10);
  }
  const std::string tag = workload + "-seed" + std::to_string(seed) +
                          (trace ? "-trace" : "") + (smoke ? "-smoke" : "");

  std::uint64_t phase_ns = Now();
  auto phase = [&](const char* name) {
    const std::uint64_t now = Now();
    std::fprintf(stderr, "[perfbench] %-10s %.2f s\n", name, (now - phase_ns) / 1e9);
    phase_ns = now;
  };

  // The corpus in-process: ground truth for the oracle, and the replay.
  qdcbir::ThreadPool pool(0);
  qdcbir::SnapshotLoadOptions load_options;
  load_options.pool = &pool;
  std::vector<double> dataset_load_s, rfs_load_s;
  std::uint64_t t0 = Now();
  auto db = qdcbir::DatabaseIo::LoadDatabase(db_path, load_options);
  dataset_load_s.push_back((Now() - t0) / 1e9);
  t0 = Now();
  auto rfs = qdcbir::RfsSerializer::LoadFromFile(rfs_path);
  rfs_load_s.push_back((Now() - t0) / 1e9);
  if (!db.ok() || !rfs.ok()) {
    std::fprintf(stderr, "cannot load the corpus: %s %s\n",
                 db.status().ToString().c_str(), rfs.status().ToString().c_str());
    return 1;
  }
  if (!smoke && db->size() != spec.images) {
    std::fprintf(stderr, "%s needs a %zu-image corpus, %s has %zu\n",
                 workload.c_str(), spec.images, db_path.c_str(), db->size());
    return 1;
  }
  phase("corpus");
  auto targets = BuildTargets(*db, spec);
  if (!targets.ok()) {
    std::fprintf(stderr, "%s\n", targets.status().ToString().c_str());
    return 1;
  }
  const std::vector<SessionPlan> plans =
      PlanSessions(spec, seed, 1u << 20, targets->size());

  // The servers inherit this thread's CPUs (see WorkloadSpec::isolate_client).
  const std::vector<int> cpus = AllowedCpus();
  int client_cpu = -1;
  if (spec.isolate_client && cpus.size() >= 2 &&
      PinTo(std::vector<int>(cpus.begin() + 1, cpus.end()))) {
    client_cpu = cpus.front();
  }

  // Set-up: spawn to first /readyz 200, several times; the last server
  // stays up for the load.
  std::ofstream(out_dir + "/server.log", std::ios::trunc);
  std::vector<double> setup_s;
  auto time_setup = [&](ServerProcess& process) {
    const double s = process.Start(tool, db_path, rfs_path, out_dir);
    if (s < 0) {
      std::fprintf(stderr, "server did not become ready (see %s/server.log)\n",
                   out_dir.c_str());
      return false;
    }
    setup_s.push_back(s);
    return true;
  };
  ServerProcess server;
  for (int r = 0; r < kSetupRunsBefore; ++r) {
    if (r > 0) server.Stop();
    if (!time_setup(server)) return 1;
  }
  phase("setup");
  // Build info for the stamp: /varz is {"build":{"git","build_type","obs",...},...}.
  const qdcbir::StatusOr<JsonValue> varz =
      qdcbir::serve::ParseJson(server.Get("/varz").body);
  const JsonValue* build_info = varz.ok() ? varz->Find("build") : nullptr;
  auto build_field = [&](const char* key) {
    const JsonValue* v = build_info != nullptr ? build_info->Find(key) : nullptr;
    return v != nullptr ? v->string : std::string("unknown");
  };
  const qdcbir::serve::ServeOptions serve_defaults;

  RunContext ctx;
  ctx.spec = spec;
  ctx.trace = trace;
  ctx.targets = &*targets;
  ctx.plans = &plans;
  ctx.client_cpu = client_cpu;
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < spec.connections; ++c) {
    clients.push_back(std::make_unique<Client>(server.port()));
    clients.back()->index = c;
  }
  const std::uint64_t run_start = Now();
  ctx.window_start_ns = run_start + static_cast<std::uint64_t>(spec.warmup_s * 1e9);
  ctx.window_end_ns = ctx.window_start_ns + static_cast<std::uint64_t>(seconds * 1e9);
  const std::vector<std::uint64_t> arrivals =
      spec.open_loop ? ArrivalSchedule(spec, seed, spec.warmup_s + seconds)
                     : std::vector<std::uint64_t>();

  ProcSample proc_start, proc_end;
  CpuTicks cpu_start, cpu_end;
  std::thread proc_sampler([&] {
    SleepUntil(ctx.window_start_ns);
    proc_start = SampleProc(server.pid());
    cpu_start = SampleCpuTicks();
    SleepUntil(ctx.window_end_ns);
    proc_end = SampleProc(server.pid());
    cpu_end = SampleCpuTicks();
  });
  DriveLoad(clients, ctx, run_start, arrivals);
  proc_sampler.join();
  phase("load");

  std::vector<SessionRecord> sessions;
  for (auto& client : clients) {
    for (SessionRecord& s : client->sessions) sessions.push_back(std::move(s));
    client->sessions.clear();
  }
  std::sort(sessions.begin(), sessions.end(),
            [](const SessionRecord& a, const SessionRecord& b) {
              return a.index < b.index;
            });

  // Thumbnail latency for workloads whose sessions fetch none: one fetch
  // each of a fixed stride sample of the corpus, so every probe is a cold
  // render of the same images whatever the seed.
  if (!spec.gui_thumbnails) {
    const std::size_t probes = std::min<std::size_t>(smoke ? 60 : 3000, db->size());
    std::vector<ImageId> ids;
    for (std::size_t j = 0; j < probes; ++j) {
      ids.push_back(static_cast<ImageId>(j * db->size() / probes));
    }
    Probe(clients, client_cpu, RequestKind::kRep, ids);
  }
  if (trace) Probe(clients, client_cpu, RequestKind::kHealthz, {}, 200);
  for (auto& client : clients) client->conn.Close();
  // Every server HTTP lane was held by a load connection; scrape only now.
  const std::string prom = trace ? server.Get("/metrics").body : "";
  const double rss_mb = PeakRssMb(server.pid());
  phase("probes");
  server.Stop();
  for (int r = 0; r < kSetupRunsAfter; ++r) {
    ServerProcess again;
    if (!time_setup(again)) return 1;
  }
  phase("stop");

  // ------------------------------------------------------ correctness
  const int replay_threads = spec.connections;
  if (trace) qdcbir::obs::MetricsRegistry::Global().Reset();
  const ReplayResult replay =
      ReplaySessions(*rfs, sessions, replay_threads, pool, trace);
  std::vector<const RequestRecord*> reps;
  for (const SessionRecord& s : sessions) {
    for (const RequestRecord& r : s.requests) reps.push_back(&r);
  }
  for (auto& client : clients) {
    for (const RequestRecord& r : client->probes) reps.push_back(&r);
  }
  const ThumbnailCheck thumbnails = CheckThumbnails(*db, reps);
  phase("replay");

  // ------------------------------------------------------ end to end
  // Every figure covers all samples of the measured window.
  std::size_t attempted = 0, failed_requests = 0;
  std::vector<double> session_ms, round_ms, finalize_ms, rep_ms;
  std::size_t completed_in_window = 0, settled = 0;
  std::vector<double> outside_share, finalize_outside_us;
  std::vector<double> finalize_bytes, rep_bytes;
  auto in_window = [&](std::uint64_t ns) {
    return ns >= ctx.window_start_ns && ns < ctx.window_end_ns;
  };
  for (const SessionRecord& s : sessions) {
    const bool measured = in_window(s.due_ns);
    if (s.settled) ++settled;
    if (s.finalized && in_window(s.finalize_reply_ns)) ++completed_in_window;
    for (const RequestRecord& r : s.requests) {
      ++attempted;
      if (!r.ok()) ++failed_requests;
      if (r.kind == RequestKind::kFinalize) finalize_bytes.push_back(r.wire_bytes);
      if (r.kind == RequestKind::kRep) rep_bytes.push_back(r.wire_bytes);
      if (!measured || !r.ok()) continue;
      switch (r.kind) {
        case RequestKind::kQuery:
        case RequestKind::kFeedback:
          round_ms.push_back(r.latency_ms());
          break;
        case RequestKind::kFinalize:
          finalize_ms.push_back(r.latency_ms());
          // The finalize request also runs the round's Feedback, which the
          // server counts in rounds_ns, so this includes that round.
          finalize_outside_us.push_back((r.recv_ns - r.send_ns) / 1e3 -
                                        s.finalize_ns / 1e3);
          break;
        case RequestKind::kRep:
          rep_ms.push_back(r.latency_ms());
          break;
        case RequestKind::kHealthz: break;
      }
    }
    if (measured && s.finalized) {
      // The time the session waited on the server: its requests' latencies
      // from open through the finalize reply, display thumbnails included.
      // The client's own work between requests is left out, so a busy
      // client does not count as a slow server.
      double ms = 0.0;
      for (const RequestRecord& r : s.requests) {
        if (r.send_ns <= s.finalize_reply_ns) ms += r.latency_ms();
      }
      session_ms.push_back(ms);
      outside_share.push_back(1.0 - (s.rounds_ns + s.finalize_ns) / 1e6 / ms);
    }
  }
  std::vector<double> healthz_us;
  for (auto& client : clients) {
    for (const RequestRecord& r : client->probes) {
      ++attempted;
      if (!r.ok()) ++failed_requests;
      if (r.kind == RequestKind::kRep && r.ok()) {
        rep_ms.push_back(r.latency_ms());
        rep_bytes.push_back(r.wire_bytes);
      }
      if (r.kind == RequestKind::kHealthz) healthz_us.push_back((r.recv_ns - r.send_ns) / 1e3);
    }
  }
  const std::size_t mismatches = replay.mismatched.size() + thumbnails.mismatches;
  const std::size_t failed = failed_requests + mismatches;

  std::vector<double> precision;
  for (const SessionRecord& s : sessions) {
    if (s.index >= spec.precision_sessions) break;
    if (!s.finalized) continue;
    precision.push_back(
        qdcbir::ComputePrecisionRecall(s.results, (*targets)[s.plan.target]).precision);
  }

  if (precision.size() < spec.precision_sessions) {
    std::fprintf(stderr,
                 "warning: precision_mean covers %zu sessions, not %zu: the "
                 "run finished fewer, so it is not comparable across builds\n",
                 precision.size(), spec.precision_sessions);
  }

  std::vector<Metric> metrics;
  bool correct = failed == 0 && attempted > 0 && session_ms.size() > 0 &&
                 rep_ms.size() > 0 && replay.sessions_checked > 0;
  if (!trace) {
    metrics = {
        {"finalize_p50_ms", Percentile(finalize_ms, 50), "ms"},
        {"rep_p50_ms", Percentile(rep_ms, 50), "ms"},
        {"ok_share", 1.0 - Ratio(failed, attempted), "ratio"},
        {"precision_mean", Mean(precision), "ratio"},
        {"setup_s", Median(setup_s), "s"},
        {"rss_peak_mb", rss_mb, "MB"},
    };
  } else {
    // Extra loads for the load-time medians.
    for (int r = 1; r < kSetupRunsBefore; ++r) {
      t0 = Now();
      const bool db_ok = qdcbir::DatabaseIo::LoadDatabase(db_path, load_options).ok();
      dataset_load_s.push_back((Now() - t0) / 1e9);
      t0 = Now();
      const bool rfs_ok = qdcbir::RfsSerializer::LoadFromFile(rfs_path).ok();
      rfs_load_s.push_back((Now() - t0) / 1e9);
      correct = correct && db_ok && rfs_ok;
    }
    const double task_wait_p50_us =
        qdcbir::obs::MetricsRegistry::Global()
            .GetHistogram("pool.task.wait_ns")
            .Snap()
            .p50 / 1e3;
    const FinalizeVariants variants =
        MeasureFinalizeVariants(*rfs, sessions, smoke ? 20 : 200, pool);
    const CodecTimes codecs = MeasureCodecs(sessions);
    const double healthz_p50_us = Percentile(healthz_us, 50);
    const double finalize_outside = Percentile(finalize_outside_us, 50);
    std::vector<double> gen_lag;
    for (auto& client : clients) {
      gen_lag.insert(gen_lag.end(), client->gen_lag_ms.begin(), client->gen_lag_ms.end());
    }
    auto hit_ratio = [&](const std::string& kind) {
      const double hit = PromValue(prom, "qdcbir_cache_" + kind + "_hit");
      const double miss = PromValue(prom, "qdcbir_cache_" + kind + "_miss");
      return Ratio(hit, hit + miss);
    };
    const double window_sessions = std::max<double>(1.0, completed_in_window);
    metrics = {
        {"http.healthz_rtt_p50_us", healthz_p50_us, "us"},
        {"http.parse_us", Percentile(codecs.parse_us, 50), "us"},
        {"http.serialize_us", Percentile(codecs.serialize_us, 50), "us"},
        {"http.finalize_response_bytes", Mean(finalize_bytes), "bytes"},
        {"http.rep_response_bytes", Mean(rep_bytes), "bytes"},
        {"serve.json_parse_us", Percentile(codecs.json_parse_us, 50), "us"},
        {"serve.finalize_outside_engine_us", finalize_outside, "us"},
        {"serve.handler_overhead_us", finalize_outside - healthz_p50_us, "us"},
        {"serve.session_outside_engine_share", Percentile(outside_share, 50), "ratio"},
        {"query.start_us_p50", Percentile(replay.start_us, 50), "us"},
        {"query.start_us_p99", Percentile(replay.start_us, 99), "us"},
        {"query.feedback_us_p50", Percentile(replay.feedback_us, 50), "us"},
        {"query.feedback_us_p99", Percentile(replay.feedback_us, 99), "us"},
        {"query.finalize_us_p50", Percentile(replay.finalize_us, 50), "us"},
        {"query.finalize_us_p99", Percentile(replay.finalize_us, 99), "us"},
        {"query.subqueries_per_session", Mean(replay.subqueries), "count"},
        {"query.expanded_subqueries_per_session", Mean(replay.expanded_subqueries), "count"},
        {"query.knn_candidates_per_session", Mean(replay.knn_candidates), "count"},
        {"core.distance_evals_per_session", Mean(replay.distance_evals), "count"},
        {"core.feature_bytes_per_session", Mean(replay.feature_bytes), "bytes"},
        {"core.tiles_gathered_per_session", Mean(replay.tiles_gathered), "count"},
        {"core.alloc_bytes_per_session", Mean(replay.alloc_bytes), "bytes"},
        {"pool.finalize_fanout_speedup", Ratio(variants.one_lane_ms, variants.pool_ms), "x"},
        {"pool.task_wait_p50_us", task_wait_p50_us, "us"},
        {"cache.leaf_scan.hit_ratio", hit_ratio("leaf_scan"), "ratio"},
        {"cache.topk.hit_ratio", hit_ratio("topk"), "ratio"},
        {"cache.representatives.hit_ratio", hit_ratio("representatives"), "ratio"},
        {"cache.evictions", PromValue(prom, "qdcbir_cache_evictions"), "count"},
        {"cache.bytes_highwater_mb", PromValue(prom, "qdcbir_cache_bytes_highwater") / (1 << 20), "MB"},
        {"cache.finalize_overhead_us",
         Ratio(variants.cached_ms - variants.pool_ms, variants.sessions) * 1e3, "us"},
        {"dataset.load_s", Median(dataset_load_s), "s"},
        {"rfs.load_s", Median(rfs_load_s), "s"},
        {"proc.cpu_ms_per_session", (proc_end.cpu_ms - proc_start.cpu_ms) / window_sessions, "ms"},
        {"proc.ctx_switches_per_session",
         (static_cast<double>(proc_end.ctx_switches) - static_cast<double>(proc_start.ctx_switches)) /
             window_sessions,
         "count"},
        // Client-side figures without a bound: their spread across runs
        // was wider than the largest bound allowed (see README.md).
        {"client.session_p50_ms", Percentile(session_ms, 50), "ms"},
        {"client.round_p50_ms", Percentile(round_ms, 50), "ms"},
        {"client.finalize_p90_ms", Percentile(finalize_ms, 90), "ms"},
        {"client.sessions_per_s", completed_in_window / seconds, "1/s"},
        {"client.session_p90_ms", Percentile(session_ms, 90), "ms"},
        {"client.round_p90_ms", Percentile(round_ms, 90), "ms"},
        {"client.rep_p90_ms", Percentile(rep_ms, 90), "ms"},
        {"client.session_p99_ms", Percentile(session_ms, 99), "ms"},
        {"client.round_p99_ms", Percentile(round_ms, 99), "ms"},
        {"client.finalize_p99_ms", Percentile(finalize_ms, 99), "ms"},
        {"client.rep_p99_ms", Percentile(rep_ms, 99), "ms"},
        {"client.gen_lag_p99_ms", Percentile(gen_lag, 99), "ms"},
        {"client.settled_sessions", static_cast<double>(settled), "count"},
    };

    // Spans: written once, validated by the repository's trace_check.
    std::vector<Span> spans = replay.spans;
    spans.insert(spans.end(), codecs.spans.begin(), codecs.spans.end());
    for (auto& client : clients) {
      spans.insert(spans.end(), client->spans.begin(), client->spans.end());
    }
    const std::string trace_path = out_dir + "/trace-" + tag + ".json";
    std::string layers;
    if (!WriteChromeTrace(trace_path, spans)) {
      correct = false;
    } else if (!trace_check.empty()) {
      const int rc = RunProcess(
          {trace_check, "--trace=" + trace_path, "--require-span=client.session",
           "--require-span=client.finalize", "--require-span=query.finalize",
           "--require-span=http.parse"},
          out_dir + "/trace_check.log");
      if (rc != 0) {
        std::fprintf(stderr, "trace_check rejected %s (see trace_check.log)\n",
                     trace_path.c_str());
        correct = false;
      }
    }
    char line[512];
    layers += "span self times (benchmark-side spans)\n";
    std::snprintf(line, sizeof(line), "  %-22s %9s %12s %12s\n", "span", "count",
                  "total_ms", "self_ms");
    layers += line;
    for (const SpanTotals& t : SelfTimes(spans)) {
      std::snprintf(line, sizeof(line), "  %-22s %9zu %12.3f %12.3f\n",
                    t.name.c_str(), t.count, t.total_ms, t.self_ms);
      layers += line;
    }
    layers += "per-layer metrics of " + workload + "\n";
    std::snprintf(line, sizeof(line), "  %-40s %16s %-6s  %-34s %s\n", "metric",
                  "value", "unit", "should move", "on workload");
    layers += line;
    for (const Metric& m : metrics) {
      const auto [moves, on] = LayerTarget(m.name);
      std::snprintf(line, sizeof(line), "  %-40s %16.6g %-6s  %-34s %s\n",
                    m.name.c_str(), m.value, m.unit.c_str(), moves.c_str(),
                    on.c_str());
      layers += line;
    }
    std::ofstream(out_dir + "/layers-" + tag + ".txt") << layers;
    phase("layers");
    std::fputs(layers.c_str(), stderr);
  }

  if (!replay.first_mismatch.empty()) {
    std::fprintf(stderr, "ranking mismatch: %zu sessions, first: %s\n",
                 replay.mismatched.size(), replay.first_mismatch.c_str());
  }
  if (thumbnails.mismatches > 0) {
    std::fprintf(stderr, "thumbnail mismatch: %zu of %zu sampled renders\n",
                 thumbnails.mismatches, thumbnails.checked);
  }
  if (failed_requests > 0) {
    std::fprintf(stderr, "%zu of %zu requests failed (non-2xx or transport)\n",
                 failed_requests, attempted);
    std::size_t shown = 0;
    for (const SessionRecord& s : sessions) {
      for (const RequestRecord& r : s.requests) {
        if (r.ok() || shown++ >= 5) continue;
        std::fprintf(stderr, "  session %zu %s: status %d after %.3f ms\n",
                     s.index, RequestKindName(r.kind), r.status,
                     (r.recv_ns - r.send_ns) / 1e6);
      }
    }
  }
  std::size_t api_requests = 0, rep_requests = 0;
  for (const SessionRecord& s : sessions) {
    for (const RequestRecord& r : s.requests) {
      ++(r.kind == RequestKind::kRep ? rep_requests : api_requests);
    }
  }
  std::fprintf(stderr,
               "%s seed %llu: %zu sessions (%zu in window), %zu replayed, "
               "%zu thumbnails checked, %zu settled, %.2f API and %.1f "
               "thumbnail requests per session\n",
               workload.c_str(), static_cast<unsigned long long>(seed),
               sessions.size(), session_ms.size(), replay.sessions_checked,
               thumbnails.checked, settled,
               Ratio(api_requests, sessions.size()),
               Ratio(rep_requests, sessions.size()));

  const std::string stamp =
      "{\"git_sha\":" + JsonString(git_sha) +
      ",\"build\":{\"git\":" + JsonString(build_field("git")) +
      ",\"build_type\":" + JsonString(build_field("build_type")) +
      ",\"obs\":" + JsonString(build_field("obs")) +
      ",\"simd\":" + JsonString(qdcbir::ActiveSimdName()) +
      "},\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
      ",\"server_lanes\":" + std::to_string(pool.size()) +
      ",\"http_threads\":" + std::to_string(serve_defaults.http_threads) +
      ",\"connections\":" + std::to_string(spec.connections) +
      ",\"client_cpu\":" + std::to_string(client_cpu) +
      // Share of the machine's CPU time taken by other guests during the
      // window: a run measured while the host was busy reads slow.
      ",\"steal_share\":" +
      JsonNumber(Ratio(cpu_end.steal - cpu_start.steal, cpu_end.total - cpu_start.total)) +
      ",\"workload\":" + JsonString(workload) +
      ",\"seed\":" + std::to_string(seed) +
      ",\"seconds\":" + JsonNumber(seconds) +
      ",\"trace\":" + (trace ? "1" : "0") +
      ",\"images\":" + std::to_string(db->size()) + "}";
  const std::string result =
      "{\"correct\": " + std::string(correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"metrics\": " + MetricsJson(metrics) + "}";
  std::ofstream(out_dir + "/result-" + tag + ".json")
      << "{\"stamp\": " << stamp << ", \"result\": " << result << "}\n";
  std::printf("{\"stamp\": %s}\n%s\n", stamp.c_str(), result.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
