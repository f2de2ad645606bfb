// The untraced wire run: a schemexd child process on a loopback port,
// driven in a closed loop by TcpClient connections (one writer running
// the workload cycle, plus the workload's query-only readers), with
// every response checked after the timed window.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "bench.h"
#include "json/json.h"
#include "service/tcp_client.h"
#include "util/string_util.h"
#include "util/timer.h"

extern char** environ;

namespace perfbench {
namespace {

/// Wall-clock budget for one request; the server's own default is 60 s.
constexpr double kCallTimeoutS = 120.0;
/// Untimed cycles before the window (at least one). Idle vCPUs of this
/// class of VM take about a second to reach full speed, and caches and
/// the allocator fill on the first pass.
constexpr double kWarmupS = 2.0;
/// Cheap set-ups repeat until this much time is spent (at most
/// kMaxSetups times), so the median of a ~50 ms set-up rests on more
/// than three process spawns.
constexpr double kSetupBudgetS = 2.0;
constexpr size_t kMaxSetups = 15;

/// A schemexd child listening on an ephemeral loopback port. The
/// destructor stops it (SIGTERM, then SIGKILL) and reaps it.
class ServerProcess {
 public:
  static util::StatusOr<std::unique_ptr<ServerProcess>> Start(
      const std::string& bin, const std::string& dir) {
    const std::string port_file = dir + "/server.port";
    const std::string log_file = dir + "/server.log";
    ::unlink(port_file.c_str());
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 1, log_file.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    std::vector<std::string> args = {bin, "--listen", "0", "--port-file",
                                     port_file};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    // A fixed mmap threshold: glibc otherwise raises it after the first
    // large free, and whether a freed n^2 matrix then stays resident in
    // some worker thread's arena depends on scheduling, which makes
    // VmHWM bimodal from run to run.
    std::vector<std::string> env = {"MALLOC_MMAP_THRESHOLD_=131072"};
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "MALLOC_MMAP_THRESHOLD_=", 23) != 0) {
        env.push_back(*e);
      }
    }
    std::vector<char*> envp;
    for (std::string& e : env) envp.push_back(e.data());
    envp.push_back(nullptr);
    pid_t pid = -1;
    int rc = posix_spawn(&pid, bin.c_str(), &actions, nullptr, argv.data(),
                         envp.data());
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      return util::Status::Internal("spawn " + bin + ": " +
                                    std::string(strerror(rc)));
    }
    auto proc = std::unique_ptr<ServerProcess>(new ServerProcess(pid));
    util::WallTimer waited;
    while (waited.ElapsedSeconds() < 30.0) {
      int status = 0;
      if (waitpid(pid, &status, WNOHANG) == pid) {
        proc->pid_ = -1;
        return util::Status::Internal("schemexd exited during start-up; see " +
                                      log_file);
      }
      std::ifstream in(port_file);
      unsigned port = 0;
      if (in >> port && port > 0 && port < 65536) {
        proc->port_ = static_cast<uint16_t>(port);
        return proc;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return util::Status::DeadlineExceeded("schemexd wrote no port file");
  }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  uint16_t port() const { return port_; }

  /// VmHWM (peak resident set) of the child, in MB; 0 if unreadable.
  double PeakRssMb() const {
    std::ifstream in(util::StringPrintf("/proc/%d/status", pid_));
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        std::istringstream fields(line.substr(6));
        double kb = 0;
        fields >> kb;
        return kb / 1024.0;
      }
    }
    return 0;
  }

  /// Graceful drain via SIGTERM; SIGKILL after 20 s. Idempotent.
  void Stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    util::WallTimer waited;
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (waited.ElapsedSeconds() > 20.0) {
        ::kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }

 private:
  explicit ServerProcess(pid_t pid) : pid_(pid) {}
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

/// One finished request.
struct Sample {
  OpKind kind = OpKind::kQuery;
  size_t op = 0;        ///< cycle index (writers), query index (readers)
  size_t conn = 0;      ///< connection: writers first, then readers
  bool reader = false;  ///< issued by a query-only connection
  bool warmup = false;  ///< before the timed window: checked, not timed
  bool timed = true;    ///< Op::timed
  double start_s = 0;   ///< when the request was sent, from window start
  double ms = 0;
  double count = -1;    ///< a query's result count
  std::string error;    ///< empty iff the call and the envelope were ok
  json::Value result;   ///< the envelope's "result" (not kept for queries)
};

/// Cumulative CPU steal and total ticks from /proc/stat: the share of
/// time the hypervisor ran someone else on this VM's vCPUs.
std::pair<double, double> StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v = 0, total = 0, steal = 0;
  in >> cpu;
  for (int i = 0; i < 8 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

/// Calls `line`, timing the wire round trip.
Sample Call(service::TcpClient& client, const std::string& line) {
  Sample s;
  util::WallTimer t;
  auto resp = client.Call(line, kCallTimeoutS);
  s.ms = t.ElapsedMillis();
  if (!resp.ok()) {
    s.error = resp.status().ToString();
    return s;
  }
  const auto& env = resp->AsObject();
  auto ok = env.find("ok");
  if (ok == env.end() || !ok->second.AsBool()) {
    auto err = env.find("error");
    s.error = err == env.end() ? "response not ok"
                               : json::Serialize(err->second);
    return s;
  }
  auto res = env.find("result");
  if (res != env.end()) s.result = res->second;
  return s;
}

/// Reads a numeric field by dotted path ("defect.excess"); -1 if absent.
double Num(const json::Value& v, const std::string& path) {
  const json::Value* cur = &v;
  for (const std::string& key : util::Split(path, '.')) {
    if (cur->kind() != json::Value::Kind::kObject) return -1;
    auto it = cur->AsObject().find(key);
    if (it == cur->AsObject().end()) return -1;
    cur = &it->second;
  }
  if (cur->kind() == json::Value::Kind::kBool) return cur->AsBool() ? 1 : 0;
  return cur->kind() == json::Value::Kind::kNumber ? cur->AsNumber() : -1;
}

/// The counts one delta batch must report.
struct BatchCounts {
  double objects = 0, added = 0, deleted = 0;
};
BatchCounts CountBatch(const std::vector<service::DeltaOp>& ops) {
  BatchCounts c;
  for (const service::DeltaOp& op : ops) {
    if (op.op == "add_object") ++c.objects;
    if (op.op == "add_link") ++c.added;
    if (op.op == "del_link") ++c.deleted;
  }
  return c;
}

/// Checks every writer and reader response; returns one message per
/// mismatch. Reader query counts are compared with library evaluation
/// when the readers have a static tenant of their own; otherwise they
/// race a writer and only their envelope is checked. `samples` holds
/// each writer's samples in issue order.
std::vector<std::string> CheckSamples(const Workload& w,
                                      const std::vector<Tenant>& tenants,
                                      const std::vector<Sample>& samples) {
  std::vector<std::string> bad;
  References refs(&tenants);
  std::vector<uint64_t> last_k(tenants.size(), 0);
  auto expect = [&](const Sample& s, const std::string& field, double want) {
    double got = Num(s.result, field);
    if (got != want) {
      bad.push_back(util::StringPrintf("%s op %zu: %s = %g, want %g",
                                       OpKindName(s.kind), s.op,
                                       field.c_str(), got, want));
    }
  };
  const int reader_tenant = static_cast<int>(ReaderTenant(w));
  for (const Sample& s : samples) {
    if (!s.error.empty()) {
      bad.push_back(std::string(OpKindName(s.kind)) + ": " + s.error);
      continue;
    }
    if (s.reader) {
      if (w.query_tenant.name.empty()) continue;
      auto want = refs.QueryCount(reader_tenant, kBase, w.query_tenant.seed_k,
                                  static_cast<int>(s.op));
      if (!want.ok()) {
        bad.push_back("reference query: " + want.status().ToString());
      } else if (s.count != static_cast<double>(*want)) {
        bad.push_back(util::StringPrintf("query %zu: count = %g, want %llu",
                                         s.op, s.count,
                                         static_cast<unsigned long long>(
                                             *want)));
      }
      continue;
    }
    const Op& op = w.cycle[s.op];
    const int tenant =
        static_cast<int>(s.conn * w.tenants.size()) + op.tenant;
    const Tenant& t = tenants[static_cast<size_t>(tenant)];
    switch (op.kind) {
      case OpKind::kLoad:
        break;
      case OpKind::kExtract:
      case OpKind::kAutoExtract:
      case OpKind::kExtractSave:
      case OpKind::kReExtractSwap:
      case OpKind::kReExtractGrow: {
        const bool re = op.kind == OpKind::kReExtractSwap ||
                        op.kind == OpKind::kReExtractGrow;
        const uint64_t k = re ? last_k[static_cast<size_t>(tenant)] : op.k;
        auto ref = refs.Get(tenant, op.state, k);
        if (!ref.ok()) {
          bad.push_back("reference: " + ref.status().ToString());
          continue;
        }
        const Reference& r = **ref;
        expect(s, "k", static_cast<double>(r.k));
        expect(s, "num_final_types", static_cast<double>(r.num_final_types));
        expect(s, "defect.excess", static_cast<double>(r.excess));
        expect(s, "defect.deficit", static_cast<double>(r.deficit));
        expect(s, "recast.exact", static_cast<double>(r.exact));
        expect(s, "recast.fallback", static_cast<double>(r.fallback));
        if (re) {
          // Swaps keep every local picture, so Stage 2 must be reused;
          // grows change the partition, so it must rerun.
          expect(s, "incremental.stage2_reused",
                 op.kind == OpKind::kReExtractSwap ? 1 : 0);
        }
        last_k[static_cast<size_t>(tenant)] = r.k;
        break;
      }
      case OpKind::kApplySwap:
      case OpKind::kApplyGrow: {
        BatchCounts c = CountBatch(op.kind == OpKind::kApplySwap ? t.swap_ops
                                                                 : t.grow_ops);
        expect(s, "objects_added", c.objects);
        expect(s, "links_added", c.added);
        expect(s, "links_deleted", c.deleted);
        break;
      }
      case OpKind::kQuery:  // readers only
        break;
    }
  }
  return bad;
}

std::vector<double> Latencies(const std::vector<Sample>& samples,
                              std::initializer_list<OpKind> kinds) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    for (OpKind k : kinds) {
      if (s.kind == k && s.timed && !s.warmup) out.push_back(s.ms);
    }
  }
  return out;
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

/// Queries per second across connections: per one-second slice of the
/// window, each connection's queries over the time it spent in query
/// calls, summed over connections; then the median over slices. A
/// slice in which the hypervisor stalled a vCPU for milliseconds moves
/// one slice, not the run's figure.
double QueryRate(const std::vector<Sample>& samples, size_t conns) {
  std::map<long, std::vector<std::pair<double, double>>> slices;
  for (const Sample& s : samples) {
    if (s.kind != OpKind::kQuery || s.warmup) continue;
    auto& per_conn = slices[static_cast<long>(s.start_s)];
    per_conn.resize(conns);
    per_conn[s.conn].first += 1;
    per_conn[s.conn].second += s.ms / 1e3;
  }
  std::vector<double> rates;
  for (const auto& [slice, per_conn] : slices) {
    double qps = 0;
    for (const auto& [count, busy_s] : per_conn) {
      if (busy_s > 0) qps += count / busy_s;
    }
    rates.push_back(qps);
  }
  return Median(rates);
}

}  // namespace

WireResult RunWire(const Workload& w, uint64_t seed, double seconds,
                   size_t setups, const std::string& server_bin,
                   const std::string& workdir) {
  WireResult res;
  auto fail = [&](const std::string& msg) {
    res.correct = false;
    res.failed += 1;
    res.attempted += 1;
    res.errors.push_back(msg);
    return res;
  };

  // Set-up, repeated at least `setups` times and, while cheap, until
  // kSetupBudgetS is spent; the last one's server and inputs are used.
  std::vector<double> setup_s;
  double setup_total_s = 0;
  std::unique_ptr<ServerProcess> server;
  for (size_t attempt = 0;
       attempt < setups || (setups > 1 && setup_total_s < kSetupBudgetS &&
                            attempt < kMaxSetups);
       ++attempt) {
    server.reset();
    util::WallTimer t;
    auto tenants = MakeInputs(w, seed, workdir);
    if (!tenants.ok()) return fail("inputs: " + tenants.status().ToString());
    res.tenants = std::move(tenants).value();
    auto proc = ServerProcess::Start(server_bin, workdir);
    if (!proc.ok()) return fail(proc.status().ToString());
    server = std::move(proc).value();
    auto client = service::TcpClient::Connect("127.0.0.1", server->port());
    if (!client.ok()) return fail("connect: " + client.status().ToString());
    int64_t id = 0;
    for (size_t i = 0; i < res.tenants.size(); ++i) {
      Op load;
      load.tenant = static_cast<int>(i);
      Sample s = Call(*client, RequestLine(++id, load, res.tenants[i]));
      if (!s.error.empty()) return fail("setup load: " + s.error);
      const uint64_t seed_k = SpecOf(w, i).seed_k;
      if (seed_k != 0) {
        // Seed extract, saved over the load source so every cycle's
        // load_workspace brings the schema back.
        Op seed_op;
        seed_op.kind = OpKind::kExtractSave;
        seed_op.k = seed_k;
        Tenant into_dir = res.tenants[i];
        into_dir.save_dir = into_dir.dir;
        s = Call(*client, RequestLine(++id, seed_op, into_dir));
        if (!s.error.empty()) return fail("setup extract: " + s.error);
      }
    }
    setup_s.push_back(t.ElapsedSeconds());
    setup_total_s += setup_s.back();
  }

  // Every connection opens before the window; writers first.
  const size_t conns = w.writers + w.readers;
  std::vector<service::TcpClient> clients;
  for (size_t c = 0; c < conns; ++c) {
    auto client = service::TcpClient::Connect("127.0.0.1", server->port());
    if (!client.ok()) return fail("connect: " + client.status().ToString());
    clients.push_back(std::move(client).value());
  }

  // Warm-up, then the timed window. A sample is timed when its request
  // starts inside the window. Writers finish the cycle they are in when
  // the window closes; readers stop when the last writer does.
  using Clock = std::chrono::steady_clock;
  const Clock::time_point origin = Clock::now();
  const Clock::time_point timed_from =
      origin + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(
                       std::min(kWarmupS, seconds / 4)));
  const Clock::time_point deadline =
      timed_from + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
  std::vector<std::vector<Sample>> per_conn(conns);
  std::atomic<size_t> writers_left{w.writers};

  const size_t reader_tenant = ReaderTenant(w);
  auto run_conn = [&](size_t c) {
    std::vector<Sample>& out = per_conn[c];
    int64_t id = 1000000 * static_cast<int64_t>(c + 1);
    // Writer c's Op::tenant indexes its own copies; readers' ops carry
    // the reader tenant's index.
    auto issue = [&](const Op& op, size_t index) {
      const size_t tenant =
          c < w.writers ? c * w.tenants.size() + static_cast<size_t>(op.tenant)
                        : static_cast<size_t>(op.tenant);
      const Clock::time_point sent = Clock::now();
      Sample s = Call(clients[c], RequestLine(++id, op, res.tenants[tenant]));
      s.kind = op.kind;
      s.op = index;
      s.conn = c;
      s.reader = c >= w.writers;
      s.warmup = sent < timed_from;
      s.timed = op.timed;
      s.start_s = std::chrono::duration<double>(sent - timed_from).count();
      if (op.kind == OpKind::kQuery) {
        s.count = Num(s.result, "count");
        s.result = json::Value();  // keep memory flat
      }
      out.push_back(std::move(s));
      return out.back().error.empty();
    };
    if (c < w.writers) {
      bool ok = true;
      bool timed_cycle = false;
      while (ok && (!timed_cycle || Clock::now() < deadline)) {
        timed_cycle = Clock::now() >= timed_from;
        for (size_t i = 0; i < w.cycle.size() && ok; ++i) {
          ok = issue(w.cycle[i], i);
        }
      }
      writers_left.fetch_sub(1);
      return;
    }
    Op q;
    q.kind = OpKind::kQuery;
    q.tenant = static_cast<int>(reader_tenant);
    const size_t n = res.tenants[reader_tenant].queries.size();
    for (size_t i = 0; writers_left.load() > 0; ++i) {
      q.query = static_cast<int>((i * 7 + c * 13) % n);
      if (!issue(q, static_cast<size_t>(q.query))) break;
    }
  };
  const auto steal_before = StealTicks();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; ++c) threads.emplace_back(run_conn, c);
  for (std::thread& t : threads) t.join();
  const auto steal_after = StealTicks();
  const double ticks = steal_after.second - steal_before.second;

  // Server-side view, then peak memory, then shutdown.
  Sample stats = Call(clients[0], "{\"id\":1,\"verb\":\"stats\"}");
  const double peak_rss_mb = server->PeakRssMb();
  clients.clear();
  server.reset();

  std::vector<Sample> samples;
  for (std::vector<Sample>& v : per_conn) {
    for (Sample& s : v) samples.push_back(std::move(s));
  }
  res.errors = CheckSamples(w, res.tenants, samples);
  if (!stats.error.empty()) res.errors.push_back("stats: " + stats.error);
  res.attempted = samples.size();
  res.failed = res.errors.size();
  res.correct = res.errors.empty();

  std::vector<double> queries = Latencies(samples, {OpKind::kQuery});
  auto add = [&](const char* name, double value, const char* unit) {
    res.end_to_end.push_back({name, Metric{value, unit}});
  };
  add("setup_s", Median(setup_s), "s");
  add("extract_ms", Median(Latencies(samples, {OpKind::kExtract})), "ms");
  add("auto_extract_ms", Median(Latencies(samples, {OpKind::kAutoExtract})),
      "ms");
  add("load_ms", Median(Latencies(samples, {OpKind::kLoad})), "ms");
  add("extract_save_ms", Median(Latencies(samples, {OpKind::kExtractSave})),
      "ms");
  add("query_ms", Median(queries), "ms");
  add("query_p90_ms", Percentile(queries, 0.90), "ms");
  add("query_qps", QueryRate(samples, conns), "1/s");
  add("apply_delta_ms",
      Median(Latencies(samples, {OpKind::kApplySwap, OpKind::kApplyGrow})),
      "ms");
  add("re_extract_ms", Median(Latencies(samples, {OpKind::kReExtractGrow})),
      "ms");
  add("re_extract_local_ms",
      Median(Latencies(samples, {OpKind::kReExtractSwap})), "ms");
  add("peak_rss_mb", peak_rss_mb, "MB");
  add("error_rate",
      res.attempted == 0 ? 1.0
                         : static_cast<double>(res.failed) /
                               static_cast<double>(res.attempted),
      "fraction");
  // Printed and recorded, not gated: p99 follows the host's CPU steal
  // (see cpu_steal_share) far more than the server.
  res.end_to_end.push_back(
      {"query_p99_ms", Metric{Percentile(queries, 0.99), "ms"}});
  res.end_to_end.push_back(
      {"query_samples", Metric{static_cast<double>(queries.size()), "count"}});
  // Not a metric of the server: how much of the window the host took.
  res.end_to_end.push_back(
      {"cpu_steal_share",
       Metric{ticks > 0 ? (steal_after.first - steal_before.first) / ticks
                        : 0,
              "fraction"}});

  // service.*: the server's own query latency (mean: the stats
  // percentiles are bucket-quantized) and what the wire adds to it.
  double server_query_ms = 0;
  if (stats.error.empty()) {
    auto verbs = stats.result.AsObject().find("verbs");
    if (verbs != stats.result.AsObject().end()) {
      for (const json::Value& v : verbs->second.AsArray()) {
        auto name = v.AsObject().find("verb");
        if (name != v.AsObject().end() && name->second.AsString() == "query") {
          double count = Num(v, "count"), total = Num(v, "total_ms");
          if (count > 0) server_query_ms = total / count;
        }
      }
    }
  }
  res.service_layer.push_back(
      {"service.query_server_ms", Metric{server_query_ms, "ms"}});
  res.service_layer.push_back(
      {"service.transport_ms", Metric{Mean(queries) - server_query_ms, "ms"}});
  return res;
}

}  // namespace perfbench
