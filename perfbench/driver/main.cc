// perfbench_driver: one workload, one seed, one run.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --server-bin PATH [--git-commit SHA]
//
// --trace 0 is the untraced wire run and prints the end-to-end metrics;
// --trace 1 runs a shorter wire run (for the server's own stats) and
// then the traced in-process replay, and prints the per-layer metrics.
// The last stdout line is the result object
//   {"correct":B,"attempted":N,"failed":N,"metrics":{NAME:{"value":V,"unit":U}}}
// Each run is also recorded, with its environment and workload sizes, in
// .bench_runs/<workload>/trace<T>-seed<N>.json under the working
// directory. Exit status is 0 iff every response checked out.

#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include "bench.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

/// The metrics BENCHMARK.json declares, in its order.
const std::vector<std::string> kEndToEnd = {
    "setup_s",        "extract_ms",       "auto_extract_ms",
    "load_ms",        "extract_save_ms",  "query_ms",
    "query_p90_ms",   "query_qps",        "apply_delta_ms",
    "re_extract_ms",  "re_extract_local_ms", "peak_rss_mb"};

/// Setups per untraced run; setup_s is their median.
constexpr size_t kSetups = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string server_bin;
  std::string git_commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i], val = argv[i + 1];
    uint64_t n = 0;
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed" && util::ParseUint64(val, &n)) {
      a->seed = n;
    } else if (key == "--seconds" && util::ParseDouble(val, &a->seconds)) {
    } else if (key == "--trace" && (val == "0" || val == "1")) {
      a->trace = val == "1";
    } else if (key == "--server-bin") {
      a->server_bin = val;
    } else if (key == "--git-commit") {
      a->git_commit = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->server_bin.empty() &&
         a->seconds > 0;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string MetricsJson(const Metrics& all,
                        const std::vector<std::string>* only) {
  std::string out = "{";
  bool first = true;
  auto emit = [&](const std::string& name, const Metric& m) {
    if (!first) out += ",";
    first = false;
    out += Quote(name) + util::StringPrintf(":{\"value\":%.17g,\"unit\":",
                                            m.value) +
           Quote(m.unit) + "}";
  };
  if (only == nullptr) {
    for (const auto& [name, m] : all) emit(name, m);
  } else {
    for (const std::string& name : *only) {
      Metric m;
      for (const auto& [n, v] : all) {
        if (n == name) m = v;
      }
      emit(name, m);
    }
  }
  return out + "}";
}

size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return 0;
}

std::string EnvJson(const Args& a) {
  return util::StringPrintf(
      "{\"nproc\":%zu,\"hardware_concurrency\":%u,\"compiler\":%s,"
      "\"build_type\":%s,\"git_commit\":%s,\"workload\":%s,\"seed\":%llu,"
      "\"seconds\":%g,\"trace\":%d}",
      Nproc(), std::thread::hardware_concurrency(),
      Quote(PERFBENCH_COMPILER).c_str(), Quote(PERFBENCH_BUILD_TYPE).c_str(),
      Quote(a.git_commit).c_str(), Quote(a.workload).c_str(),
      static_cast<unsigned long long>(a.seed), a.seconds, a.trace);
}

std::string SizesJson(const std::vector<Tenant>& tenants) {
  std::string out = "[";
  for (size_t i = 0; i < tenants.size(); ++i) {
    const Tenant& t = tenants[i];
    if (i > 0) out += ",";
    out += util::StringPrintf(
        "{\"tenant\":%s,\"objects\":%zu,\"complex_objects\":%zu,"
        "\"links\":%zu,\"stage1_types\":%zu,\"queries\":%zu,"
        "\"swap_ops\":%zu,\"grow_ops\":%zu}",
        Quote(t.name).c_str(), t.graph->NumObjects(),
        t.graph->NumComplexObjects(), t.graph->NumEdges(), t.stage1_types,
        t.queries.size(), t.swap_ops.size(), t.grow_ops.size());
  }
  return out + "]";
}

int Run(const Args& a) {
  const Workload* w = FindWorkload(a.workload);
  if (w == nullptr) {
    std::cerr << "unknown workload " << a.workload << "; known:";
    for (const Workload& k : Workloads()) std::cerr << " " << k.name;
    std::cerr << "\n";
    return 2;
  }
  namespace fs = std::filesystem;
  const std::string workdir =
      util::StringPrintf(".bench_work/%s-%llu-%d", a.workload.c_str(),
                         static_cast<unsigned long long>(a.seed), getpid());
  const std::string rundir = ".bench_runs/" + a.workload;
  std::error_code ec;
  fs::remove_all(workdir, ec);
  fs::create_directories(workdir, ec);
  fs::create_directories(rundir, ec);
  if (ec) {
    std::cerr << "cannot create " << workdir << ": " << ec.message() << "\n";
    return 2;
  }

  const std::string env = EnvJson(a);
  std::cout << "env " << env << "\n";
  WireResult wire;
  ReplayResult replay;
  Metrics printed;
  if (a.trace == 0) {
    wire = RunWire(*w, a.seed, a.seconds, kSetups, a.server_bin, workdir);
    printed = wire.end_to_end;
  } else {
    // A third of the budget on the wire for the server's stats, the rest
    // replayed in-process with spans.
    wire = RunWire(*w, a.seed, a.seconds / 3, 1, a.server_bin, workdir);
    if (wire.correct) {
      replay = RunReplay(
          *w, wire.tenants, a.seconds * 2 / 3,
          util::StringPrintf("%s/spans-seed%llu.json", rundir.c_str(),
                             static_cast<unsigned long long>(a.seed)));
    }
    printed = replay.layers;
    printed.insert(printed.end(), wire.service_layer.begin(),
                   wire.service_layer.end());
  }
  const std::string sizes = SizesJson(wire.tenants);
  fs::remove_all(workdir, ec);

  const bool correct = wire.correct && replay.ok;
  const uint64_t attempted = wire.attempted + replay.ops;
  const uint64_t failed = wire.failed + (replay.ok ? 0 : 1);
  std::cout << "workload " << a.workload << " sizes " << sizes << "\n";
  for (const auto& [name, m] : printed) {
    std::cout << util::StringPrintf("  %-34s %14.4f %s\n", name.c_str(),
                                    m.value, m.unit.c_str());
  }
  for (size_t i = 0; i < wire.errors.size() && i < 20; ++i) {
    std::cerr << "check failed: " << wire.errors[i] << "\n";
  }
  if (!replay.ok) std::cerr << "replay failed: " << replay.error << "\n";

  const std::string metrics =
      MetricsJson(printed, a.trace == 0 ? &kEndToEnd : nullptr);
  const std::string result = util::StringPrintf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.c_str());
  std::ofstream record(util::StringPrintf(
      "%s/trace%d-seed%llu.json", rundir.c_str(), a.trace,
      static_cast<unsigned long long>(a.seed)));
  record << "{\"env\":" << env << ",\"sizes\":" << sizes
         << ",\"all_metrics\":" << MetricsJson(printed, nullptr)
         << ",\"result\":" << result << "}\n";
  std::cout << result << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "--server-bin PATH [--git-commit SHA]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
