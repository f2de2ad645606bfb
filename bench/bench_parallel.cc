// Parallel Stages 1 and 3: sharded wall-clock vs the one-thread run at
// 1/2/4/8 worker threads, on scaled DBG data (many Stage-1 types, few
// objects each) and on Table-1 DB1 x100 (the wide case: 100k objects in
// 40 Stage-1 types, where an inline run pays the most). (Stage 2 runs on
// one thread; its cost is in bench_scale's cluster_ms column.)
//
// Emits one JSON row per measurement (machine-consumable, same schema as
// `bench_scale --json`):
//
//   {"bench":"parallel_stage1","dataset":"dbg"|"db1","scale":S,
//    "algo":"hash","objects":N,"edges":M,"threads":T,"stage1_ms":X,
//    "speedup":S}
//   {"bench":"parallel_stage3","dataset":"dbg"|"db1","scale":S,
//    "algo":"recast","objects":N,"edges":M,"threads":T,"recast_ms":X,
//    "speedup":S}
//
// "speedup" is one-thread-ms / this-row-ms, so the reference row itself
// reports 1.0. Every sharded run is verified bit-identical to the
// one-thread run before its row prints — Stage 1: home vector AND typing
// program; Stage 3: full assignment and exact/fallback/untyped counts. A
// mismatch exits 1. Wall-clock parallel speedup obviously requires the
// machine to have cores — the row stream includes a "context" row with
// hardware_concurrency so downstream plots can annotate single-core boxes.
//
// The recast runs over the homes of a clustering at k = 6 on DBG and
// k = 10 on DB1.
//
// Flags:
//   --smoke   DBG x5 and DB1 x1, 1 repetition (CI-sized); default is
//             DBG x25 and DB1 x100, best-of-3.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/greedy.h"
#include "gen/dbg.h"
#include "gen/spec.h"
#include "gen/table1.h"
#include "typing/perfect_typing.h"
#include "typing/recast.h"
#include "util/parallel_for.h"
#include "util/timer.h"

namespace {

using namespace schemex;  // NOLINT

/// Best-of-reps wall clock of fn(); the returned result comes from the
/// last run (all runs produce identical results by construction).
template <typename Result, typename Fn>
std::pair<double, Result> Measure(int reps, Fn&& fn) {
  double ms = 1e300;
  Result out;
  for (int r = 0; r < reps; ++r) {
    util::WallTimer t;
    out = fn();
    ms = std::min(ms, t.ElapsedMillis());
  }
  return {ms, std::move(out)};
}

/// One input: DBG or Table-1 DB1 at a scale, clustered to `k` types
/// for the recast.
struct Dataset {
  const char* name;
  int scale;
  size_t k;
};

int Run(const Dataset& ds, int reps) {
  const int scale = ds.scale;
  gen::DatasetSpec spec = std::strcmp(ds.name, "dbg") == 0
                              ? gen::DbgSpec()
                              : gen::Table1Datasets().front().spec;
  for (auto& t : spec.types) t.count *= static_cast<size_t>(scale);
  auto g = gen::Generate(spec, 4242);
  if (!g.ok()) {
    std::fprintf(stderr, "generate: %s\n", g.status().ToString().c_str());
    return 1;
  }

  std::printf(
      "{\"bench\":\"parallel_stage1\",\"context\":true,\"dataset\":\"%s\","
      "\"scale\":%d,\"objects\":%zu,\"edges\":%zu,"
      "\"hardware_concurrency\":%u}\n",
      ds.name, scale, g->NumObjects(), g->NumEdges(),
      std::thread::hardware_concurrency());

  // ---- Stage 1: hash refinement, sharded hashing + sequential reduce.
  typing::PerfectTypingResult stage1;
  double seq1_ms = 0;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    // One pool across the reps so thread spin-up is not billed to the
    // algorithm (matches how the extractor owns its pool per request).
    util::PoolRef pool(nullptr, threads);
    typing::ExecOptions exec;
    exec.num_threads = threads;
    exec.pool = pool.get();
    auto [ms, r] = Measure<typing::PerfectTypingResult>(reps, [&] {
      return *typing::PerfectTypingViaHashRefinement(*g, exec);
    });
    if (threads == 1) {
      seq1_ms = ms;
      stage1 = std::move(r);
    } else if (r.home != stage1.home || r.program != stage1.program) {
      std::fprintf(stderr,
                   "FAIL: hash refinement at %zu threads diverged from the "
                   "one-thread run\n",
                   threads);
      return 1;
    }
    std::printf(
        "{\"bench\":\"parallel_stage1\",\"dataset\":\"%s\",\"scale\":%d,"
        "\"algo\":\"hash\",\"objects\":%zu,\"edges\":%zu,\"threads\":%zu,"
        "\"stage1_ms\":%.3f,\"speedup\":%.3f}\n",
        ds.name, scale, g->NumObjects(), g->NumEdges(), threads, ms,
        ms > 0 ? seq1_ms / ms : 0.0);
  }

  // ---- Stage 3: recast (parallel GFP + sharded sweep + fallback), over
  // the homes of a k-type clustering.
  cluster::ClusteringOptions copt;
  copt.target_num_types = ds.k;
  auto clustering = cluster::ClusterTypes(stage1.program, stage1.weight, copt);
  if (!clustering.ok()) {
    std::fprintf(stderr, "cluster: %s\n",
                 clustering.status().ToString().c_str());
    return 1;
  }
  std::vector<std::vector<typing::TypeId>> homes(g->NumObjects());
  for (size_t o = 0; o < stage1.home.size(); ++o) {
    if (stage1.home[o] == typing::kInvalidType) continue;
    typing::TypeId m =
        clustering->final_map[static_cast<size_t>(stage1.home[o])];
    if (m != cluster::kEmptyType) homes[o] = {m};
  }

  typing::RecastResult ref_recast;
  double seq3_ms = 0;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    util::PoolRef pool(nullptr, threads);
    typing::ExecOptions exec;
    exec.num_threads = threads;
    exec.pool = pool.get();
    auto [ms, r] = Measure<typing::RecastResult>(reps, [&] {
      return *typing::Recast(clustering->final_program, *g, homes, {}, exec);
    });
    if (threads == 1) {
      seq3_ms = ms;
      ref_recast = std::move(r);
    } else if (!(r.assignment == ref_recast.assignment) ||
               r.num_exact != ref_recast.num_exact ||
               r.num_fallback != ref_recast.num_fallback ||
               r.num_untyped != ref_recast.num_untyped) {
      std::fprintf(stderr,
                   "FAIL: recast at %zu threads diverged from the "
                   "one-thread run\n",
                   threads);
      return 1;
    }
    std::printf(
        "{\"bench\":\"parallel_stage3\",\"dataset\":\"%s\",\"scale\":%d,"
        "\"algo\":\"recast\",\"objects\":%zu,\"edges\":%zu,"
        "\"threads\":%zu,\"recast_ms\":%.3f,\"speedup\":%.3f}\n",
        ds.name, scale, g->NumObjects(), g->NumEdges(), threads, ms,
        ms > 0 ? seq3_ms / ms : 0.0);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 2;
    }
  }
  const int reps = smoke ? 1 : 3;
  const Dataset datasets[] = {{"dbg", smoke ? 5 : 25, 6},
                              {"db1", smoke ? 1 : 100, 10}};
  for (const Dataset& ds : datasets) {
    if (int rc = Run(ds, reps); rc != 0) return rc;
  }
  return 0;
}
