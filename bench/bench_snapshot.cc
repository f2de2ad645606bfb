// Snapshot load latency vs the text loader: how long until a workspace
// is servable after process start. The snapshot's claim is "no per-edge
// parsing" — mapping the CSR directly must beat re-parsing graph.sxg by
// an order of magnitude, without heap growth proportional to the graph.
// The same rows time the way out: what catalog::SaveWorkspace costs,
// file by file.
//
// Measures, per dataset (DBG at each scale, graph-only; Table-1 DB1
// x100 with the assignment of a k = 10 extraction):
//   text_ms      catalog::LoadWorkspace via graph.sxg (snapshot removed)
//   snap_ms      catalog::LoadWorkspace via snapshot.bin
//   map_ms       bare snapshot::Map (no schema/assignment/validation I/O)
//   file sizes   graph.sxg, assignment.tsv and snapshot.bin
//   heap bytes   FrozenGraph::MemoryUsage() after each load path
//   save_ms      catalog::SaveWorkspace, all four files
//   graph_write_ms, tsv_write_ms, snapshot_write_ms
//                one file each: graph::WriteGraph + writing graph.sxg,
//                catalog::AssignmentToTsv + writing assignment.tsv,
//                snapshot::Write of snapshot.bin
// Loads are best of N; each save column is 5 runs reported as
// *_median, *_q1 and *_q3 (quartiles interpolate linearly between the
// sorted runs), with hardware_concurrency.
//
// Flags:
//   --json        one machine-consumable JSON row per dataset
//   --smoke       DBG scales {1, 5} and DB1 x1 only (CI-sized;
//                 `ctest -L bench-smoke`)
//   --variant V   the rows' "variant" label (default "current").
//                 Before/after rows come from this file built once per
//                 library version, run alternately.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "catalog/workspace.h"
#include "extract/extractor.h"
#include "gen/dbg.h"
#include "gen/spec.h"
#include "gen/table1.h"
#include "graph/graph_io.h"
#include "snapshot/snapshot.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace {

using namespace schemex;  // NOLINT

namespace fs = std::filesystem;

uint64_t FileBytes(const fs::path& p) {
  std::error_code ec;
  auto n = fs::file_size(p, ec);
  return ec ? 0 : static_cast<uint64_t>(n);
}

/// Best-of-N wall time for `fn` (loads are I/O-ish; min is the stable
/// statistic once the page cache is warm, which is the serving-relevant
/// regime — both paths read warm files).
template <typename Fn>
double BestMillis(int reps, Fn&& fn) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    util::WallTimer t;
    fn();
    best = std::min(best, t.ElapsedMillis());
  }
  return best;
}

/// The value at quantile q of ascending `v`, interpolating linearly.
double Quantile(const std::vector<double>& v, double q) {
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Median and quartiles of `runs` timings of `fn`.
struct Spread {
  double median = 0, q1 = 0, q3 = 0;
};

template <typename Fn>
Spread TimeRuns(int runs, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < runs; ++i) {
    util::WallTimer t;
    fn();
    ms.push_back(t.ElapsedMillis());
  }
  std::sort(ms.begin(), ms.end());
  return {Quantile(ms, 0.5), Quantile(ms, 0.25), Quantile(ms, 0.75)};
}

void WriteFileOrDie(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << bytes;
  out.flush();
  if (!out) std::abort();
}

/// One dataset to save and load: DBG at a scale (graph only), or Table-1
/// DB1 at a scale with the assignment of a k = 10 extraction.
struct Dataset {
  const char* name;  ///< "dbg" or "db1"
  int scale;
};

constexpr int kSaveRuns = 5;

int Run(bool json, bool smoke, const std::string& variant) {
  if (!json) {
    std::cout << "== Workspace load and save: text vs binary snapshot ==\n";
  }
  util::TablePrinter table;
  table.SetHeader({"dataset", "objects", "edges", "text (ms)", "snap (ms)",
                   "map (ms)", "speedup", "sxg (KB)", "snap (KB)",
                   "heap text (KB)", "heap snap (KB)",
                   "save (ms)", "sxg write (ms)", "tsv write (ms)",
                   "snap write (ms)"});

  std::vector<Dataset> datasets =
      smoke ? std::vector<Dataset>{{"dbg", 1}, {"dbg", 5}, {"db1", 1}}
            : std::vector<Dataset>{
                  {"dbg", 1}, {"dbg", 5}, {"dbg", 25}, {"dbg", 100},
                  {"db1", 100}};
  const int reps = smoke ? 3 : 5;
  bool speedup_ok = true;

  for (const Dataset& ds : datasets) {
    const bool dbg = std::strcmp(ds.name, "dbg") == 0;
    gen::DatasetSpec spec =
        dbg ? gen::DbgSpec() : gen::Table1Datasets().front().spec;
    for (auto& t : spec.types) t.count *= static_cast<size_t>(ds.scale);
    auto g = gen::Generate(spec, 4242);
    if (!g.ok()) return 1;

    fs::path dir = fs::temp_directory_path() /
                   util::StringPrintf("schemex_bench_snap_%d_%s_%d",
                                      static_cast<int>(::getpid()), ds.name,
                                      ds.scale);
    fs::remove_all(dir);
    catalog::Workspace ws;
    ws.SetGraph(*g);
    ws.assignment = typing::TypeAssignment(ws.graph->NumObjects());
    if (!dbg) {
      extract::ExtractorOptions opt;
      opt.target_num_types = 10;
      auto r = extract::SchemaExtractor(opt).Run(*ws.graph);
      if (!r.ok()) return 1;
      ws.program = r->final_program;
      ws.assignment = r->recast.assignment;
    }

    // The way out: whole saves first (the last one leaves the files the
    // loads below read), then each file on its own.
    Spread save = TimeRuns(kSaveRuns, [&] {
      if (!catalog::SaveWorkspace(ws, dir.string()).ok()) std::abort();
    });
    const fs::path scratch = dir / "write_probe";
    Spread graph_write = TimeRuns(kSaveRuns, [&] {
      WriteFileOrDie(scratch, graph::WriteGraph(*ws.graph));
    });
    Spread tsv_write = TimeRuns(kSaveRuns, [&] {
      WriteFileOrDie(scratch, catalog::AssignmentToTsv(ws.assignment));
    });
    Spread snapshot_write = TimeRuns(kSaveRuns, [&] {
      if (!snapshot::Write(*ws.graph, scratch.string()).ok()) std::abort();
    });
    fs::remove(scratch);

    const std::string snap_path = (dir / "snapshot.bin").string();
    size_t heap_text = 0, heap_snap = 0;

    // Text path: hide the snapshot so LoadWorkspace parses graph.sxg.
    fs::rename(dir / "snapshot.bin", dir / "snapshot.hidden");
    double text_ms = BestMillis(reps, [&] {
      auto back = catalog::LoadWorkspace(dir.string());
      heap_text = back.ok() ? (*back).graph->MemoryUsage() : 0;
    });
    fs::rename(dir / "snapshot.hidden", dir / "snapshot.bin");

    double snap_ms = BestMillis(reps, [&] {
      catalog::LoadInfo info;
      auto back = catalog::LoadWorkspace(dir.string(), &info);
      heap_snap =
          back.ok() && info.from_snapshot ? (*back).graph->MemoryUsage() : 0;
    });
    double map_ms = BestMillis(reps, [&] {
      auto mapped = snapshot::Map(snap_path);
      if (!mapped.ok()) std::abort();
    });

    double speedup = snap_ms > 0 ? text_ms / snap_ms : 0;
    if (speedup < 10.0) speedup_ok = false;

    uint64_t sxg_b = FileBytes(dir / "graph.sxg");
    uint64_t tsv_b = FileBytes(dir / "assignment.tsv");
    uint64_t snap_b = FileBytes(dir / "snapshot.bin");

    if (json) {
      std::printf(
          "{\"bench\":\"snapshot\",\"variant\":\"%s\",\"dataset\":\"%s\","
          "\"scale\":%d,\"objects\":%zu,\"edges\":%zu,"
          "\"typed_objects\":%zu,\"text_ms\":%.3f,\"snapshot_ms\":%.3f,"
          "\"map_ms\":%.3f,\"speedup\":%.1f,\"sxg_bytes\":%llu,"
          "\"tsv_bytes\":%llu,\"snapshot_bytes\":%llu,"
          "\"heap_text_bytes\":%zu,"
          "\"heap_snapshot_bytes\":%zu,\"runs\":%d,"
          "\"save_ms_median\":%.3f,\"save_ms_q1\":%.3f,"
          "\"save_ms_q3\":%.3f,\"graph_write_ms_median\":%.3f,"
          "\"graph_write_ms_q1\":%.3f,\"graph_write_ms_q3\":%.3f,"
          "\"tsv_write_ms_median\":%.3f,\"tsv_write_ms_q1\":%.3f,"
          "\"tsv_write_ms_q3\":%.3f,\"snapshot_write_ms_median\":%.3f,"
          "\"snapshot_write_ms_q1\":%.3f,\"snapshot_write_ms_q3\":%.3f,"
          "\"hardware_concurrency\":%u}\n",
          variant.c_str(), ds.name, ds.scale, g->NumObjects(), g->NumEdges(),
          ws.assignment.NumTypedObjects(), text_ms, snap_ms, map_ms, speedup,
          static_cast<unsigned long long>(sxg_b),
          static_cast<unsigned long long>(tsv_b),
          static_cast<unsigned long long>(snap_b), heap_text, heap_snap,
          kSaveRuns, save.median, save.q1, save.q3, graph_write.median,
          graph_write.q1, graph_write.q3, tsv_write.median, tsv_write.q1,
          tsv_write.q3, snapshot_write.median, snapshot_write.q1,
          snapshot_write.q3, std::thread::hardware_concurrency());
    } else {
      auto kb = [](uint64_t b) {
        return util::StringPrintf("%llu",
                                  static_cast<unsigned long long>(b / 1024));
      };
      table.AddRow({util::StringPrintf("%s %dx", ds.name, ds.scale),
                    util::StringPrintf("%zu", g->NumObjects()),
                    util::StringPrintf("%zu", g->NumEdges()),
                    util::StringPrintf("%.2f", text_ms),
                    util::StringPrintf("%.2f", snap_ms),
                    util::StringPrintf("%.3f", map_ms),
                    util::StringPrintf("%.0fx", speedup), kb(sxg_b),
                    kb(snap_b), kb(heap_text), kb(heap_snap),
                    util::StringPrintf("%.2f", save.median),
                    util::StringPrintf("%.2f", graph_write.median),
                    util::StringPrintf("%.2f", tsv_write.median),
                    util::StringPrintf("%.2f", snapshot_write.median)});
    }
    fs::remove_all(dir);
  }
  if (!json) {
    table.Print(std::cout);
    std::cout << (speedup_ok
                      ? "snapshot load >= 10x faster than text at every "
                        "scale\n"
                      : "WARNING: snapshot speedup fell below 10x\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool smoke = false;
  std::string variant = "current";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--variant") == 0 && i + 1 < argc) {
      variant = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json] [--smoke] [--variant V]\n",
                   argv[0]);
      return 2;
    }
  }
  return Run(json, smoke, variant);
}
