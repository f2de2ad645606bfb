// The mutable DataGraph against its frozen CSR copy: what each costs to
// read (the specialized GFP solver and the full three-stage extraction),
// to build, and to fold.
//
// Per dataset, two rows:
//   repr "data"    the graph built from nothing: build_ms (replaying its
//                  labels, objects and edges into a fresh DataGraph),
//                  gfp_ms, extract_ms, resident_bytes
//   repr "frozen"  its Freeze(): freeze_ms, gfp_ms, extract_ms,
//                  resident_bytes, and fold_ms (Freeze of a DataGraph
//                  layered over the frozen graph with a 50-object delta)
// Every time is the median and quartiles (`_median`, `_q1`, `_q3`) of
// `runs` runs, and every row carries hardware_concurrency. A closing
// summary row gives the data/frozen speedup geomeans.
//
// Before timing, each dataset checks that the built graph and its
// Freeze(), and the layered graph and its fold, answer every read the
// same; the run exits 1 if any disagree.
//
// Flags:
//   --json        the rows above, one JSON object per line (the default
//                 prints a table)
//   --smoke       small datasets and 3 runs (CI-sized; `ctest -L
//                 bench-smoke`)

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "extract/extractor.h"
#include "gen/random_graph.h"
#include "gen/spec.h"
#include "gen/table1.h"
#include "graph/data_graph.h"
#include "graph/delta_overlay.h"
#include "graph/frozen_graph.h"
#include "graph/graph_view.h"
#include "typing/gfp.h"
#include "typing/perfect_typing.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

using namespace schemex;  // NOLINT
using Clock = std::chrono::steady_clock;

/// A structured database with `scale`x objects per intended type.
graph::DataGraph MakeStructured(int scale) {
  gen::DatasetSpec spec;
  spec.name = "bench";
  spec.atomic_pool_per_label = 20;
  for (int t = 0; t < 5; ++t) {
    gen::TypeSpec ts;
    ts.name = "t" + std::to_string(t);
    ts.count = static_cast<size_t>(20 * scale);
    ts.links = {
        {"a" + std::to_string(t), gen::kAtomicTarget, 1.0},
        {"r" + std::to_string(t), (t + 1) % 5, 0.9},
        {"b" + std::to_string(t), gen::kAtomicTarget, 0.6},
    };
    spec.types.push_back(std::move(ts));
  }
  auto g = gen::Generate(spec, 1234);
  return std::move(g).value();
}

/// Table 1's DB1 with every type count times `scale` (perfbench's
/// wide_catalog tenant shape at scale 100).
graph::DataGraph MakeDb1(int scale) {
  gen::DatasetSpec spec = gen::Table1Datasets().front().spec;
  for (gen::TypeSpec& ts : spec.types) ts.count *= static_cast<size_t>(scale);
  auto g = gen::Generate(spec, 42);
  return std::move(g).value();
}

/// The value at quantile q of ascending `v`, interpolating linearly.
double Quantile(const std::vector<double>& v, double q) {
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

struct Spread {
  double median = 0, q1 = 0, q3 = 0;
};

/// Median and quartiles of `runs` wall times of `fn`, in milliseconds.
template <typename Fn>
Spread TimeMs(int runs, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < runs; ++i) {
    auto t0 = Clock::now();
    fn();
    ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  }
  std::sort(ms.begin(), ms.end());
  return {Quantile(ms, 0.5), Quantile(ms, 0.25), Quantile(ms, 0.75)};
}

/// Replays `g` into a fresh DataGraph: labels, then objects, then edges,
/// all in id order — how importers and generators build a graph.
graph::DataGraph Rebuild(graph::GraphView g) {
  graph::DataGraph out;
  for (size_t l = 0; l < g.labels().size(); ++l) {
    out.InternLabel(g.labels().Name(static_cast<graph::LabelId>(l)));
  }
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    if (g.IsAtomic(o)) {
      out.AddAtomic(g.Value(o), g.Name(o));
    } else {
      out.AddComplex(g.Name(o));
    }
  }
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    for (const graph::HalfEdge& e : g.OutEdges(o)) {
      out.MergeEdge(o, e.other, e.label);
    }
  }
  return out;
}

/// `base` plus a 50-object delta: 25 complex objects, each holding a new
/// atomic value and linked from a base complex object.
graph::DeltaOverlay MakeLayered(std::shared_ptr<const graph::FrozenGraph> base) {
  graph::DeltaOverlay g(base);
  std::vector<graph::ObjectId> complexes;
  for (graph::ObjectId o = 0; o < base->NumObjects(); ++o) {
    if (base->IsComplex(o)) complexes.push_back(o);
  }
  std::mt19937 rng(7);
  for (int i = 0; i < 25; ++i) {
    graph::ObjectId c = g.AddComplex("delta_" + std::to_string(i));
    graph::ObjectId v = g.AddAtomic("value_" + std::to_string(i));
    if (!g.AddEdge(c, v, std::string_view("delta_value")).ok() ||
        (!complexes.empty() &&
         !g.AddEdge(complexes[rng() % complexes.size()], c,
                    std::string_view("delta_ref"))
              .ok())) {
      std::abort();
    }
  }
  return g;
}

/// Folds a layered graph into a fresh snapshot. Trees from before the
/// fold was Freeze() spell it DeltaOverlay::Compact(); the requires
/// branch lets this one file time both for before/after rows.
template <typename Layered>
std::shared_ptr<const graph::FrozenGraph> Fold(const Layered& g) {
  if constexpr (requires { g.Compact(); }) {
    return g.Compact();
  } else {
    return graph::Freeze(g);
  }
}

/// True iff `a` and `b` answer every read identically; prints the first
/// difference to stderr.
bool SameReads(const std::string& what, graph::GraphView a,
               graph::GraphView b) {
  auto fail = [&](const std::string& why) {
    std::fprintf(stderr, "%s: %s\n", what.c_str(), why.c_str());
    return false;
  };
  if (a.NumObjects() != b.NumObjects() ||
      a.NumComplexObjects() != b.NumComplexObjects() ||
      a.NumEdges() != b.NumEdges()) {
    return fail("counts differ");
  }
  if (a.labels().size() != b.labels().size()) return fail("label counts");
  for (size_t l = 0; l < a.labels().size(); ++l) {
    auto id = static_cast<graph::LabelId>(l);
    if (a.labels().Name(id) != b.labels().Name(id)) return fail("label names");
  }
  for (graph::ObjectId o = 0; o < a.NumObjects(); ++o) {
    auto out_a = a.OutEdges(o), out_b = b.OutEdges(o);
    auto in_a = a.InEdges(o), in_b = b.InEdges(o);
    if (a.IsAtomic(o) != b.IsAtomic(o) || a.Value(o) != b.Value(o) ||
        a.Name(o) != b.Name(o) ||
        !std::equal(out_a.begin(), out_a.end(), out_b.begin(), out_b.end()) ||
        !std::equal(in_a.begin(), in_a.end(), in_b.begin(), in_b.end())) {
      return fail("object " + std::to_string(o) + " differs");
    }
  }
  return true;
}

struct Row {
  std::string dataset;
  const char* repr = "";
  size_t objects = 0, edges = 0;
  Spread build, freeze, fold, gfp, extract;
  size_t bytes = 0;
};

void Measure(graph::GraphView g, const typing::TypingProgram& program,
             int runs, Row* row) {
  row->objects = g.NumObjects();
  row->edges = g.NumEdges();
  row->gfp = TimeMs(runs, [&] {
    if (!typing::ComputeGfp(program, g).ok()) std::abort();
  });
  extract::ExtractorOptions opt;
  opt.target_num_types = 6;
  row->extract = TimeMs(runs, [&] {
    if (!extract::SchemaExtractor(opt).Run(g).ok()) std::abort();
  });
}

/// Measures one dataset into `rows` (data, then frozen); false if a
/// read disagreed.
bool RunDataset(const std::string& name, const graph::DataGraph& g, int runs,
                std::vector<Row>* rows) {
  auto frozen = graph::Freeze(g);
  graph::DeltaOverlay layered = MakeLayered(frozen);
  if (!SameReads(name + " built vs frozen", g, *frozen) ||
      !SameReads(name + " layered vs folded", layered, *Fold(layered))) {
    return false;
  }
  // The same typing program drives GFP on both representations.
  auto stage1 = typing::PerfectTypingViaHashRefinement(g);
  if (!stage1.ok()) std::abort();

  Row data;
  data.dataset = name;
  data.repr = "data";
  data.build = TimeMs(runs, [&] {
    graph::DataGraph rebuilt = Rebuild(g);
    if (rebuilt.NumEdges() != g.NumEdges()) std::abort();
  });
  Measure(g, stage1->program, runs, &data);
  data.bytes = g.MemoryUsage();

  Row froz;
  froz.dataset = name;
  froz.repr = "frozen";
  froz.freeze = TimeMs(runs, [&] {
    if (graph::Freeze(g)->NumEdges() != g.NumEdges()) std::abort();
  });
  froz.fold = TimeMs(runs, [&] {
    if (Fold(layered)->NumEdges() != layered.NumEdges()) std::abort();
  });
  Measure(*frozen, stage1->program, runs, &froz);
  froz.bytes = frozen->MemoryUsage();

  rows->push_back(std::move(data));
  rows->push_back(std::move(froz));
  return true;
}

std::string SpreadJson(const char* key, const Spread& s) {
  return util::StringPrintf(
      ",\"%s_median\":%.3f,\"%s_q1\":%.3f,\"%s_q3\":%.3f", key, s.median, key,
      s.q1, key, s.q3);
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--json] [--smoke]\n", argv[0]);
      return 2;
    }
  }
  const int runs = smoke ? 3 : 5;
  const unsigned cores = std::thread::hardware_concurrency();

  struct Dataset {
    std::string name;
    graph::DataGraph (*make)();
  };
  std::vector<Dataset> datasets;
  if (smoke) {
    datasets = {{"structured-x1", [] { return MakeStructured(1); }},
                {"db1-x2", [] { return MakeDb1(2); }}};
  } else {
    datasets = {{"structured-x1", [] { return MakeStructured(1); }},
                {"structured-x4", [] { return MakeStructured(4); }},
                {"structured-x16", [] { return MakeStructured(16); }},
                {"random-8k",
                 [] {
                   gen::RandomGraphOptions opt;
                   opt.num_complex = 4000;
                   opt.num_atomic = 4000;
                   opt.num_edges = 20000;
                   opt.num_labels = 8;
                   return gen::RandomGraph(opt);
                 }},
                {"db1-x100", [] { return MakeDb1(100); }}};
  }

  std::vector<Row> rows;
  for (const Dataset& d : datasets) {
    if (!RunDataset(d.name, d.make(), runs, &rows)) return 1;
  }

  std::vector<double> gfp_speedups, extract_speedups;
  for (size_t i = 0; i + 1 < rows.size(); i += 2) {
    gfp_speedups.push_back(rows[i].gfp.median / rows[i + 1].gfp.median);
    extract_speedups.push_back(rows[i].extract.median /
                               rows[i + 1].extract.median);
  }
  auto geomean = [](const std::vector<double>& v) {
    double log_sum = 0;
    for (double x : v) log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
  };

  if (!json) {
    util::TablePrinter table;
    table.SetHeader({"dataset", "repr", "objects", "edges", "build/freeze ms",
                     "fold ms", "gfp ms", "extract ms", "bytes"});
    for (const Row& r : rows) {
      const bool data = std::strcmp(r.repr, "data") == 0;
      table.AddRow({r.dataset, r.repr, std::to_string(r.objects),
                    std::to_string(r.edges),
                    util::StringPrintf("%.2f", data ? r.build.median
                                                    : r.freeze.median),
                    data ? "" : util::StringPrintf("%.2f", r.fold.median),
                    util::StringPrintf("%.2f", r.gfp.median),
                    util::StringPrintf("%.2f", r.extract.median),
                    std::to_string(r.bytes)});
    }
    table.Print(std::cout);
    std::printf("speedup frozen over data (geomean): gfp %.3fx, extract %.3fx\n",
                geomean(gfp_speedups), geomean(extract_speedups));
    return 0;
  }

  for (const Row& r : rows) {
    std::string line = util::StringPrintf(
        "{\"bench\":\"frozen\",\"dataset\":\"%s\",\"repr\":\"%s\","
        "\"objects\":%zu,\"edges\":%zu,\"runs\":%d",
        r.dataset.c_str(), r.repr, r.objects, r.edges, runs);
    if (std::strcmp(r.repr, "data") == 0) {
      line += SpreadJson("build_ms", r.build);
    } else {
      line += SpreadJson("freeze_ms", r.freeze);
      line += SpreadJson("fold_ms", r.fold);
    }
    line += SpreadJson("gfp_ms", r.gfp);
    line += SpreadJson("extract_ms", r.extract);
    line += util::StringPrintf(
        ",\"resident_bytes\":%zu,\"hardware_concurrency\":%u}", r.bytes,
        cores);
    std::printf("%s\n", line.c_str());
  }
  std::printf(
      "{\"bench\":\"frozen\",\"summary\":true,"
      "\"gfp_speedup_geomean\":%.3f,\"extract_speedup_geomean\":%.3f,"
      "\"hardware_concurrency\":%u}\n",
      geomean(gfp_speedups), geomean(extract_speedups), cores);
  return 0;
}
