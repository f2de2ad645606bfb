// DataGraph vs FrozenGraph on identical workloads: the specialized GFP
// solver and the full three-stage extraction, at several database scales.
// One JSON row per (dataset, representation) pair, e.g.
//   {"bench":"frozen","dataset":"structured-x4","repr":"frozen", ...}
// plus a closing summary row with the frozen/data speedup ratios, so the
// acceptance criterion ("FrozenGraph no slower") is machine-checkable.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "extract/extractor.h"
#include "gen/random_graph.h"
#include "gen/spec.h"
#include "graph/frozen_graph.h"
#include "graph/graph_view.h"
#include "typing/gfp.h"
#include "typing/perfect_typing.h"

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

/// Best-of-`reps` wall time of `fn`, in milliseconds.
template <typename Fn>
double BestMs(int reps, Fn&& fn) {
  double best = 1e100;
  for (int i = 0; i < reps; ++i) {
    auto t0 = Clock::now();
    fn();
    best = std::min(best,
                    std::chrono::duration<double, std::milli>(Clock::now() - t0)
                        .count());
  }
  return best;
}

struct Measurement {
  double gfp_ms;
  double extract_ms;
  size_t bytes;
};

Measurement Measure(graph::GraphView g, const typing::TypingProgram& program,
                    size_t bytes, int reps) {
  Measurement m;
  m.bytes = bytes;
  m.gfp_ms = BestMs(reps, [&] {
    auto extents = typing::ComputeGfp(program, g);
    if (!extents.ok()) std::abort();
  });
  extract::ExtractorOptions opt;
  opt.target_num_types = 6;
  m.extract_ms = BestMs(reps, [&] {
    auto r = extract::SchemaExtractor(opt).Run(g);
    if (!r.ok()) std::abort();
  });
  return m;
}

void EmitRow(const std::string& dataset, const char* repr,
             size_t objects, size_t edges, const Measurement& m) {
  std::printf(
      "{\"bench\":\"frozen\",\"dataset\":\"%s\",\"repr\":\"%s\","
      "\"objects\":%zu,\"edges\":%zu,\"gfp_ms\":%.3f,\"extract_ms\":%.3f,"
      "\"resident_bytes\":%zu}\n",
      dataset.c_str(), repr, objects, edges, m.gfp_ms, m.extract_ms, m.bytes);
}

void RunDataset(const std::string& name, const graph::DataGraph& g, int reps,
                std::vector<double>* gfp_speedups,
                std::vector<double>* extract_speedups) {
  auto frozen = graph::Freeze(g);
  // The same typing program drives GFP on both representations.
  auto stage1 = typing::PerfectTypingViaHashRefinement(g);
  if (!stage1.ok()) std::abort();

  Measurement data =
      Measure(g, stage1->program, g.MemoryUsage(), reps);
  Measurement froz =
      Measure(*frozen, stage1->program, frozen->MemoryUsage(), reps);

  EmitRow(name, "data", g.NumObjects(), g.NumEdges(), data);
  EmitRow(name, "frozen", g.NumObjects(), g.NumEdges(), froz);
  gfp_speedups->push_back(data.gfp_ms / froz.gfp_ms);
  extract_speedups->push_back(data.extract_ms / froz.extract_ms);
}

}  // namespace

int main(int argc, char** argv) {
  int reps = argc > 1 ? std::atoi(argv[1]) : 5;
  std::vector<double> gfp_speedups, extract_speedups;

  for (int scale : {1, 4, 16}) {
    RunDataset("structured-x" + std::to_string(scale), MakeStructured(scale),
               reps, &gfp_speedups, &extract_speedups);
  }
  {
    gen::RandomGraphOptions opt;
    opt.num_complex = 4000;
    opt.num_atomic = 4000;
    opt.num_edges = 20000;
    opt.num_labels = 8;
    RunDataset("random-8k", gen::RandomGraph(opt), reps, &gfp_speedups,
               &extract_speedups);
  }

  auto geomean = [](const std::vector<double>& v) {
    double log_sum = 0;
    for (double x : v) log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
  };
  std::printf(
      "{\"bench\":\"frozen\",\"summary\":true,"
      "\"gfp_speedup_geomean\":%.3f,\"extract_speedup_geomean\":%.3f}\n",
      geomean(gfp_speedups), geomean(extract_speedups));
  return 0;
}
