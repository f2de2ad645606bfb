// Micro-benchmarks (google-benchmark) for the computational claims of §4
// "Computational Efficiency":
//  * the specialized worklist GFP vs the generic datalog evaluator on the
//    same typing programs (the paper's "double-quadratic" naive bound vs
//    the differential approach);
//  * Stage 1 via the literal candidate-program + extent-merge algorithm
//    (the test oracle in tests/gfp_oracle.h), via the same merge over
//    one candidate per bisimulation class (typing::PerfectTypingViaGfp),
//    and via partition refinement ("bisimulation-style computation"),
//    across database sizes;
//  * greedy clustering cost as the number of Stage-1 types grows.

#include <benchmark/benchmark.h>

#include "baseline/dataguide.h"
#include "cluster/greedy.h"
#include "datalog/evaluator.h"
#include "extract/extractor.h"
#include "gen/dbg.h"
#include "gen/random_graph.h"
#include "gen/spec.h"
#include "tests/gfp_oracle.h"
#include "typing/gfp.h"
#include "typing/perfect_typing.h"

namespace {

using namespace schemex;  // NOLINT

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

void BM_GfpSpecialized(benchmark::State& state) {
  graph::DataGraph g = MakeStructured(static_cast<int>(state.range(0)));
  auto stage1 = typing::PerfectTypingViaHashRefinement(g);
  for (auto _ : state) {
    auto m = typing::ComputeGfp(stage1->program, g);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.NumObjects()));
}
BENCHMARK(BM_GfpSpecialized)->Arg(1)->Arg(4)->Arg(16);

void BM_GfpGenericDatalog(benchmark::State& state) {
  graph::DataGraph g = MakeStructured(static_cast<int>(state.range(0)));
  auto stage1 = typing::PerfectTypingViaHashRefinement(g);
  datalog::Program p = stage1->program.ToDatalog();
  for (auto _ : state) {
    auto m = datalog::Evaluate(p, g);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.NumObjects()));
}
BENCHMARK(BM_GfpGenericDatalog)->Arg(1)->Arg(4);

void BM_Stage1ViaGfp(benchmark::State& state) {
  graph::DataGraph g = MakeStructured(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto r = typing::PerfectTypingViaGfp(g);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Stage1ViaGfp)->Arg(1)->Arg(4)->Arg(16);

void BM_Stage1GfpOracle(benchmark::State& state) {
  graph::DataGraph g = MakeStructured(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto r = typing::CandidateGfpOracle(g);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Stage1GfpOracle)->Arg(1)->Arg(4)->Arg(16);

void BM_Stage1ViaHashRefinement(benchmark::State& state) {
  graph::DataGraph g = MakeStructured(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto r = typing::PerfectTypingViaHashRefinement(g);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Stage1ViaHashRefinement)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_Stage1RefinementRandom(benchmark::State& state) {
  // Random (irregular) graphs: the worst case for type counts.
  gen::RandomGraphOptions opt;
  opt.num_complex = static_cast<size_t>(state.range(0));
  opt.num_atomic = opt.num_complex;
  opt.num_edges = opt.num_complex * 3;
  opt.num_labels = 8;
  opt.seed = 99;
  graph::DataGraph g = gen::RandomGraph(opt);
  for (auto _ : state) {
    auto r = typing::PerfectTypingViaHashRefinement(g);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Stage1RefinementRandom)->Arg(100)->Arg(1000)->Arg(10000);

void BM_GreedyClustering(benchmark::State& state) {
  graph::DataGraph g = gen::RandomGraph(gen::RandomGraphOptions{
      .num_complex = static_cast<size_t>(state.range(0)),
      .num_atomic = static_cast<size_t>(state.range(0)),
      .num_edges = static_cast<size_t>(state.range(0)) * 2,
      .num_labels = 6,
      .atomic_target_fraction = 0.5,
      .seed = 5});
  auto stage1 = typing::PerfectTypingViaHashRefinement(g);
  cluster::ClusteringOptions copt;
  copt.target_num_types = 5;
  for (auto _ : state) {
    auto r = cluster::ClusterTypes(stage1->program, stage1->weight, copt);
    benchmark::DoNotOptimize(r);
  }
  state.counters["stage1_types"] =
      static_cast<double>(stage1->program.NumTypes());
}
BENCHMARK(BM_GreedyClustering)->Arg(50)->Arg(150)->Arg(400);

void BM_FullPipelineDbg(benchmark::State& state) {
  auto g = gen::MakeDbgDataset();
  extract::ExtractorOptions opt;
  opt.target_num_types = 6;
  extract::SchemaExtractor ex(opt);
  for (auto _ : state) {
    auto r = ex.Run(*g);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_FullPipelineDbg);

void BM_SensitivitySweepDbg(benchmark::State& state) {
  auto g = gen::MakeDbgDataset();
  extract::ExtractorOptions opt;
  for (auto _ : state) {
    auto pts = extract::SensitivitySweep(*g, opt);
    benchmark::DoNotOptimize(pts);
  }
}
BENCHMARK(BM_SensitivitySweepDbg);

/// Naive vs semi-naive LFP on an L-shaped reachability program over a
/// long chain — the paper's §4 pointer to "differentiation techniques".
graph::DataGraph MakeChain(size_t n) {
  graph::DataGraph g;
  graph::ObjectId flag = g.AddAtomic("1");
  graph::ObjectId prev = g.AddComplex("n0");
  (void)g.AddEdge(prev, flag, "start");
  for (size_t i = 1; i < n; ++i) {
    graph::ObjectId next = g.AddComplex("n" + std::to_string(i));
    (void)g.AddEdge(prev, next, "next");
    prev = next;
  }
  return g;
}

datalog::Program ReachProgram(graph::DataGraph* g) {
  datalog::Program p;
  datalog::PredId reach = p.AddPred("reach");
  graph::LabelId start = g->InternLabel("start");
  graph::LabelId next = g->InternLabel("next");
  {
    datalog::Rule base;
    base.head_pred = reach;
    base.num_vars = 2;
    base.body = {datalog::Atom::Link(0, 1, start), datalog::Atom::Atomic(1)};
    p.rules.push_back(base);
  }
  {
    datalog::Rule step;
    step.head_pred = reach;
    step.num_vars = 2;
    step.body = {datalog::Atom::Link(1, 0, next), datalog::Atom::Idb(reach, 1)};
    p.rules.push_back(step);
  }
  return p;
}

void BM_LfpNaiveChain(benchmark::State& state) {
  graph::DataGraph g = MakeChain(static_cast<size_t>(state.range(0)));
  datalog::Program p = ReachProgram(&g);
  datalog::EvalOptions opt;
  opt.fixpoint = datalog::FixpointKind::kLeast;
  for (auto _ : state) {
    auto m = datalog::Evaluate(p, g, opt);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_LfpNaiveChain)->Arg(50)->Arg(200);

void BM_LfpSemiNaiveChain(benchmark::State& state) {
  graph::DataGraph g = MakeChain(static_cast<size_t>(state.range(0)));
  datalog::Program p = ReachProgram(&g);
  datalog::EvalOptions opt;
  opt.fixpoint = datalog::FixpointKind::kLeast;
  opt.strategy = datalog::Strategy::kSemiNaive;
  for (auto _ : state) {
    auto m = datalog::Evaluate(p, g, opt);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_LfpSemiNaiveChain)->Arg(50)->Arg(200)->Arg(1000);

void BM_StrongDataGuideDbg(benchmark::State& state) {
  auto g = gen::MakeDbgDataset();
  for (auto _ : state) {
    auto guide = baseline::BuildStrongDataGuide(*g);
    benchmark::DoNotOptimize(guide);
  }
}
BENCHMARK(BM_StrongDataGuideDbg);

}  // namespace

BENCHMARK_MAIN();
