// Stage-2 algorithm ablation: the greedy agglomerative clustering (§5,
// used in the paper's experiments), the §5.2 k-center "variation", and —
// on instances small enough to enumerate — the exhaustive optimum over
// the same search space. The paper cites an O(log n)-approximation for
// greedy under assumptions [11]; the "gap" columns measure it.

#include <cstdio>
#include <iostream>

#include "cluster/exact.h"
#include "cluster/greedy.h"
#include "cluster/kcenter.h"
#include "extract/extractor.h"
#include "gen/dbg.h"
#include "gen/spec.h"
#include "typing/defect.h"
#include "typing/recast.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

using namespace schemex;  // NOLINT
using typing::TypeId;

/// Defect of a (program, stage1->final map) pair on g.
util::StatusOr<size_t> MeasureDefect(
    const graph::DataGraph& g, const typing::PerfectTypingResult& stage1,
    const typing::TypingProgram& program,
    const std::vector<TypeId>& map) {
  std::vector<std::vector<TypeId>> homes(g.NumObjects());
  for (size_t o = 0; o < stage1.home.size(); ++o) {
    if (stage1.home[o] == typing::kInvalidType) continue;
    TypeId m = map[static_cast<size_t>(stage1.home[o])];
    if (m != cluster::kEmptyType) homes[o] = {m};
  }
  SCHEMEX_ASSIGN_OR_RETURN(typing::RecastResult recast,
                           typing::Recast(program, g, homes));
  return typing::ComputeDefect(program, g, recast.assignment).defect();
}

int Run() {
  std::cout << "== Stage-2 ablation: greedy vs k-center vs exact ==\n";
  util::TablePrinter table;
  table.SetHeader({"dataset", "stage1 types", "k", "greedy(psi2)",
                   "k-center", "exact", "greedy gap", "note"});

  struct Workload {
    std::string name;
    graph::DataGraph g;
    size_t k;
  };
  std::vector<Workload> workloads;

  // Small instances (exact feasible).
  for (uint64_t seed : {11u, 22u, 33u}) {
    gen::DatasetSpec spec;
    spec.name = "tiny";
    spec.atomic_pool_per_label = 4;
    spec.types.push_back(gen::TypeSpec{
        "u", 15, {{"p", gen::kAtomicTarget, 1.0},
                  {"q", gen::kAtomicTarget, 0.5}}});
    spec.types.push_back(gen::TypeSpec{
        "v", 15, {{"r", gen::kAtomicTarget, 1.0},
                  {"s", gen::kAtomicTarget, 0.5}}});
    auto g = gen::Generate(spec, seed);
    workloads.push_back(
        {util::StringPrintf("tiny-%llu",
                            static_cast<unsigned long long>(seed)),
         std::move(g).value(), 2});
  }
  // DBG (exact infeasible; heuristics only).
  {
    auto g = gen::MakeDbgDataset();
    workloads.push_back({"DBG", std::move(g).value(), 6});
  }

  for (const Workload& w : workloads) {
    auto stage1 = typing::PerfectTypingViaHashRefinement(w.g);
    if (!stage1.ok()) continue;

    cluster::ClusteringOptions gopt;
    gopt.target_num_types = w.k;
    gopt.enable_empty_type = false;
    auto greedy = cluster::ClusterTypes(stage1->program, stage1->weight, gopt);
    auto greedy_defect =
        MeasureDefect(w.g, *stage1, greedy->final_program, greedy->final_map);

    auto kcenter =
        cluster::KCenterCluster(stage1->program, stage1->weight, w.k);
    auto kcenter_defect =
        MeasureDefect(w.g, *stage1, kcenter->program, kcenter->map);

    std::string exact_str = "-", gap = "-", note;
    if (stage1->program.NumTypes() <= 9) {
      cluster::ExactOptions eopt;
      eopt.k = w.k;
      auto exact = cluster::ExactOptimalTyping(w.g, *stage1, eopt);
      if (exact.ok()) {
        exact_str = util::StringPrintf("%zu", exact->defect);
        if (exact->defect > 0) {
          gap = util::StringPrintf(
              "%.2fx", static_cast<double>(*greedy_defect) /
                           static_cast<double>(exact->defect));
        } else {
          gap = *greedy_defect == 0 ? "1.00x" : "inf";
        }
        note = util::StringPrintf("%zu partitions", exact->partitions_tried);
      }
    } else {
      note = "exact skipped (too many stage-1 types)";
    }
    table.AddRow({w.name,
                  util::StringPrintf("%zu", stage1->program.NumTypes()),
                  util::StringPrintf("%zu", w.k),
                  util::StringPrintf("%zu", *greedy_defect),
                  util::StringPrintf("%zu", *kcenter_defect), exact_str, gap,
                  note});
  }
  table.Print(std::cout);
  std::cout << "\nReading: greedy should track the exact optimum closely on "
               "small instances; the k-center\nvariation is competitive but "
               "chases outliers when the hypercube is densely populated "
               "(§5.2's caveat).\n";
  return 0;
}

}  // namespace

int main() { return Run(); }
