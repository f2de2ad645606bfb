// Schema-guided query pruning — quantifying the paper's §1 motivation
// ("performance is greatly improved by taking advantage of the existing
// structure"). For a battery of path queries over a scaled-up DBG-style
// database, compares full evaluation against SchemaGuide-pruned
// evaluation under (a) the minimal perfect typing (pruning provably
// exact: zero excess) and (b) the 6-type approximate typing (pruning may
// under-report through excess edges; recall is measured).

#include <cstdio>
#include <iostream>

#include "extract/extractor.h"
#include "gen/dbg.h"
#include "gen/spec.h"
#include "query/path_query.h"
#include "query/schema_guide.h"
#include "typing/perfect_typing.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

using namespace schemex;  // NOLINT

graph::DataGraph MakeBigDbg() {
  gen::DatasetSpec spec = gen::DbgSpec();
  for (auto& t : spec.types) t.count *= 20;  // ~9k objects
  auto g = gen::Generate(spec, 77);
  return std::move(g).value();
}

int Run() {
  graph::DataGraph g = MakeBigDbg();
  std::cout << util::StringPrintf(
      "== Schema-guided path queries (DBG x20: %zu objects, %zu links) ==\n",
      g.NumObjects(), g.NumEdges());

  // Perfect typing: exact pruning.
  auto stage1 = typing::PerfectTypingViaHashRefinement(g);
  typing::TypeAssignment perfect_tau(g.NumObjects());
  for (size_t o = 0; o < stage1->home.size(); ++o) {
    if (stage1->home[o] != typing::kInvalidType) {
      perfect_tau.Assign(static_cast<graph::ObjectId>(o), stage1->home[o]);
    }
  }
  query::SchemaGuide perfect_guide(stage1->program, perfect_tau);

  // Approximate typing: 6 types.
  extract::ExtractorOptions opt;
  opt.target_num_types = 6;
  auto approx = extract::SchemaExtractor(opt).Run(g);
  query::SchemaGuide approx_guide(approx->final_program,
                                  approx->recast.assignment);

  util::TablePrinter table;
  table.SetHeader({"query", "results", "visited (full)",
                   "visited (perfect)", "visited (approx)", "speedup",
                   "approx recall"});
  for (const char* text :
       {"author.name", "advisor.email", "birthday.month", "degree.school",
        "project_member.advisor.name", "author.publication.name",
        "postscript", "nickname"}) {
    auto q = query::ParsePathQuery(text);
    query::QueryStats full_s, perf_s, approx_s;
    auto full = query::EvaluatePathQuery(g, *q, {}, &full_s);
    auto perf = perfect_guide.Evaluate(g, *q, &perf_s);
    auto appr = approx_guide.Evaluate(g, *q, &approx_s);
    if (perf != full) {
      std::cerr << "BUG: perfect-typing pruning changed the result of "
                << text << "\n";
      return 1;
    }
    size_t hit = 0;
    for (graph::ObjectId o : appr) {
      hit += std::binary_search(full.begin(), full.end(), o) ? 1 : 0;
    }
    double recall = full.empty() ? 1.0
                                 : static_cast<double>(hit) /
                                       static_cast<double>(full.size());
    table.AddRow(
        {text, util::StringPrintf("%zu", full.size()),
         util::StringPrintf("%zu", full_s.objects_visited),
         util::StringPrintf("%zu", perf_s.objects_visited),
         util::StringPrintf("%zu", approx_s.objects_visited),
         util::StringPrintf("%.1fx", perf_s.objects_visited == 0
                                         ? 0.0
                                         : static_cast<double>(
                                               full_s.objects_visited) /
                                               static_cast<double>(
                                                   perf_s.objects_visited)),
         util::StringPrintf("%.0f%%", 100.0 * recall)});
  }
  table.Print(std::cout);
  std::cout << "\nReading: pruning with the (zero-excess) perfect typing "
               "is exact and skips most of the\ndatabase; the compact "
               "approximate schema prunes further at the cost of recall "
               "through\nexcess edges — the defect/size trade-off again, "
               "now on the query path.\n";
  return 0;
}

}  // namespace

int main() { return Run(); }
