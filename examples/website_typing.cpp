// Full three-stage pipeline on the DBG-like web-site dataset, with the
// paper's §7.2/§8 interactive workflow: run the sensitivity sweep, find
// the knee of the defect curve automatically, and recast the data at
// that "natural" type count — one pass, read off one clustering ladder.
//
//   $ ./examples/website_typing

#include <algorithm>
#include <iostream>

#include "extract/extractor.h"
#include "extract/knee.h"
#include "gen/dbg.h"
#include "util/string_util.h"

using namespace schemex;  // NOLINT

int main() {
  auto g = gen::MakeDbgDataset();
  if (!g.ok()) {
    std::cerr << g.status() << "\n";
    return 1;
  }
  std::cout << util::StringPrintf("DBG-like dataset: %zu objects, %zu links\n",
                                  g->NumObjects(), g->NumEdges());

  // Sweep k <= 20 (KneeOptions' default cap) off one clustering ladder,
  // pick the "natural" typing via the library's knee heuristic (§7.2's
  // optimal range, exposed as FindKnee / NaturalTypeCounts), and finish
  // the extraction at that k from the same ladder.
  extract::ExtractorOptions opt;
  opt.stage1 = extract::ExtractorOptions::Stage1Algorithm::kGfp;
  auto r = extract::ExtractAtKnee(*g, opt);
  if (!r.ok()) {
    std::cerr << r.status() << "\n";
    return 1;
  }
  std::cout << util::StringPrintf("perfect typing: %zu types\n\n",
                                  r->result.num_perfect_types);
  const extract::Knee& knee = r->knee;
  std::vector<size_t> natural = extract::NaturalTypeCounts(r->points);
  std::cout << util::StringPrintf(
      "knee of the defect curve: k = %zu (defect %zu; best in range %zu)\n",
      knee.k, knee.defect, knee.best_defect_in_range);
  std::cout << "natural type counts:";
  for (size_t k : natural) std::cout << " " << k;
  std::cout << "\n\n";

  // The program at the chosen size plus Stage-3 stats.
  const extract::ExtractionResult& x = r->result;
  std::cout << "final typing program:\n"
            << x.final_program.ToString(g->labels());
  std::cout << util::StringPrintf(
      "\nrecast: %zu objects fit a type exactly, %zu typed by nearest "
      "distance, %zu untyped\nfinal %s\n",
      x.recast.num_exact, x.recast.num_fallback, x.recast.num_untyped,
      x.defect.ToString().c_str());
  return 0;
}
