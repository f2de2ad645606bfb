// The reproduced paper numbers, pinned. Table 1 (DB1-DB8) and Figure 6
// (the DBG sensitivity sweep and its knee) are recomputed the way
// bench_table1 and bench_figure6 compute them and compared, byte for
// byte, with tests/paper_results.golden. A change that moves any number
// EXPERIMENTS.md compares with the paper fails here; regenerate the file
// from this test's failure output only when the move is intended, and
// say which number moved and why.

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "cluster/distance.h"
#include "extract/extractor.h"
#include "extract/knee.h"
#include "gen/dbg.h"
#include "gen/table1.h"
#include "tests/test_util.h"
#include "typing/perfect_typing.h"
#include "util/string_util.h"

namespace schemex {
namespace {

/// Table 1: one line per database. Perfect types are counted by both
/// Stage-1 engines; the optimal typing is the default pipeline (hash
/// refinement, psi2) clustered to the intended type count.
void AppendTable1(std::string* out) {
  out->append(
      "# Table 1: db objects links perfect_hash perfect_gfp optimal "
      "excess deficit\n");
  for (const gen::Table1Entry& entry : gen::Table1Datasets()) {
    ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::MakeTable1Database(entry));
    ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult hash,
                         typing::PerfectTypingViaHashRefinement(g));
    ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult gfp,
                         typing::PerfectTypingViaGfp(g));
    extract::ExtractorOptions opt;
    opt.target_num_types = entry.intended_types;
    opt.psi = cluster::PsiKind::kPsi2;
    ASSERT_OK_AND_ASSIGN(extract::ExtractionResult r,
                         extract::SchemaExtractor(opt).Run(g));
    out->append(util::StringPrintf(
        "%s %zu %zu %zu %zu %zu %zu %zu\n", entry.db_name.c_str(),
        g.NumObjects(), g.NumEdges(), hash.program.NumTypes(),
        gfp.program.NumTypes(), r.num_final_types, r.defect.excess,
        r.defect.deficit));
  }
}

/// Figure 6: every point of the DBG sweep (k from the perfect-type count
/// down to 1), then the knee under the service's default KneeOptions.
void AppendFigure6(std::string* out) {
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::MakeDbgDataset());
  extract::ExtractorOptions opt;
  opt.psi = cluster::PsiKind::kPsi2;
  ASSERT_OK_AND_ASSIGN(std::vector<extract::SensitivityPoint> points,
                       extract::SensitivitySweep(g, opt));
  out->append("# Figure 6 (DBG): k total_distance excess deficit\n");
  for (const extract::SensitivityPoint& p : points) {
    out->append(util::StringPrintf("%zu %.6f %zu %zu\n", p.k,
                                   p.total_distance, p.excess, p.deficit));
  }
  out->append(
      util::StringPrintf("knee %zu\n", extract::FindKnee(points).k));
}

TEST(PaperResultsTest, MatchesGolden) {
  std::string actual;
  AppendTable1(&actual);
  AppendFigure6(&actual);

  const std::string path =
      std::string(SCHEMEX_TESTS_DIR) + "/paper_results.golden";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot read " << path;
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(actual, golden.str())
      << "reproduced paper numbers moved; the recomputed file is:\n"
      << actual;
}

}  // namespace
}  // namespace schemex
