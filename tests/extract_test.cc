#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "extract/extractor.h"
#include "extract/knee.h"
#include "gen/dbg.h"
#include "gen/table1.h"
#include "json/import.h"
#include "tests/test_util.h"

namespace schemex::extract {
namespace {

using Stage1 = ExtractorOptions::Stage1Algorithm;

TEST(ExtractorTest, PerfectOnlyWhenNoTarget) {
  graph::DataGraph g = test::MakeFigure4Database();
  SchemaExtractor ex{ExtractorOptions{}};
  ASSERT_OK_AND_ASSIGN(ExtractionResult r, ex.Run(g));
  EXPECT_FALSE(r.clustering_applied);
  EXPECT_EQ(r.num_perfect_types, 3u);
  EXPECT_EQ(r.num_final_types, 3u);
  EXPECT_EQ(r.defect.defect(), 0u);  // perfect typing has no defect
}

TEST(ExtractorTest, BothStage1AlgorithmsAgreeOnDbg) {
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::MakeDbgDataset(3));
  ExtractorOptions a;
  a.stage1 = Stage1::kGfp;
  ExtractorOptions b;
  b.stage1 = Stage1::kRefinement;
  ASSERT_OK_AND_ASSIGN(ExtractionResult ra, SchemaExtractor(a).Run(g));
  ASSERT_OK_AND_ASSIGN(ExtractionResult rb, SchemaExtractor(b).Run(g));
  EXPECT_EQ(ra.num_perfect_types, rb.num_perfect_types);
}

TEST(ExtractorTest, DbgClusteringRecoversIntendedScale) {
  // The headline DBG behaviour (Fig. 1): dozens of perfect types, but 6
  // approximate types summarize the data with modest defect.
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::MakeDbgDataset());
  ExtractorOptions opt;
  opt.target_num_types = 6;
  ASSERT_OK_AND_ASSIGN(ExtractionResult r, SchemaExtractor(opt).Run(g));
  EXPECT_GT(r.num_perfect_types, 40u);
  EXPECT_EQ(r.num_final_types, 6u);
  EXPECT_TRUE(r.clustering_applied);
  // Defect is far below "no schema at all" (every link excess).
  EXPECT_LT(r.defect.defect(), g.NumEdges() / 2);
  // Every complex object ends up with at least one type (fallback on).
  EXPECT_EQ(r.recast.num_untyped, 0u);
}

TEST(ExtractorTest, RolesPassPropagatesToHomes) {
  graph::DataGraph g = test::MakeFigure5Database();
  ExtractorOptions opt;
  opt.decompose_roles = true;
  ASSERT_OK_AND_ASSIGN(ExtractionResult r, SchemaExtractor(opt).Run(g));
  EXPECT_TRUE(r.roles_applied);
  EXPECT_EQ(r.roles.num_eliminated, 1u);
  EXPECT_EQ(r.num_final_types, 2u);
  // The dual-role object has two home types.
  size_t multi_home = 0;
  for (const auto& hs : r.final_homes) {
    if (hs.size() == 2) ++multi_home;
  }
  EXPECT_EQ(multi_home, 1u);
}

TEST(ExtractorTest, TargetLargerThanPerfectIsIdentity) {
  graph::DataGraph g = test::MakeFigure4Database();
  ExtractorOptions opt;
  opt.target_num_types = 50;
  ASSERT_OK_AND_ASSIGN(ExtractionResult r, SchemaExtractor(opt).Run(g));
  EXPECT_FALSE(r.clustering_applied);
  EXPECT_EQ(r.num_final_types, 3u);
}

TEST(ExtractorTest, EmptyTypeCanAbsorbOutliers) {
  // With the empty type enabled and an aggressive target, some stage-1
  // types may map to nothing; their objects survive through recast.
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::MakeDbgDataset());
  ExtractorOptions opt;
  opt.target_num_types = 3;
  opt.enable_empty_type = true;
  ASSERT_OK_AND_ASSIGN(ExtractionResult r, SchemaExtractor(opt).Run(g));
  EXPECT_EQ(r.num_final_types, 3u);
  EXPECT_EQ(r.recast.assignment.NumObjects(), g.NumObjects());
}

TEST(ExtractorTest, JsonPipelineEndToEnd) {
  // JSON records in, typing program out — the library's quickstart path.
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, json::ImportJson(R"([
    {"name": "a", "email": "a@x"},
    {"name": "b", "email": "b@x"},
    {"name": "c", "email": "c@x", "phone": "3"},
    {"name": "d", "email": "d@x", "phone": "4"}
  ])"));
  ExtractorOptions opt;
  opt.target_num_types = 2;
  ASSERT_OK_AND_ASSIGN(ExtractionResult r, SchemaExtractor(opt).Run(g));
  // Perfect: root type + 2 record variants = 3; clustered to 2.
  EXPECT_EQ(r.num_perfect_types, 3u);
  EXPECT_EQ(r.num_final_types, 2u);
}

TEST(SensitivityTest, SweepIsCompleteAndMonotoneInDistance) {
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::MakeDbgDataset());
  ExtractorOptions opt;
  ASSERT_OK_AND_ASSIGN(std::vector<SensitivityPoint> pts,
                       SensitivitySweep(g, opt));
  ASSERT_GT(pts.size(), 10u);
  // First point is the perfect typing (defect 0), ks strictly decrease
  // down to 1, cumulative distance is non-decreasing.
  EXPECT_EQ(pts.front().defect, 0u);
  EXPECT_EQ(pts.back().k, 1u);
  for (size_t i = 1; i < pts.size(); ++i) {
    EXPECT_EQ(pts[i].k, pts[i - 1].k - 1);
    EXPECT_GE(pts[i].total_distance, pts[i - 1].total_distance);
  }
}

TEST(SensitivityTest, DefectExplodesAtTinyK) {
  // Figure 6's right-to-left read: k = 1 is far worse than the knee.
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::MakeDbgDataset());
  ExtractorOptions opt;
  ASSERT_OK_AND_ASSIGN(std::vector<SensitivityPoint> pts,
                       SensitivitySweep(g, opt));
  size_t defect_at_1 = 0, defect_at_8 = 0;
  for (const auto& p : pts) {
    if (p.k == 1) defect_at_1 = p.defect;
    if (p.k == 8) defect_at_8 = p.defect;
  }
  EXPECT_GT(defect_at_1, defect_at_8 * 2);
}

TEST(SensitivityTest, MinKRespected) {
  graph::DataGraph g = test::MakeFigure4Database();
  ExtractorOptions opt;
  ASSERT_OK_AND_ASSIGN(std::vector<SensitivityPoint> pts,
                       SensitivitySweep(g, opt, /*min_k=*/2));
  EXPECT_EQ(pts.back().k, 2u);
}

/// Field-by-field equality of two sweeps, so a mismatch names the k.
void ExpectSamePoints(const std::vector<SensitivityPoint>& got,
                      const std::vector<SensitivityPoint>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("k " + std::to_string(want[i].k));
    EXPECT_EQ(got[i].k, want[i].k);
    EXPECT_EQ(got[i].total_distance, want[i].total_distance);
    EXPECT_EQ(got[i].excess, want[i].excess);
    EXPECT_EQ(got[i].deficit, want[i].deficit);
    EXPECT_EQ(got[i].defect, want[i].defect);
  }
}

/// A sweep capped at max_k must be the full sweep's points with
/// k <= max_k, and the knee over it must be the full sweep's knee under
/// max_types = max_k; max_k = 0 is the full sweep.
void ExpectCappedSweepsExact(graph::GraphView g) {
  ExtractorOptions opt;
  ASSERT_OK_AND_ASSIGN(std::vector<SensitivityPoint> full,
                       SensitivitySweep(g, opt));
  ASSERT_FALSE(full.empty());
  const size_t n = full.front().k;  // the perfect typing
  ASSERT_GT(n, 20u);
  {
    ASSERT_OK_AND_ASSIGN(std::vector<SensitivityPoint> uncapped,
                         SensitivitySweep(g, opt, /*min_k=*/1, /*max_k=*/0));
    ExpectSamePoints(uncapped, full);
  }
  for (size_t m : {size_t{1}, size_t{6}, size_t{20}, n - 1, n, n + 5}) {
    SCOPED_TRACE("max_k " + std::to_string(m));
    ASSERT_OK_AND_ASSIGN(std::vector<SensitivityPoint> capped,
                         SensitivitySweep(g, opt, /*min_k=*/1, m));
    std::vector<SensitivityPoint> tail;
    for (const SensitivityPoint& p : full) {
      if (p.k <= m) tail.push_back(p);
    }
    EXPECT_EQ(capped.size(), std::min(n, m));
    ExpectSamePoints(capped, tail);
    KneeOptions knee;
    knee.max_types = m;
    Knee want = FindKnee(full, knee);
    Knee got = FindKnee(capped, knee);
    EXPECT_EQ(got.k, want.k);
    EXPECT_EQ(got.defect, want.defect);
  }
}

TEST(SensitivityTest, CappedSweepIsFullSweepTailOnDbg) {
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::MakeDbgDataset());
  ExpectCappedSweepsExact(g);
}

TEST(SensitivityTest, CappedSweepIsFullSweepTailOnTable1) {
  const gen::Table1Entry db2 = gen::Table1Datasets()[1];
  ASSERT_EQ(db2.db_name, "DB2");
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::MakeTable1Database(db2));
  ExpectCappedSweepsExact(g);
}

TEST(CancellationTest, CheckCancelAbortsBetweenStages) {
  // A counting hook makes cancellation deterministic: the first poll
  // (the Stage-1/2 boundary) succeeds, the second (Stage-2/3) cancels,
  // so the pipeline runs clustering but never recasts.
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::MakeDbgDataset());
  ExtractorOptions opt;
  opt.target_num_types = 6;

  int polls = 0;
  opt.check_cancel = [&polls]() -> util::Status {
    return ++polls >= 2 ? util::Status::DeadlineExceeded("budget spent")
                        : util::Status::OK();
  };
  auto r = SchemaExtractor(opt).Run(g);
  EXPECT_EQ(r.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(polls, 2);

  // Cancelling at the very first boundary stops even earlier.
  polls = 0;
  opt.check_cancel = [&polls]() -> util::Status {
    ++polls;
    return util::Status::DeadlineExceeded("budget spent");
  };
  r = SchemaExtractor(opt).Run(g);
  EXPECT_EQ(r.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(polls, 1);

  // A hook that never fires leaves the result untouched.
  opt.check_cancel = []() { return util::Status::OK(); };
  ASSERT_OK_AND_ASSIGN(ExtractionResult ok_result, SchemaExtractor(opt).Run(g));
  EXPECT_EQ(ok_result.num_final_types, 6u);
}

TEST(CancellationTest, SweepPollsBetweenSnapshots) {
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::MakeDbgDataset());
  ExtractorOptions opt;
  // Allow stage 1 plus a few snapshot recasts, then cancel: the sweep
  // must stop early instead of walking every k.
  int budget = 4;
  opt.check_cancel = [&budget]() -> util::Status {
    return --budget < 0 ? util::Status::DeadlineExceeded("budget spent")
                        : util::Status::OK();
  };
  auto pts = SensitivitySweep(g, opt);
  EXPECT_EQ(pts.status().code(), util::StatusCode::kDeadlineExceeded);

  // A capped sweep still polls through its recasts: a hook that fires on
  // the last poll of a clean capped run stops it after clustering.
  opt.parallelism = 1;  // a fixed poll count
  int polls = 0;
  opt.check_cancel = [&polls]() -> util::Status {
    ++polls;
    return util::Status::OK();
  };
  ASSERT_OK(SensitivitySweep(g, opt, /*min_k=*/1, /*max_k=*/6).status());
  const int clean_polls = polls;
  polls = 0;
  opt.check_cancel = [&polls, clean_polls]() -> util::Status {
    return ++polls >= clean_polls
               ? util::Status::DeadlineExceeded("budget spent")
               : util::Status::OK();
  };
  pts = SensitivitySweep(g, opt, /*min_k=*/1, /*max_k=*/6);
  EXPECT_EQ(pts.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(polls, clean_polls);
}

}  // namespace
}  // namespace schemex::extract
