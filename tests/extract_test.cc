#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/greedy.h"
#include "extract/extractor.h"
#include "extract/knee.h"
#include "gen/dbg.h"
#include "gen/spec.h"
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
  // Per-stage timings are populated.
  EXPECT_GT(r.timings.total_ms, 0.0);
  EXPECT_GE(r.timings.total_ms, r.timings.stage1_ms);
  EXPECT_GE(r.timings.stage1_ms, 0.0);
  EXPECT_GE(r.timings.cluster_ms, 0.0);
  EXPECT_GE(r.timings.recast_ms, 0.0);
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
                         SensitivitySweep(g, opt, /*max_k=*/0));
    ExpectSamePoints(uncapped, full);
  }
  for (size_t m : {size_t{1}, size_t{6}, size_t{20}, n - 1, n, n + 5}) {
    SCOPED_TRACE("max_k " + std::to_string(m));
    ASSERT_OK_AND_ASSIGN(std::vector<SensitivityPoint> capped,
                         SensitivitySweep(g, opt, m));
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

/// The ExtractAtKnee inputs: Table 1's DB1–DB8 (DB3's knee is its n),
/// "DBG<seed>x<scale>", "DB1x10" and "empty" (whose knee is 0).
util::StatusOr<graph::DataGraph> MakeKneeInput(const std::string& name) {
  if (name == "empty") return graph::DataGraph();
  const std::vector<gen::Table1Entry> table1 = gen::Table1Datasets();
  for (const gen::Table1Entry& e : table1) {
    if (e.db_name == name) return gen::MakeTable1Database(e);
  }
  gen::DatasetSpec spec = table1.front().spec;
  unsigned seed = static_cast<unsigned>(table1.front().generation_seed);
  unsigned scale = 10;
  if (name != "DB1x10") {
    EXPECT_EQ(std::sscanf(name.c_str(), "DBG%ux%u", &seed, &scale), 2);
    spec = gen::DbgSpec();
  }
  for (gen::TypeSpec& t : spec.types) t.count *= scale;
  return gen::Generate(spec, seed);
}

void ExpectSameClustering(const cluster::ClusteringResult& got,
                          const cluster::ClusteringResult& want) {
  ASSERT_EQ(got.steps.size(), want.steps.size());
  for (size_t i = 0; i < want.steps.size(); ++i) {
    EXPECT_EQ(got.steps[i].num_types_after, want.steps[i].num_types_after);
    EXPECT_EQ(got.steps[i].source, want.steps[i].source) << "step " << i;
    EXPECT_EQ(got.steps[i].dest, want.steps[i].dest) << "step " << i;
    EXPECT_EQ(got.steps[i].simple_d, want.steps[i].simple_d) << "step " << i;
    EXPECT_EQ(got.steps[i].cost, want.steps[i].cost) << "step " << i;
  }
  EXPECT_TRUE(got.final_program == want.final_program);
  EXPECT_EQ(got.final_map, want.final_map);
  EXPECT_EQ(got.final_weights, want.final_weights);
  EXPECT_EQ(got.total_distance, want.total_distance);
}

void ExpectSameCounters(const cluster::ClusteringCounters& got,
                        const cluster::ClusteringCounters& want) {
  EXPECT_EQ(got.rows_computed, want.rows_computed);
  EXPECT_EQ(got.postings_walked, want.postings_walked);
  EXPECT_EQ(got.candidates_priced, want.candidates_priced);
  EXPECT_EQ(got.rescans_own_body_changed, want.rescans_own_body_changed);
  EXPECT_EQ(got.rescans_dest_died, want.rescans_dest_died);
  EXPECT_EQ(got.rescans_dest_changed, want.rescans_dest_changed);
  EXPECT_EQ(got.rescans_is_dest, want.rescans_is_dest);
  EXPECT_EQ(got.rescans_dest_weight_priced, want.rescans_dest_weight_priced);
}

/// The counters of one ClusterTypes ladder down to k = 1 over the
/// Stage-2 inputs `r` clustered: the perfect typing, or the roles pass's
/// program and homes.
cluster::ClusteringCounters LadderCounters(const ExtractionResult& r,
                                           const ExtractorOptions& opt) {
  const typing::TypingProgram& program =
      r.roles_applied ? r.roles.program : r.perfect.program;
  std::vector<uint32_t> weights = r.perfect.weight;
  if (r.roles_applied) {
    weights.assign(program.NumTypes(), 0);
    for (const auto& hs : r.roles.MapHomes(r.perfect.home)) {
      for (typing::TypeId t : hs) ++weights[static_cast<size_t>(t)];
    }
  }
  cluster::ClusteringOptions copt;
  copt.psi = opt.psi;
  copt.enable_empty_type = opt.enable_empty_type;
  copt.target_num_types = 1;
  auto ladder = cluster::ClusterTypes(program, weights, copt);
  EXPECT_TRUE(ladder.ok()) << ladder.status().ToString();
  return ladder.ok() ? ladder->counters : cluster::ClusteringCounters{};
}

class ExtractAtKneeTest : public ::testing::TestWithParam<std::string> {};

/// ExtractAtKnee must equal the two passes it replaces: its points are
/// the capped sweep's (the full sweep's tail, as the CappedSweep tests
/// pin), its knee FindKnee's over them, and its result
/// SchemaExtractor::Run's at the knee. The result's clustering is the
/// one ladder's rung: no snapshots, and that ladder's counters (a second
/// run to k would count less work).
TEST_P(ExtractAtKneeTest, EqualsSweepKneeAndRunAtTheKnee) {
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, MakeKneeInput(GetParam()));
  for (Stage1 stage1 : {Stage1::kRefinement, Stage1::kGfp}) {
    for (bool roles : {false, true}) {
      ExtractorOptions opt;
      opt.stage1 = stage1;
      opt.decompose_roles = roles;
      ASSERT_OK_AND_ASSIGN(std::vector<SensitivityPoint> full,
                           SensitivitySweep(g, opt));
      ASSERT_FALSE(full.empty());
      const size_t n = full.front().k;  // the type count Stage 2 starts from
      for (size_t max_types : {size_t{1}, size_t{5}, size_t{20}, n, n + 5}) {
        SCOPED_TRACE(std::string(stage1 == Stage1::kGfp ? "gfp" : "refinement") +
                     (roles ? " roles" : "") + " max_types " +
                     std::to_string(max_types) + " n " + std::to_string(n));
        KneeOptions knee_opt;
        knee_opt.max_types = max_types;
        ASSERT_OK_AND_ASSIGN(KneeExtraction got,
                             ExtractAtKnee(g, opt, knee_opt));
        std::vector<SensitivityPoint> points;
        for (const SensitivityPoint& p : full) {
          if (max_types == 0 || p.k <= max_types) points.push_back(p);
        }
        ExpectSamePoints(got.points, points);
        const Knee knee = FindKnee(points, knee_opt);
        EXPECT_EQ(got.knee.k, knee.k);
        EXPECT_EQ(got.knee.defect, knee.defect);
        EXPECT_EQ(got.knee.best_defect_in_range, knee.best_defect_in_range);

        ExtractorOptions at_knee = opt;
        at_knee.target_num_types = knee.k;
        ASSERT_OK_AND_ASSIGN(ExtractionResult want,
                             SchemaExtractor(at_knee).Run(g));
        const ExtractionResult& r = got.result;
        EXPECT_TRUE(r.final_program == want.final_program);
        EXPECT_EQ(r.final_homes, want.final_homes);
        EXPECT_TRUE(r.recast.assignment == want.recast.assignment);
        EXPECT_EQ(r.defect.excess, want.defect.excess);
        EXPECT_EQ(r.defect.deficit, want.defect.deficit);
        EXPECT_EQ(r.num_perfect_types, want.num_perfect_types);
        EXPECT_EQ(r.num_final_types, want.num_final_types);
        EXPECT_EQ(r.clustering_applied, want.clustering_applied);
        EXPECT_EQ(r.roles_applied, want.roles_applied);
        ExpectSameClustering(r.clustering, want.clustering);
        EXPECT_TRUE(r.clustering.snapshots.empty());
        if (r.clustering_applied) {
          ExpectSameCounters(r.clustering.counters, LadderCounters(r, opt));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, ExtractAtKneeTest,
    ::testing::Values("DB1", "DB2", "DB3", "DB4", "DB5", "DB6", "DB7", "DB8",
                      "DBG42x1", "DBG1x1", "DBG2x1", "DBG3x1", "DBG42x2",
                      "DBG1x2", "DBG2x2", "DBG3x2", "DB1x10", "empty"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(ExtractAtKneeTest, KneeAtNSkipsStage2AndEmptyGraphKeepsThePerfectTyping) {
  // DB3's knee under the default cap is its whole perfect typing.
  const gen::Table1Entry db3 = gen::Table1Datasets()[2];
  ASSERT_EQ(db3.db_name, "DB3");
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::MakeTable1Database(db3));
  ASSERT_OK_AND_ASSIGN(KneeExtraction at_n, ExtractAtKnee(g, {}));
  EXPECT_EQ(at_n.knee.k, at_n.result.num_perfect_types);
  EXPECT_FALSE(at_n.result.clustering_applied);

  ASSERT_OK_AND_ASSIGN(KneeExtraction empty,
                       ExtractAtKnee(graph::DataGraph(), {}));
  EXPECT_EQ(empty.knee.k, 0u);
  EXPECT_FALSE(empty.result.clustering_applied);
  EXPECT_EQ(empty.result.num_final_types, 0u);
}

TEST(ExtractAtKneeTest, TimingsCountEachIntervalOnce) {
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::MakeDbgDataset());
  ASSERT_OK_AND_ASSIGN(KneeExtraction got, ExtractAtKnee(g, {}));
  const StageTimings& t = got.result.timings;
  EXPECT_TRUE(got.result.clustering_applied);
  EXPECT_GT(t.cluster_ms, 0.0);
  EXPECT_GT(t.sweep_ms, 0.0);
  EXPECT_GT(t.recast_ms, 0.0);
  EXPECT_GE(t.total_ms, t.stage1_ms + t.cluster_ms + t.sweep_ms + t.recast_ms);
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
  int polls = 0;
  opt.check_cancel = [&polls]() -> util::Status {
    ++polls;
    return util::Status::OK();
  };
  ASSERT_OK(SensitivitySweep(g, opt, /*max_k=*/6).status());
  const int clean_polls = polls;
  polls = 0;
  opt.check_cancel = [&polls, clean_polls]() -> util::Status {
    return ++polls >= clean_polls
               ? util::Status::DeadlineExceeded("budget spent")
               : util::Status::OK();
  };
  pts = SensitivitySweep(g, opt, /*max_k=*/6);
  EXPECT_EQ(pts.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(polls, clean_polls);
}

}  // namespace
}  // namespace schemex::extract
