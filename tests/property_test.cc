// Cross-module property tests: invariants that must hold on arbitrary
// (seeded random or generated) databases, parameterized over seeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>

#include "baseline/dataguide.h"
#include "cluster/greedy.h"
#include "datalog/evaluator.h"
#include "extract/extractor.h"
#include "gen/random_graph.h"
#include "gen/spec.h"
#include "graph/graph_io.h"
#include "query/path_query.h"
#include "tests/test_util.h"
#include "typing/defect.h"
#include "typing/gfp.h"
#include "typing/perfect_typing.h"
#include "typing/recast.h"

namespace schemex {
namespace {

class RandomGraphProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  graph::DataGraph MakeGraph() const {
    gen::RandomGraphOptions opt;
    opt.num_complex = 60;
    opt.num_atomic = 40;
    opt.num_edges = 150;
    opt.num_labels = 5;
    opt.atomic_target_fraction = 0.4;
    opt.seed = GetParam();
    return gen::RandomGraph(opt);
  }
};

TEST_P(RandomGraphProperty, GraphIoRoundTripPreservesEverything) {
  graph::DataGraph g = MakeGraph();
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g2, graph::ReadGraph(WriteGraph(g)));
  ASSERT_OK(g2.Validate());
  ASSERT_EQ(g.NumObjects(), g2.NumObjects());
  ASSERT_EQ(g.NumEdges(), g2.NumEdges());
  // Edge multiset identical (by names, since label ids may permute).
  EXPECT_EQ(WriteGraph(g), WriteGraph(g2));
}

TEST_P(RandomGraphProperty, GfpIsAFixpoint) {
  // Every member of every extent satisfies its signature under the
  // extents; and extents are closed (no removable member was kept).
  graph::DataGraph g = MakeGraph();
  ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult stage1,
                       typing::PerfectTypingViaHashRefinement(g));
  ASSERT_OK_AND_ASSIGN(typing::Extents m,
                       typing::ComputeGfp(stage1.program, g));
  for (size_t t = 0; t < m.per_type.size(); ++t) {
    m.per_type[t].ForEach([&](size_t o) {
      EXPECT_TRUE(typing::SatisfiesSignature(
          stage1.program.type(static_cast<typing::TypeId>(t)).signature, g, m,
          static_cast<graph::ObjectId>(o)))
          << "type " << t << " object " << o;
    });
  }
}

TEST_P(RandomGraphProperty, HomeAssignmentInsideGfpExtents) {
  // Stage-1 homes always satisfy their types exactly.
  graph::DataGraph g = MakeGraph();
  ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult stage1,
                       typing::PerfectTypingViaHashRefinement(g));
  ASSERT_OK_AND_ASSIGN(typing::Extents m,
                       typing::ComputeGfp(stage1.program, g));
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    if (stage1.home[o] != typing::kInvalidType) {
      EXPECT_TRUE(m.Contains(stage1.home[o], o)) << "object " << o;
    }
  }
}

TEST_P(RandomGraphProperty, PerfectTypingHasZeroDefect) {
  graph::DataGraph g = MakeGraph();
  ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult stage1,
                       typing::PerfectTypingViaHashRefinement(g));
  ASSERT_OK_AND_ASSIGN(typing::Extents m,
                       typing::ComputeGfp(stage1.program, g));
  typing::DefectReport report = typing::ComputeDefect(
      stage1.program, g, typing::ExtentsToAssignment(m));
  EXPECT_EQ(report.defect(), 0u);
}

TEST_P(RandomGraphProperty, GfpDominatesLfp) {
  // For any program, LFP extents are contained in GFP extents.
  graph::DataGraph g = MakeGraph();
  ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult stage1,
                       typing::PerfectTypingViaHashRefinement(g));
  datalog::Program p = stage1.program.ToDatalog();
  ASSERT_OK_AND_ASSIGN(datalog::Interpretation gfp, datalog::Evaluate(p, g));
  datalog::EvalOptions lopt;
  lopt.fixpoint = datalog::FixpointKind::kLeast;
  ASSERT_OK_AND_ASSIGN(datalog::Interpretation lfp,
                       datalog::Evaluate(p, g, lopt));
  for (size_t t = 0; t < gfp.extents.size(); ++t) {
    lfp.extents[t].ForEach([&](size_t o) {
      EXPECT_TRUE(gfp.extents[t].Test(o)) << "pred " << t << " obj " << o;
    });
  }
}

TEST_P(RandomGraphProperty, ClusteringInvariants) {
  graph::DataGraph g = MakeGraph();
  ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult stage1,
                       typing::PerfectTypingViaHashRefinement(g));
  if (stage1.program.NumTypes() < 3) GTEST_SKIP();
  cluster::ClusteringOptions opt;
  opt.target_num_types = 3;
  opt.record_snapshots = true;
  ASSERT_OK_AND_ASSIGN(
      cluster::ClusteringResult r,
      cluster::ClusterTypes(stage1.program, stage1.weight, opt));
  // Snapshot k decreases by exactly 1 per step; every snapshot program
  // validates; costs are non-negative.
  for (size_t i = 1; i < r.snapshots.size(); ++i) {
    EXPECT_EQ(r.snapshots[i].num_types, r.snapshots[i - 1].num_types - 1);
    ASSERT_OK(r.snapshots[i].program.Validate());
  }
  for (const cluster::MergeStep& s : r.steps) {
    EXPECT_GE(s.cost, 0.0);
  }
  // final_map is total and in range.
  ASSERT_EQ(r.final_map.size(), stage1.program.NumTypes());
  for (typing::TypeId m : r.final_map) {
    EXPECT_TRUE(m == cluster::kEmptyType ||
                (m >= 0 && static_cast<size_t>(m) <
                               r.final_program.NumTypes()));
  }
  // Weight conservation: final weights + empty-typed weight == total.
  uint64_t total_in = 0, total_out = 0;
  for (size_t t = 0; t < stage1.weight.size(); ++t) {
    total_in += stage1.weight[t];
    if (r.final_map[t] == cluster::kEmptyType) total_out += stage1.weight[t];
  }
  for (uint64_t w : r.final_weights) total_out += w;
  EXPECT_EQ(total_in, total_out);
}

TEST_P(RandomGraphProperty, RecastTypesEveryComplexObject) {
  graph::DataGraph g = MakeGraph();
  extract::ExtractorOptions opt;
  opt.target_num_types = 4;
  ASSERT_OK_AND_ASSIGN(extract::ExtractionResult r,
                       extract::SchemaExtractor(opt).Run(g));
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    if (g.IsComplex(o)) {
      EXPECT_FALSE(r.recast.assignment.TypesOf(o).empty()) << "object " << o;
    } else {
      EXPECT_TRUE(r.recast.assignment.TypesOf(o).empty());
    }
  }
}

TEST_P(RandomGraphProperty, DataGuideLookupMatchesPathEvaluation) {
  // The DataGuide's answer for a label path equals brute-force path
  // evaluation from the guide's root set.
  graph::DataGraph g = MakeGraph();
  auto guide = baseline::BuildStrongDataGuide(g);
  ASSERT_TRUE(guide.ok());
  std::vector<graph::ObjectId> roots = guide->nodes[0].targets;
  // Probe a few 1- and 2-label paths drawn from the label set.
  for (size_t l1 = 0; l1 < g.labels().size(); ++l1) {
    std::string a = g.labels().Name(static_cast<graph::LabelId>(l1));
    for (size_t l2 = 0; l2 < g.labels().size(); l2 += 2) {
      std::string b = g.labels().Name(static_cast<graph::LabelId>(l2));
      auto q = query::ParsePathQuery(a + "." + b);
      std::vector<graph::ObjectId> brute =
          query::EvaluatePathQuery(g, *q, roots);
      std::vector<graph::ObjectId> guided = guide->Lookup(g, {a, b});
      std::sort(guided.begin(), guided.end());
      EXPECT_EQ(brute, guided) << a << "." << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

class StructuredProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  graph::DataGraph MakeGraph() const {
    gen::DatasetSpec spec;
    spec.name = "structured";
    spec.atomic_pool_per_label = 8;
    spec.types.push_back(gen::TypeSpec{
        "order", 40, {{"total", gen::kAtomicTarget, 1.0},
                      {"rush", gen::kAtomicTarget, 0.3},
                      {"customer", 1, 0.95}}});
    spec.types.push_back(gen::TypeSpec{
        "customer", 20, {{"name", gen::kAtomicTarget, 1.0},
                         {"vip", gen::kAtomicTarget, 0.2}}});
    auto g = gen::Generate(spec, GetParam());
    return std::move(g).value();
  }
};

TEST_P(StructuredProperty, SweepDefectZeroAtPerfectK) {
  graph::DataGraph g = MakeGraph();
  extract::ExtractorOptions opt;
  ASSERT_OK_AND_ASSIGN(std::vector<extract::SensitivityPoint> pts,
                       extract::SensitivitySweep(g, opt));
  EXPECT_EQ(pts.front().defect, 0u);
  EXPECT_EQ(pts.front().total_distance, 0.0);
}

TEST_P(StructuredProperty, MoreTypesNeverWorseAtTheTop) {
  // Between the perfect typing and one merge below it the defect can
  // only grow (first merge introduces the first imperfection).
  graph::DataGraph g = MakeGraph();
  extract::ExtractorOptions opt;
  ASSERT_OK_AND_ASSIGN(std::vector<extract::SensitivityPoint> pts,
                       extract::SensitivitySweep(g, opt));
  ASSERT_GE(pts.size(), 2u);
  EXPECT_GE(pts[1].defect, pts[0].defect);
}

TEST_P(StructuredProperty, IntendedTypesRecoveredAtIntendedK) {
  // Clustering down to the intended 2 types keeps each generated type's
  // objects together (majority-wise).
  graph::DataGraph g = MakeGraph();
  extract::ExtractorOptions opt;
  opt.target_num_types = 2;
  ASSERT_OK_AND_ASSIGN(extract::ExtractionResult r,
                       extract::SchemaExtractor(opt).Run(g));
  ASSERT_EQ(r.num_final_types, 2u);
  // Count order/customer homes per final type.
  size_t agree = 0, total = 0;
  std::vector<std::array<size_t, 2>> votes(2, {0, 0});
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    if (!g.IsComplex(o)) continue;
    const auto& homes = r.final_homes[o];
    if (homes.size() != 1) continue;
    bool is_order = g.Name(o).substr(0, 5) == "order";
    ++votes[static_cast<size_t>(homes[0])][is_order ? 0 : 1];
  }
  for (const auto& v : votes) {
    agree += std::max(v[0], v[1]);
    total += v[0] + v[1];
  }
  EXPECT_GT(agree * 10, total * 9) << "role purity below 90%";
}

INSTANTIATE_TEST_SUITE_P(Seeds, StructuredProperty,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace schemex
