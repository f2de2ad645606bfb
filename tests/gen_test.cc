#include <gtest/gtest.h>

#include <set>

#include "gen/dbg.h"
#include "gen/perturb.h"
#include "gen/random_graph.h"
#include "gen/spec.h"
#include "gen/table1.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "tests/test_util.h"

namespace schemex::gen {
namespace {

TEST(SpecTest, BipartiteAndOverlapDetection) {
  DatasetSpec flat;
  flat.types.push_back(TypeSpec{"a", 1, {{"x", kAtomicTarget, 1.0}}});
  flat.types.push_back(TypeSpec{"b", 1, {{"y", kAtomicTarget, 1.0}}});
  EXPECT_TRUE(flat.IsBipartite());
  EXPECT_FALSE(flat.HasOverlap());

  DatasetSpec deep = flat;
  deep.types[0].links.push_back({"r", 1, 0.5});
  EXPECT_FALSE(deep.IsBipartite());

  DatasetSpec overlap = flat;
  overlap.types[1].links.push_back({"x", kAtomicTarget, 1.0});
  EXPECT_TRUE(overlap.HasOverlap());

  // The same link repeated within ONE type is not overlap.
  DatasetSpec self_dup = flat;
  self_dup.types[0].links.push_back({"x", kAtomicTarget, 0.2});
  EXPECT_FALSE(self_dup.HasOverlap());
}

TEST(GenerateTest, DeterministicForSeed) {
  DatasetSpec spec = DbgSpec();
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g1, Generate(spec, 5));
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g2, Generate(spec, 5));
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g3, Generate(spec, 6));
  EXPECT_EQ(graph::WriteGraph(g1), graph::WriteGraph(g2));
  EXPECT_NE(graph::WriteGraph(g1), graph::WriteGraph(g3));
}

TEST(GenerateTest, RespectsCountsAndProbabilities) {
  DatasetSpec spec;
  spec.types.push_back(TypeSpec{"t", 200,
                                {{"always", kAtomicTarget, 1.0},
                                 {"never", kAtomicTarget, 0.0},
                                 {"half", kAtomicTarget, 0.5}}});
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, Generate(spec, 3));
  EXPECT_EQ(g.NumComplexObjects(), 200u);
  graph::GraphStats s = graph::ComputeStats(g);
  graph::LabelId always = g.labels().Find("always");
  graph::LabelId half = g.labels().Find("half");
  EXPECT_EQ(s.label_histogram[always], 200u);
  EXPECT_EQ(g.labels().Find("never"), graph::kInvalidLabel);
  EXPECT_GT(s.label_histogram[half], 60u);
  EXPECT_LT(s.label_histogram[half], 140u);
  ASSERT_OK(g.Validate());
}

TEST(GenerateTest, AtomicPoolBoundsAtomCount) {
  DatasetSpec spec;
  spec.atomic_pool_per_label = 7;
  spec.types.push_back(TypeSpec{"t", 100, {{"v", kAtomicTarget, 1.0}}});
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, Generate(spec, 3));
  EXPECT_LE(g.NumAtomicObjects(), 7u);

  DatasetSpec fresh = spec;
  fresh.atomic_pool_per_label = 0;
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g2, Generate(fresh, 3));
  EXPECT_EQ(g2.NumAtomicObjects(), 100u);  // one per link
}

TEST(GenerateTest, ComplexTargetsStayInTargetType) {
  DatasetSpec spec;
  spec.types.push_back(TypeSpec{"src", 30, {{"r", 1, 1.0}}});
  spec.types.push_back(TypeSpec{"dst", 10, {{"v", kAtomicTarget, 1.0}}});
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, Generate(spec, 4));
  graph::LabelId r = g.labels().Find("r");
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    for (const graph::HalfEdge& e : g.OutEdges(o)) {
      if (e.label != r) continue;
      // Targets are named dst_<i>.
      EXPECT_EQ(g.Name(e.other).substr(0, 4), "dst_");
    }
  }
}

TEST(GenerateTest, InputValidation) {
  DatasetSpec bad_target;
  bad_target.types.push_back(TypeSpec{"t", 1, {{"r", 9, 1.0}}});
  EXPECT_FALSE(Generate(bad_target, 1).ok());

  DatasetSpec bad_prob;
  bad_prob.types.push_back(TypeSpec{"t", 1, {{"r", kAtomicTarget, 1.5}}});
  EXPECT_FALSE(Generate(bad_prob, 1).ok());

  DatasetSpec zero_count;
  zero_count.types.push_back(TypeSpec{"t", 0, {}});
  EXPECT_FALSE(Generate(zero_count, 1).ok());
}

TEST(PerturbTest, DeletesAndAddsRequestedCounts) {
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, MakeDbgDataset(7));
  size_t before = g.NumEdges();
  PerturbOptions opt;
  opt.delete_links = 10;
  opt.add_links = 25;
  opt.seed = 3;
  PerturbStats stats;
  ASSERT_OK(Perturb(&g, opt, &stats));
  EXPECT_EQ(stats.deleted, 10u);
  EXPECT_EQ(stats.added, 25u);
  EXPECT_EQ(g.NumEdges(), before - 10 + 25);
  ASSERT_OK(g.Validate());
}

TEST(PerturbTest, FreshLabelsIntroduced) {
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, MakeDbgDataset(7));
  PerturbOptions opt;
  opt.add_links = 50;
  opt.fresh_labels = 3;
  ASSERT_OK(Perturb(&g, opt));
  EXPECT_NE(g.labels().Find("noise0"), graph::kInvalidLabel);
  EXPECT_NE(g.labels().Find("noise2"), graph::kInvalidLabel);
}

TEST(PerturbTest, AtomicTargetFractionRespected) {
  ASSERT_OK_AND_ASSIGN(graph::DataGraph base, MakeDbgDataset(7));
  // With fraction 1.0 every added edge targets an atomic object.
  graph::DataGraph g = base;
  size_t atomic_in_before = 0, atomic_in_after = 0;
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    if (g.IsAtomic(o)) atomic_in_before += g.InEdges(o).size();
  }
  PerturbOptions opt;
  opt.add_links = 40;
  opt.atomic_target_fraction = 1.0;
  ASSERT_OK(Perturb(&g, opt));
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    if (g.IsAtomic(o)) atomic_in_after += g.InEdges(o).size();
  }
  EXPECT_EQ(atomic_in_after - atomic_in_before, 40u);
}

TEST(PerturbTest, EmptyGraphEdgeCases) {
  graph::DataGraph empty;
  PerturbOptions none;
  ASSERT_OK(Perturb(&empty, none));
  PerturbOptions add;
  add.add_links = 1;
  EXPECT_FALSE(Perturb(&empty, add).ok());
}

TEST(Table1Test, AllEightEntriesGenerate) {
  auto rows = Table1Datasets();
  ASSERT_EQ(rows.size(), 8u);
  std::set<std::string> names;
  for (const auto& e : rows) {
    names.insert(e.db_name);
    ASSERT_OK_AND_ASSIGN(graph::DataGraph g, MakeTable1Database(e));
    ASSERT_OK(g.Validate());
    EXPECT_GT(g.NumObjects(), 100u) << e.db_name;
    EXPECT_GT(g.NumEdges(), 100u) << e.db_name;
    // Bipartite column matches the generated graph (perturbation may add
    // complex-complex noise, so only check unperturbed entries).
    if (!e.perturbed) {
      EXPECT_EQ(graph::IsBipartite(g), e.spec.IsBipartite()) << e.db_name;
    }
    EXPECT_EQ(e.spec.HasOverlap(),
              e.db_name == "DB3" || e.db_name == "DB4" ||
                  e.db_name == "DB7" || e.db_name == "DB8")
        << e.db_name;
  }
  EXPECT_EQ(names.size(), 8u);
}

TEST(Table1Test, PerturbedPairsShareBaseData) {
  auto rows = Table1Datasets();
  // DB1/DB2 differ only by perturbation: same generation seed and spec.
  EXPECT_EQ(rows[0].generation_seed, rows[1].generation_seed);
  EXPECT_EQ(rows[0].spec.types.size(), rows[1].spec.types.size());
  EXPECT_FALSE(rows[0].perturbed);
  EXPECT_TRUE(rows[1].perturbed);
}

TEST(DbgTest, MatchesFigureOneRoles) {
  DatasetSpec spec = DbgSpec();
  ASSERT_EQ(spec.types.size(), 6u);
  std::set<std::string> names;
  for (const auto& t : spec.types) names.insert(t.name);
  EXPECT_TRUE(names.count("project"));
  EXPECT_TRUE(names.count("publication"));
  EXPECT_TRUE(names.count("db_person"));
  EXPECT_TRUE(names.count("student"));
  EXPECT_TRUE(names.count("birthday"));
  EXPECT_TRUE(names.count("degree"));
  EXPECT_FALSE(spec.IsBipartite());
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, MakeDbgDataset());
  ASSERT_OK(g.Validate());
  // Fig. 1 linkage: students have advisors, publications have authors.
  EXPECT_NE(g.labels().Find("advisor"), graph::kInvalidLabel);
  EXPECT_NE(g.labels().Find("author"), graph::kInvalidLabel);
}

TEST(RandomGraphTest, RespectsOptions) {
  RandomGraphOptions opt;
  opt.num_complex = 50;
  opt.num_atomic = 30;
  opt.num_edges = 120;
  opt.num_labels = 4;
  opt.seed = 1;
  graph::DataGraph g = RandomGraph(opt);
  EXPECT_EQ(g.NumComplexObjects(), 50u);
  EXPECT_EQ(g.NumAtomicObjects(), 30u);
  EXPECT_LE(g.NumEdges(), 120u);
  EXPECT_GT(g.NumEdges(), 100u);  // few collisions at this density
  EXPECT_EQ(g.labels().size(), 4u);
  ASSERT_OK(g.Validate());
}

TEST(RandomGraphTest, AtomicFractionExtremes) {
  RandomGraphOptions opt;
  opt.num_complex = 20;
  opt.num_atomic = 20;
  opt.num_edges = 60;
  opt.atomic_target_fraction = 1.0;
  opt.seed = 2;
  graph::DataGraph g = RandomGraph(opt);
  EXPECT_TRUE(graph::IsBipartite(g));

  opt.atomic_target_fraction = 0.0;
  graph::DataGraph g2 = RandomGraph(opt);
  for (graph::ObjectId o = 0; o < g2.NumObjects(); ++o) {
    if (g2.IsAtomic(o)) {
      EXPECT_TRUE(g2.InEdges(o).empty());
    }
  }
}

}  // namespace
}  // namespace schemex::gen
