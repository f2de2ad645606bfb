#include <gtest/gtest.h>

#include "baseline/dataguide.h"
#include "baseline/rep_objects.h"
#include "gen/dbg.h"
#include "tests/test_util.h"
#include "typing/perfect_typing.h"

namespace schemex::baseline {
namespace {

TEST(DataGuideTest, LinearChain) {
  // root: a -> b -> c (atomic): the guide is a 3-node path + root.
  graph::GraphBuilder b;
  ASSERT_OK(b.Atomic("leaf", "v"));
  ASSERT_OK(b.Edge("x", "a", "y"));
  ASSERT_OK(b.Edge("y", "b", "leaf"));
  util::Status st;
  graph::DataGraph g = std::move(b).Build(&st);
  ASSERT_OK(st);
  ASSERT_OK_AND_ASSIGN(DataGuide guide, BuildStrongDataGuide(g));
  EXPECT_EQ(guide.NumNodes(), 3u);  // {x}, {y}, {leaf}
  EXPECT_EQ(guide.num_edges, 2u);

  auto hits = guide.Lookup(g, {"a", "b"});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(g.Value(hits[0]), "v");
  EXPECT_TRUE(guide.Lookup(g, {"a", "zzz"}).empty());
  EXPECT_TRUE(guide.Lookup(g, {"b"}).empty());
}

TEST(DataGuideTest, SharedTargetsCollapse) {
  // Two parents pointing at the same child via the same label produce ONE
  // guide node {child}.
  graph::GraphBuilder b;
  ASSERT_OK(b.Edge("p1", "c", "kid"));
  ASSERT_OK(b.Edge("p2", "c", "kid"));
  util::Status st;
  graph::DataGraph g = std::move(b).Build(&st);
  ASSERT_OK(st);
  ASSERT_OK_AND_ASSIGN(DataGuide guide, BuildStrongDataGuide(g));
  // Root targets {p1, p2}; its c-child targets {kid}.
  EXPECT_EQ(guide.NumNodes(), 2u);
  auto hits = guide.Lookup(g, {"c"});
  EXPECT_EQ(hits.size(), 1u);
}

TEST(DataGuideTest, PowersetSplit) {
  // p1 -a-> x, p2 -a-> y, p1 -b-> x: path `a` reaches {x,y}, path `b`
  // reaches {x} — distinct guide nodes even though x is shared.
  graph::GraphBuilder b;
  ASSERT_OK(b.Edge("p1", "a", "x"));
  ASSERT_OK(b.Edge("p2", "a", "y"));
  ASSERT_OK(b.Edge("p1", "b", "x"));
  util::Status st;
  graph::DataGraph g = std::move(b).Build(&st);
  ASSERT_OK(st);
  ASSERT_OK_AND_ASSIGN(DataGuide guide, BuildStrongDataGuide(g));
  EXPECT_EQ(guide.Lookup(g, {"a"}).size(), 2u);
  EXPECT_EQ(guide.Lookup(g, {"b"}).size(), 1u);
}

TEST(DataGuideTest, CyclicGraphTerminates) {
  graph::GraphBuilder b;
  ASSERT_OK(b.Edge("p", "next", "q"));
  ASSERT_OK(b.Edge("q", "next", "p"));
  util::Status st;
  graph::DataGraph g = std::move(b).Build(&st);
  ASSERT_OK(st);
  // No sources: the virtual root's target set is {p, q}; following `next`
  // maps {p, q} back to itself, so the guide is a single self-looping
  // node.
  ASSERT_OK_AND_ASSIGN(DataGuide guide, BuildStrongDataGuide(g));
  EXPECT_EQ(guide.NumNodes(), 1u);
  EXPECT_EQ(guide.num_edges, 1u);
  EXPECT_EQ(guide.Lookup(g, {"next", "next", "next"}).size(), 2u);
}

TEST(DataGuideTest, NodeBudgetEnforced) {
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::MakeDbgDataset());
  util::StatusOr<DataGuide> guide = BuildStrongDataGuide(g, /*max_nodes=*/3);
  EXPECT_FALSE(guide.ok());
  EXPECT_EQ(guide.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(DataGuideTest, DbgGuideBuilds) {
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::MakeDbgDataset());
  ASSERT_OK_AND_ASSIGN(DataGuide guide, BuildStrongDataGuide(g));
  EXPECT_GT(guide.NumNodes(), 6u);
  // Guide lookups follow real paths.
  EXPECT_FALSE(guide.Lookup(g, {"author"}).empty());
}

TEST(RepObjectsTest, DegreeZeroIsOneClass) {
  graph::DataGraph g = test::MakeFigure4Database();
  size_t classes = 0;
  auto block = DegreeKClasses(g, 0, &classes);
  EXPECT_EQ(classes, 1u);
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    if (g.IsComplex(o)) {
      EXPECT_EQ(block[o], 0);
    } else {
      EXPECT_EQ(block[o], typing::kInvalidType);
    }
  }
}

TEST(RepObjectsTest, RefinementIsMonotoneInK) {
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::MakeDbgDataset());
  size_t prev = 0;
  for (size_t k = 0; k <= 5; ++k) {
    size_t classes = 0;
    DegreeKClasses(g, k, &classes);
    EXPECT_GE(classes, prev) << "k=" << k;
    prev = classes;
  }
  EXPECT_EQ(FullRepObjectClassCount(g), prev);  // converged by k=5? then
  // equality; otherwise the full count is at least the k=5 count.
  EXPECT_GE(FullRepObjectClassCount(g), prev);
}

TEST(RepObjectsTest, OutgoingOnlyIsCoarserThanStage1) {
  // Stage 1 refines on incoming AND outgoing edges, so its partition is
  // at least as fine as the (converged) outgoing-only one.
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::MakeDbgDataset());
  size_t ro = FullRepObjectClassCount(g);
  ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult stage1,
                       typing::PerfectTypingViaHashRefinement(g));
  EXPECT_LE(ro, stage1.program.NumTypes());
}

TEST(RepObjectsTest, DistinguishesByOutgoingLabelSets) {
  graph::DataGraph g = test::MakeFigure4Database();
  size_t classes = 0;
  auto block = DegreeKClasses(g, 1, &classes);
  // o1 {a}, o2/o3/o4 {b} or {b, c}: three classes after one round.
  EXPECT_EQ(classes, 3u);
  EXPECT_EQ(block[1], block[2]);  // o2, o3 (b only)
  EXPECT_NE(block[1], block[3]);  // o4 has c as well
}

}  // namespace
}  // namespace schemex::baseline
