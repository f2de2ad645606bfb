#include <gtest/gtest.h>

#include "graph/subgraph.h"
#include "tests/test_util.h"
#include "typing/explain.h"
#include "typing/perfect_typing.h"

namespace schemex {
namespace {

graph::ObjectId Obj(const graph::DataGraph& g, const char* name) {
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    if (g.Name(o) == name) return o;
  }
  return graph::kInvalidObject;
}

TEST(ExplainTest, WitnessesPerTypedLink) {
  graph::DataGraph g = test::MakeFigure4Database();
  ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult stage1,
                       typing::PerfectTypingViaGfp(g));
  ASSERT_OK_AND_ASSIGN(typing::Extents m,
                       typing::PerfectTypingExtents(stage1, g));
  graph::ObjectId o4 = Obj(g, "o4");
  typing::TypeId h4 = stage1.home[o4];
  ASSERT_OK_AND_ASSIGN(
      typing::MembershipExplanation why,
      typing::ExplainMembership(stage1.program, g, m, o4, h4));
  // o4's home = {<-a^h1, ->b^0, ->c^0}: witnesses o1, o6, o7.
  ASSERT_EQ(why.witnesses.size(), 3u);
  EXPECT_EQ(why.witnesses[0].witness, Obj(g, "o1"));
  EXPECT_EQ(g.Name(why.witnesses[1].witness), "o6");
  EXPECT_EQ(g.Name(why.witnesses[2].witness), "o7");

  std::string text = why.ToString(g, stage1.program);
  EXPECT_NE(text.find("o4 :"), std::string::npos);
  EXPECT_NE(text.find("via o1"), std::string::npos);
}

TEST(ExplainTest, NonMemberCannotBeExplained) {
  graph::DataGraph g = test::MakeFigure4Database();
  ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult stage1,
                       typing::PerfectTypingViaGfp(g));
  ASSERT_OK_AND_ASSIGN(typing::Extents m,
                       typing::PerfectTypingExtents(stage1, g));
  graph::ObjectId o2 = Obj(g, "o2");
  typing::TypeId h4 = stage1.home[Obj(g, "o4")];  // requires ->c^0
  auto why = typing::ExplainMembership(stage1.program, g, m, o2, h4);
  EXPECT_EQ(why.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_FALSE(
      typing::ExplainMembership(stage1.program, g, m, o2, 99).ok());
}

TEST(ExplainTest, EmptyBodyExplained) {
  graph::DataGraph g;
  g.AddComplex("solo");
  typing::TypingProgram p;
  p.AddType("anything", {});
  typing::Extents m;
  m.per_type.assign(1, util::DenseBitset(1));
  m.per_type[0].Set(0);
  ASSERT_OK_AND_ASSIGN(typing::MembershipExplanation why,
                       typing::ExplainMembership(p, g, m, 0, 0));
  EXPECT_TRUE(why.witnesses.empty());
  EXPECT_NE(why.ToString(g, p).find("every object qualifies"),
            std::string::npos);
}

TEST(SubgraphTest, KeepsListedObjectsAndInducedEdges) {
  graph::DataGraph g = test::MakeFigure4Database();
  std::vector<graph::ObjectId> keep = {Obj(g, "o1"), Obj(g, "o2")};
  std::vector<graph::ObjectId> remap;
  graph::SubgraphOptions opt;
  graph::DataGraph sub = InducedSubgraph(g, keep, opt, &remap);
  ASSERT_OK(sub.Validate());
  // o1, o2 kept; o2's atomic neighbor o5 pulled in; o3/o4 dropped along
  // with o1's edges to them.
  EXPECT_EQ(sub.NumComplexObjects(), 2u);
  EXPECT_EQ(sub.NumAtomicObjects(), 1u);
  EXPECT_EQ(sub.NumEdges(), 2u);  // o1-a->o2, o2-b->o5
  EXPECT_EQ(remap[Obj(g, "o3")], graph::kInvalidObject);
  EXPECT_NE(remap[Obj(g, "o1")], graph::kInvalidObject);
  // Label table shared: ids identical.
  EXPECT_EQ(sub.labels().Find("a"), g.labels().Find("a"));
}

TEST(SubgraphTest, WithoutAtomicNeighbors) {
  graph::DataGraph g = test::MakeFigure4Database();
  graph::SubgraphOptions opt;
  opt.include_atomic_neighbors = false;
  graph::DataGraph sub =
      InducedSubgraph(g, {Obj(g, "o2"), Obj(g, "o4")}, opt);
  EXPECT_EQ(sub.NumAtomicObjects(), 0u);
  EXPECT_EQ(sub.NumEdges(), 0u);
}

TEST(SubgraphTest, AtomicObjectsCanBeKeptExplicitly) {
  graph::DataGraph g = test::MakeFigure4Database();
  graph::SubgraphOptions opt;
  opt.include_atomic_neighbors = false;
  graph::DataGraph sub =
      InducedSubgraph(g, {Obj(g, "o2"), Obj(g, "o5")}, opt);
  EXPECT_EQ(sub.NumAtomicObjects(), 1u);
  EXPECT_EQ(sub.NumEdges(), 1u);
  EXPECT_EQ(sub.Value(1), "v5");
}

TEST(SubgraphTest, DuplicatesAndOutOfRangeIgnored) {
  graph::DataGraph g = test::MakeFigure4Database();
  graph::ObjectId o1 = Obj(g, "o1");
  graph::DataGraph sub = InducedSubgraph(g, {o1, o1, 9999});
  EXPECT_EQ(sub.NumComplexObjects(), 1u);
}

TEST(SubgraphTest, FullKeepIsIsomorphic) {
  graph::DataGraph g = test::MakeFigure2Database();
  std::vector<graph::ObjectId> all;
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) all.push_back(o);
  graph::DataGraph sub = InducedSubgraph(g, all);
  EXPECT_EQ(sub.NumObjects(), g.NumObjects());
  EXPECT_EQ(sub.NumEdges(), g.NumEdges());
  ASSERT_OK(sub.Validate());
}

}  // namespace
}  // namespace schemex
