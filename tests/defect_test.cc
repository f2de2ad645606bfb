#include <gtest/gtest.h>

#include "tests/test_util.h"
#include "typing/defect.h"
#include "typing/perfect_typing.h"

namespace schemex::typing {
namespace {

graph::ObjectId Obj(const graph::DataGraph& g, const char* name) {
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    if (g.Name(o) == name) return o;
  }
  return graph::kInvalidObject;
}

/// The typing program of Example 2.2 over the Figure 3 database:
///   type1 = ->a^2
///   type2 = <-a^1, ->b^0, ->c^0
///   type3 = ->b^0, ->d^0
class Example22 : public ::testing::Test {
 protected:
  void SetUp() override {
    g_ = test::MakeExample22Database();
    graph::LabelId a = g_.labels().Find("a");
    graph::LabelId b = g_.labels().Find("b");
    graph::LabelId c = g_.labels().Find("c");
    graph::LabelId d = g_.labels().Find("d");
    t1_ = p_.AddType("type1", {});
    t2_ = p_.AddType("type2", {});
    t3_ = p_.AddType("type3", {});
    p_.type(t1_).signature =
        TypeSignature::FromLinks({TypedLink::Out(a, t2_)});
    p_.type(t2_).signature = TypeSignature::FromLinks(
        {TypedLink::In(a, t1_), TypedLink::OutAtomic(b),
         TypedLink::OutAtomic(c)});
    p_.type(t3_).signature = TypeSignature::FromLinks(
        {TypedLink::OutAtomic(b), TypedLink::OutAtomic(d)});
    ASSERT_OK(p_.Validate());
    base_ = TypeAssignment(g_.NumObjects());
    base_.Assign(Obj(g_, "o1"), t1_);
    base_.Assign(Obj(g_, "o2"), t2_);
    base_.Assign(Obj(g_, "o3"), t3_);
  }

  graph::DataGraph g_;
  TypingProgram p_;
  TypeId t1_, t2_, t3_;
  TypeAssignment base_;
};

TEST_F(Example22, Tau1HasExcessOneDeficitOne) {
  // tau_1 maps o4 to type2: we must invent link(o1, o4, a) (deficit 1)
  // and disregard o4's d-link (excess 1) — defect 2, as in the paper.
  TypeAssignment tau1 = base_;
  tau1.Assign(Obj(g_, "o4"), t2_);
  DefectReport r = ComputeDefect(p_, g_, tau1, /*collect_facts=*/true);
  EXPECT_EQ(r.excess, 1u);
  EXPECT_EQ(r.deficit, 1u);
  EXPECT_EQ(r.defect(), 2u);

  // The invented fact is exactly link(o1, o4, a).
  ASSERT_EQ(r.invented_edges.size(), 1u);
  EXPECT_EQ(r.invented_edges[0].from, Obj(g_, "o1"));
  EXPECT_EQ(r.invented_edges[0].to, Obj(g_, "o4"));
  EXPECT_EQ(r.invented_edges[0].label, g_.labels().Find("a"));

  // The excess fact is o4's d-edge.
  ASSERT_EQ(r.excess_edges.size(), 1u);
  EXPECT_EQ(r.excess_edges[0].from, Obj(g_, "o4"));
  EXPECT_EQ(r.excess_edges[0].label, g_.labels().Find("d"));
}

TEST_F(Example22, Tau2HasExcessOneOnly) {
  // tau_2 maps o4 to type3: only o4's c-link is disregarded — defect 1.
  TypeAssignment tau2 = base_;
  tau2.Assign(Obj(g_, "o4"), t3_);
  DefectReport r = ComputeDefect(p_, g_, tau2, /*collect_facts=*/true);
  EXPECT_EQ(r.excess, 1u);
  EXPECT_EQ(r.deficit, 0u);
  ASSERT_EQ(r.excess_edges.size(), 1u);
  EXPECT_EQ(r.excess_edges[0].from, Obj(g_, "o4"));
  EXPECT_EQ(r.excess_edges[0].label, g_.labels().Find("c"));
}

TEST_F(Example22, BaseObjectsContributeNoDefect) {
  // o1..o3 fit their types perfectly; o4 unassigned means all its edges
  // are excess (3) but nothing else changes.
  DefectReport r = ComputeDefect(p_, g_, base_);
  EXPECT_EQ(r.deficit, 0u);
  EXPECT_EQ(r.excess, 3u);  // o4's b, c, d edges
}

TEST_F(Example22, ReportToStringMentionsBothComponents) {
  TypeAssignment tau1 = base_;
  tau1.Assign(Obj(g_, "o4"), t2_);
  DefectReport r = ComputeDefect(p_, g_, tau1);
  std::string s = r.ToString();
  EXPECT_NE(s.find("excess=1"), std::string::npos);
  EXPECT_NE(s.find("deficit=1"), std::string::npos);
  EXPECT_NE(s.find("defect=2"), std::string::npos);
}

TEST(DefectTest, GfpAssignmentHasZeroDeficit) {
  // §2 end: "the greatest fixpoint semantics may lead to excess but
  // cannot yield deficit."
  graph::DataGraph g = test::MakeFigure4Database();
  ASSERT_OK_AND_ASSIGN(PerfectTypingResult r, PerfectTypingViaGfp(g));
  ASSERT_OK_AND_ASSIGN(Extents m, PerfectTypingExtents(r, g));
  TypeAssignment tau = ExtentsToAssignment(m);
  EXPECT_EQ(ComputeDeficit(r.program, g, tau, false, nullptr), 0u);
}

TEST(DefectTest, PerfectTypingHasZeroDefect) {
  // The minimal perfect typing has no defect on its own database — for
  // both example databases.
  for (graph::DataGraph g :
       {test::MakeFigure2Database(), test::MakeFigure4Database()}) {
    ASSERT_OK_AND_ASSIGN(PerfectTypingResult r, PerfectTypingViaGfp(g));
    ASSERT_OK_AND_ASSIGN(Extents m, PerfectTypingExtents(r, g));
    DefectReport report =
        ComputeDefect(r.program, g, ExtentsToAssignment(m));
    EXPECT_EQ(report.defect(), 0u);
  }
}

TEST(DefectTest, UntypedGraphIsAllExcess) {
  graph::DataGraph g = test::MakeFigure2Database();
  TypingProgram empty_program;
  TypeAssignment tau(g.NumObjects());
  DefectReport r = ComputeDefect(empty_program, g, tau);
  EXPECT_EQ(r.excess, g.NumEdges());
  EXPECT_EQ(r.deficit, 0u);
}

TEST(DefectTest, IncomingRequirementWitnessedByAssignment) {
  // Deficit witnesses respect tau, not the GFP: if the required neighbor
  // type has no assigned member at the right end, the fact is invented.
  graph::GraphBuilder b;
  ASSERT_OK(b.Edge("p", "r", "q"));
  util::Status st;
  graph::DataGraph g = std::move(b).Build(&st);
  ASSERT_OK(st);
  graph::LabelId rl = g.labels().Find("r");
  TypingProgram p;
  TypeId a = p.AddType("a", {});
  TypeId bb = p.AddType("b", {});
  p.type(bb).signature = TypeSignature::FromLinks({TypedLink::In(rl, a)});

  TypeAssignment tau(g.NumObjects());
  tau.Assign(1, bb);  // q needs an incoming r from an `a`...
  DefectReport r1 = ComputeDefect(p, g, tau);
  EXPECT_EQ(r1.deficit, 1u);  // ...but p is not assigned to `a`

  tau.Assign(0, a);
  DefectReport r2 = ComputeDefect(p, g, tau);
  EXPECT_EQ(r2.deficit, 0u);
}

TEST(DefectTest, DuplicateInventedFactsCountOnce) {
  // Two objects assigned to the same impossible type requirement, where
  // the canonical witness coincides, produce distinct facts (different
  // endpoints), but one object assigned to two types that both miss the
  // same edge invents it once.
  graph::GraphBuilder b;
  ASSERT_OK(b.Complex("x"));
  ASSERT_OK(b.Atomic("v", "1"));
  util::Status st;
  graph::DataGraph g = std::move(b).Build(&st);
  ASSERT_OK(st);
  graph::LabelId l = g.InternLabel("m");
  TypingProgram p;
  TypeId t1 = p.AddType("t1", TypeSignature::FromLinks(
                                  {TypedLink::OutAtomic(l)}));
  TypeId t2 = p.AddType(
      "t2", TypeSignature::FromLinks({TypedLink::OutAtomic(l)}));
  TypeAssignment tau(g.NumObjects());
  tau.Assign(0, t1);
  tau.Assign(0, t2);
  DefectReport r = ComputeDefect(p, g, tau, true);
  EXPECT_EQ(r.deficit, 1u);  // the same link(x, v, m) serves both
}

TEST(DefectTest, OutFactThatIsAlsoAnInFactCountsOnce) {
  // x is in T = ->l^U and y in U = <-l^T, and there is no l edge. x's
  // missing out-link is link(x, member[U] = y, l); y's missing in-link is
  // link(member[T] = x, y, l): one invented fact, counted once. The
  // class-level deficit (ComputeQuotientDefect) subtracts exactly these
  // coincidences between canonical members.
  graph::GraphBuilder b;
  ASSERT_OK(b.Complex("x"));
  ASSERT_OK(b.Complex("y"));
  util::Status st;
  graph::DataGraph g = std::move(b).Build(&st);
  ASSERT_OK(st);
  graph::LabelId l = g.InternLabel("l");
  TypingProgram p;
  TypeId t = p.AddType("T", {});
  TypeId u = p.AddType("U", {});
  p.type(t).signature = TypeSignature::FromLinks({TypedLink::Out(l, u)});
  p.type(u).signature = TypeSignature::FromLinks({TypedLink::In(l, t)});
  ASSERT_OK(p.Validate());
  TypeAssignment tau(g.NumObjects());
  tau.Assign(Obj(g, "x"), t);
  tau.Assign(Obj(g, "y"), u);
  DefectReport r = ComputeDefect(p, g, tau, /*collect_facts=*/true);
  EXPECT_EQ(r.deficit, 1u);
  ASSERT_EQ(r.invented_edges.size(), 1u);
  EXPECT_EQ(r.invented_edges[0], (EdgeFact{Obj(g, "x"), Obj(g, "y"), l}));
}

TEST(TypeAssignmentTest, BasicOperations) {
  TypeAssignment tau(3);
  EXPECT_EQ(tau.NumObjects(), 3u);
  tau.Assign(0, 2);
  tau.Assign(0, 1);
  tau.Assign(0, 2);  // dup
  EXPECT_EQ(tau.TypesOf(0), (std::vector<TypeId>{1, 2}));
  EXPECT_TRUE(tau.Has(0, 1));
  EXPECT_FALSE(tau.Has(1, 1));
  tau.Unassign(0, 1);
  EXPECT_FALSE(tau.Has(0, 1));
  tau.Assign(2, 1);
  EXPECT_EQ(tau.ObjectsOf(1), (std::vector<graph::ObjectId>{2}));
  EXPECT_EQ(tau.NumTypedObjects(), 2u);
}

}  // namespace
}  // namespace schemex::typing
