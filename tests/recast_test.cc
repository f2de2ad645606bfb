#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/greedy.h"
#include "gen/random_graph.h"
#include "tests/test_util.h"
#include "typing/perfect_typing.h"
#include "typing/recast.h"

namespace schemex::typing {
namespace {

graph::ObjectId Obj(const graph::DataGraph& g, const char* name) {
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    if (g.Name(o) == name) return o;
  }
  return graph::kInvalidObject;
}

TEST(RecastTest, PerfectProgramRecastsExactly) {
  graph::DataGraph g = test::MakeFigure4Database();
  ASSERT_OK_AND_ASSIGN(PerfectTypingResult stage1, PerfectTypingViaGfp(g));
  std::vector<std::vector<TypeId>> homes(g.NumObjects());
  for (size_t o = 0; o < stage1.home.size(); ++o) {
    if (stage1.home[o] != kInvalidType) homes[o] = {stage1.home[o]};
  }
  ASSERT_OK_AND_ASSIGN(RecastResult r, Recast(stage1.program, g, homes));
  EXPECT_EQ(r.num_exact, g.NumComplexObjects());
  EXPECT_EQ(r.num_fallback, 0u);
  EXPECT_EQ(r.num_untyped, 0u);
  // Homes are contained in the final assignment.
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    for (TypeId t : homes[o]) EXPECT_TRUE(r.assignment.Has(o, t));
  }
}

TEST(RecastTest, GfpTypesAddedBeyondHomes) {
  // o4 satisfies o2's home type as well (extra links) — recast puts it in
  // both.
  graph::DataGraph g = test::MakeFigure4Database();
  ASSERT_OK_AND_ASSIGN(PerfectTypingResult stage1, PerfectTypingViaGfp(g));
  std::vector<std::vector<TypeId>> homes(g.NumObjects());
  for (size_t o = 0; o < stage1.home.size(); ++o) {
    if (stage1.home[o] != kInvalidType) homes[o] = {stage1.home[o]};
  }
  ASSERT_OK_AND_ASSIGN(RecastResult r, Recast(stage1.program, g, homes));
  graph::ObjectId o4 = Obj(g, "o4");
  EXPECT_EQ(r.assignment.TypesOf(o4).size(), 2u);

  RecastOptions no_extra;
  no_extra.add_gfp_types = false;
  ASSERT_OK_AND_ASSIGN(RecastResult r2,
                       Recast(stage1.program, g, homes, no_extra));
  EXPECT_EQ(r2.assignment.TypesOf(o4).size(), 1u);
}

TEST(RecastTest, ObjectPictureReflectsNeighborTypes) {
  graph::DataGraph g = test::MakeFigure4Database();
  TypeAssignment tau(g.NumObjects());
  tau.Assign(Obj(g, "o2"), 7);
  TypeSignature pic = ObjectPicture(g, tau, Obj(g, "o1"));
  graph::LabelId a = g.labels().Find("a");
  EXPECT_TRUE(pic.Contains(TypedLink::Out(a, 7)));
  // Neighbors without assigned types contribute nothing.
  EXPECT_EQ(pic.size(), 1u);

  // o2's picture: incoming a from (unassigned) o1 is dropped; outgoing b
  // to atomic stays.
  TypeSignature pic2 = ObjectPicture(g, tau, Obj(g, "o2"));
  graph::LabelId b = g.labels().Find("b");
  EXPECT_TRUE(pic2.Contains(TypedLink::OutAtomic(b)));
  EXPECT_EQ(pic2.size(), 1u);
}

TEST(RecastTest, NearestTypeFallback) {
  // A program with a single type "has a and b"; an object with only `a`
  // fits nothing exactly and falls back to the nearest type.
  graph::GraphBuilder b;
  ASSERT_OK(b.Atomic("x", "1"));
  ASSERT_OK(b.Edge("lonely", "a", "x"));
  util::Status st;
  graph::DataGraph g = std::move(b).Build(&st);
  ASSERT_OK(st);
  graph::LabelId a = g.labels().Find("a");
  graph::LabelId bb = g.InternLabel("b");
  TypingProgram p;
  p.AddType("t", TypeSignature::FromLinks(
                     {TypedLink::OutAtomic(a), TypedLink::OutAtomic(bb)}));

  std::vector<std::vector<TypeId>> no_homes(g.NumObjects());
  graph::ObjectId lonely = Obj(g, "lonely");
  ASSERT_OK_AND_ASSIGN(RecastResult r, Recast(p, g, no_homes));
  EXPECT_EQ(r.num_exact, 0u);
  EXPECT_EQ(r.num_fallback, 1u);
  EXPECT_TRUE(r.assignment.Has(lonely, 0));

  RecastOptions strict;
  strict.nearest_type_fallback = false;
  ASSERT_OK_AND_ASSIGN(RecastResult r2, Recast(p, g, no_homes, strict));
  EXPECT_EQ(r2.num_untyped, 1u);
  EXPECT_TRUE(r2.assignment.TypesOf(lonely).empty());
}

TEST(RecastTest, NearestTypeDistanceReported) {
  graph::GraphBuilder b;
  ASSERT_OK(b.Atomic("x", "1"));
  ASSERT_OK(b.Edge("o", "a", "x"));
  util::Status st;
  graph::DataGraph g = std::move(b).Build(&st);
  ASSERT_OK(st);
  graph::LabelId a = g.labels().Find("a");
  graph::LabelId c = g.InternLabel("c");
  TypingProgram p;
  p.AddType("far", TypeSignature::FromLinks(
                       {TypedLink::OutAtomic(c)}));                 // d = 2
  p.AddType("near", TypeSignature::FromLinks(
                        {TypedLink::OutAtomic(a),
                         TypedLink::OutAtomic(c)}));                // d = 1
  TypeAssignment tau(g.NumObjects());
  size_t dist = 0;
  TypeId t = NearestType(p, g, tau, Obj(g, "o"), &dist);
  EXPECT_EQ(t, 1);
  EXPECT_EQ(dist, 1u);
}

TEST(RecastTest, NearestTypeTieBreaksLowestId) {
  graph::DataGraph g;
  g.AddComplex("o");
  graph::LabelId a = g.InternLabel("a");
  graph::LabelId b = g.InternLabel("b");
  TypingProgram p;
  p.AddType("t0", TypeSignature::FromLinks({TypedLink::OutAtomic(a)}));
  p.AddType("t1", TypeSignature::FromLinks({TypedLink::OutAtomic(b)}));
  TypeAssignment tau(1);
  EXPECT_EQ(NearestType(p, g, tau, 0), 0);
}

TEST(RecastTest, EmptyProgram) {
  graph::DataGraph g = test::MakeFigure2Database();
  TypingProgram empty;
  std::vector<std::vector<TypeId>> homes(g.NumObjects());
  ASSERT_OK_AND_ASSIGN(RecastResult r, Recast(empty, g, homes));
  EXPECT_EQ(r.num_untyped, g.NumComplexObjects());
  TypeAssignment tau(g.NumObjects());
  EXPECT_EQ(NearestType(empty, g, tau, 0), kInvalidType);
}

TEST(RecastTest, HomesKeptEvenWhenUnsatisfied) {
  // An object whose home requirements are not witnessed keeps the home —
  // the gap shows up as deficit, not as a dropped assignment (§6).
  graph::GraphBuilder b;
  ASSERT_OK(b.Atomic("x", "1"));
  ASSERT_OK(b.Edge("o", "a", "x"));
  util::Status st;
  graph::DataGraph g = std::move(b).Build(&st);
  ASSERT_OK(st);
  graph::LabelId a = g.labels().Find("a");
  graph::LabelId m = g.InternLabel("missing");
  TypingProgram p;
  p.AddType("t", TypeSignature::FromLinks(
                     {TypedLink::OutAtomic(a), TypedLink::OutAtomic(m)}));
  std::vector<std::vector<TypeId>> homes(g.NumObjects());
  graph::ObjectId o = Obj(g, "o");
  homes[o] = {0};
  ASSERT_OK_AND_ASSIGN(RecastResult r, Recast(p, g, homes));
  EXPECT_TRUE(r.assignment.Has(o, 0));
  EXPECT_EQ(r.num_exact, 0u);
  EXPECT_EQ(r.num_fallback, 0u);  // home made a fallback unnecessary
}

TEST(RecastTest, FallbackMatchesInOrderNearestTypeReference) {
  // Cluster aggressively with the empty type on, so the recast has real
  // stragglers (homes dropped by empty moves), then compare with the
  // textbook loop: homes, then exact GFP types, then NearestType (the
  // sorted-vector kernel) for each untyped complex object in id order.
  for (uint64_t seed : {1, 7, 42, 1234, 99991}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    gen::RandomGraphOptions opt;
    opt.num_complex = 120;
    opt.num_atomic = 60;
    opt.num_edges = 400;
    opt.num_labels = 4;
    opt.seed = seed;
    graph::DataGraph g = gen::RandomGraph(opt);
    ASSERT_OK_AND_ASSIGN(PerfectTypingResult stage1,
                         PerfectTypingViaHashRefinement(g));
    cluster::ClusteringOptions copt;
    copt.target_num_types = 2;
    ASSERT_OK_AND_ASSIGN(
        cluster::ClusteringResult clustering,
        cluster::ClusterTypes(stage1.program, stage1.weight, copt));
    const TypingProgram& program = clustering.final_program;
    std::vector<std::vector<TypeId>> homes(g.NumObjects());
    for (size_t o = 0; o < stage1.home.size(); ++o) {
      if (stage1.home[o] == kInvalidType) continue;
      TypeId t = clustering.final_map[static_cast<size_t>(stage1.home[o])];
      if (t != cluster::kEmptyType) homes[o] = {t};
    }

    ASSERT_OK_AND_ASSIGN(RecastResult got, Recast(program, g, homes));
    ASSERT_OK_AND_ASSIGN(Extents m, ComputeGfp(program, g));
    TypeAssignment want(g.NumObjects());
    size_t fallbacks = 0;
    for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
      for (TypeId t : homes[o]) want.Assign(o, t);
      for (size_t t = 0; t < program.NumTypes(); ++t) {
        if (m.Contains(static_cast<TypeId>(t), o)) {
          want.Assign(o, static_cast<TypeId>(t));
        }
      }
    }
    for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
      if (!g.IsComplex(o) || !want.TypesOf(o).empty()) continue;
      want.Assign(o, NearestType(program, g, want, o));
      ++fallbacks;
    }
    EXPECT_GT(fallbacks, 0u);
    EXPECT_EQ(got.num_fallback, fallbacks);
    EXPECT_EQ(got.assignment, want);
  }
}

}  // namespace
}  // namespace schemex::typing
