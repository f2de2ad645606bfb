#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/exact.h"
#include "cluster/greedy.h"
#include "cluster/kcenter.h"
#include "gen/spec.h"
#include "tests/test_util.h"
#include "typing/defect.h"
#include "typing/perfect_typing.h"
#include "typing/recast.h"

namespace schemex::cluster {
namespace {

using typing::TypedLink;
using typing::TypeId;
using typing::TypeSignature;
using typing::TypingProgram;

TypingProgram ThreeGroups(graph::LabelInterner* labels) {
  // Three natural groups of two types each; within-group distance 1,
  // across-group distance >= 4.
  TypingProgram p;
  auto atomic = [&](const char* l) {
    return TypedLink::OutAtomic(labels->Intern(l));
  };
  p.AddType("a1", TypeSignature::FromLinks({atomic("a"), atomic("b")}));
  p.AddType("a2", TypeSignature::FromLinks(
                      {atomic("a"), atomic("b"), atomic("a_opt")}));
  p.AddType("b1", TypeSignature::FromLinks({atomic("c"), atomic("d")}));
  p.AddType("b2", TypeSignature::FromLinks(
                      {atomic("c"), atomic("d"), atomic("b_opt")}));
  p.AddType("c1", TypeSignature::FromLinks({atomic("e"), atomic("f")}));
  p.AddType("c2", TypeSignature::FromLinks(
                      {atomic("e"), atomic("f"), atomic("c_opt")}));
  return p;
}

TEST(KCenterTest, RecoversNaturalClusters) {
  graph::LabelInterner labels;
  TypingProgram p = ThreeGroups(&labels);
  ASSERT_OK_AND_ASSIGN(KCenterResult r,
                       KCenterCluster(p, {10, 5, 10, 5, 10, 5}, 3));
  EXPECT_EQ(r.program.NumTypes(), 3u);
  EXPECT_EQ(r.map[0], r.map[1]);
  EXPECT_EQ(r.map[2], r.map[3]);
  EXPECT_EQ(r.map[4], r.map[5]);
  EXPECT_NE(r.map[0], r.map[2]);
  EXPECT_NE(r.map[2], r.map[4]);
  EXPECT_EQ(r.radius, 1u);  // each satellite is 1 away from its medoid
  // Weighted medoid picks the heavy member (the 2-link core signature).
  for (TypeId m : r.medoids) {
    EXPECT_EQ(p.type(m).signature.size(), 2u);
  }
  ASSERT_OK(r.program.Validate());
  // Weights accumulate.
  uint64_t total = 0;
  for (uint64_t w : r.weights) total += w;
  EXPECT_EQ(total, 45u);
}

TEST(KCenterTest, IdentityWhenKCoversAll) {
  graph::LabelInterner labels;
  TypingProgram p = ThreeGroups(&labels);
  ASSERT_OK_AND_ASSIGN(KCenterResult r,
                       KCenterCluster(p, {1, 1, 1, 1, 1, 1}, 10));
  EXPECT_EQ(r.program.NumTypes(), 6u);
  EXPECT_EQ(r.radius, 0u);
}

TEST(KCenterTest, InputValidation) {
  graph::LabelInterner labels;
  TypingProgram p = ThreeGroups(&labels);
  EXPECT_FALSE(KCenterCluster(p, {1, 2}, 2).ok());
  EXPECT_FALSE(KCenterCluster(p, {1, 1, 1, 1, 1, 1}, 0).ok());
}

TEST(KCenterTest, DuplicateSignaturesCollapseEarly) {
  graph::LabelInterner labels;
  graph::LabelId a = labels.Intern("a");
  TypingProgram p;
  p.AddType("t1", TypeSignature::FromLinks({TypedLink::OutAtomic(a)}));
  p.AddType("t2", TypeSignature::FromLinks({TypedLink::OutAtomic(a)}));
  p.AddType("t3", TypeSignature::FromLinks({TypedLink::OutAtomic(a)}));
  // Only one distinct point: even with k = 2, one cluster suffices.
  ASSERT_OK_AND_ASSIGN(KCenterResult r, KCenterCluster(p, {1, 1, 1}, 2));
  EXPECT_EQ(r.program.NumTypes(), 1u);
  EXPECT_EQ(r.radius, 0u);
}

class SmallInstance : public ::testing::TestWithParam<uint64_t> {
 protected:
  graph::DataGraph MakeGraph() {
    gen::DatasetSpec spec;
    spec.name = "tiny";
    spec.atomic_pool_per_label = 4;
    spec.types.push_back(gen::TypeSpec{
        "u", 12, {{"p", gen::kAtomicTarget, 1.0},
                  {"q", gen::kAtomicTarget, 0.5}}});
    spec.types.push_back(gen::TypeSpec{
        "v", 12, {{"r", gen::kAtomicTarget, 1.0},
                  {"s", gen::kAtomicTarget, 0.5}}});
    auto g = gen::Generate(spec, GetParam());
    return std::move(g).value();
  }
};

TEST_P(SmallInstance, ExactIsNoWorseThanHeuristics) {
  graph::DataGraph g = MakeGraph();
  ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult stage1,
                       typing::PerfectTypingViaHashRefinement(g));
  if (stage1.program.NumTypes() > 8 || stage1.program.NumTypes() < 2) {
    GTEST_SKIP() << "degenerate draw";
  }
  const size_t k = 2;

  ExactOptions eopt;
  eopt.k = k;
  ASSERT_OK_AND_ASSIGN(ExactResult exact, ExactOptimalTyping(g, stage1, eopt));
  EXPECT_GT(exact.partitions_tried, 0u);

  // Greedy at the same k, measured with the same defect pipeline.
  ClusteringOptions copt;
  copt.target_num_types = k;
  copt.enable_empty_type = false;
  ASSERT_OK_AND_ASSIGN(ClusteringResult greedy,
                       ClusterTypes(stage1.program, stage1.weight, copt));
  std::vector<std::vector<TypeId>> homes(g.NumObjects());
  for (size_t o = 0; o < stage1.home.size(); ++o) {
    if (stage1.home[o] != typing::kInvalidType) {
      TypeId m = greedy.final_map[static_cast<size_t>(stage1.home[o])];
      if (m != kEmptyType) homes[o] = {m};
    }
  }
  ASSERT_OK_AND_ASSIGN(typing::RecastResult recast,
                       typing::Recast(greedy.final_program, g, homes));
  size_t greedy_defect =
      typing::ComputeDefect(greedy.final_program, g, recast.assignment)
          .defect();

  EXPECT_LE(exact.defect, greedy_defect) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmallInstance,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(ExactTest, GuardsAgainstBlowUp) {
  graph::DataGraph g;
  for (int i = 0; i < 40; ++i) {
    graph::ObjectId c = g.AddComplex();
    (void)g.AddEdge(c, g.AddAtomic("v"),
                    "l" + std::to_string(i));  // all distinct types
  }
  ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult stage1,
                       typing::PerfectTypingViaHashRefinement(g));
  ExactOptions opt;
  opt.k = 3;
  EXPECT_EQ(ExactOptimalTyping(g, stage1, opt).status().code(),
            util::StatusCode::kFailedPrecondition);
}

TEST(ExactTest, SingleTypeInstance) {
  graph::DataGraph g;
  graph::ObjectId c = g.AddComplex();
  (void)g.AddEdge(c, g.AddAtomic("v"), "x");
  ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult stage1,
                       typing::PerfectTypingViaHashRefinement(g));
  ExactOptions opt;
  opt.k = 1;
  ASSERT_OK_AND_ASSIGN(ExactResult r, ExactOptimalTyping(g, stage1, opt));
  EXPECT_EQ(r.defect, 0u);
  EXPECT_EQ(r.program.NumTypes(), 1u);
}

TEST(KCenterTest, AllZeroWeightsFallBackToLowestIdMedoid) {
  // Weights only steer medoid selection; the traversal is unweighted. With
  // every weight 0 all medoid costs tie at 0 and the scan keeps the first
  // (lowest stage-1 id) member of each cluster — the 2-link core here.
  graph::LabelInterner labels;
  TypingProgram p = ThreeGroups(&labels);
  ASSERT_OK_AND_ASSIGN(KCenterResult r,
                       KCenterCluster(p, {0, 0, 0, 0, 0, 0}, 3));
  EXPECT_EQ(r.program.NumTypes(), 3u);
  EXPECT_EQ(r.radius, 1u);
  EXPECT_EQ(r.map[0], r.map[1]);
  EXPECT_EQ(r.map[2], r.map[3]);
  EXPECT_EQ(r.map[4], r.map[5]);
  for (TypeId m : r.medoids) {
    EXPECT_EQ(m % 2, 0) << "medoid must be the even (first) group member";
    EXPECT_EQ(p.type(m).signature.size(), 2u);
  }
  for (uint64_t w : r.weights) EXPECT_EQ(w, 0u);
  ASSERT_OK(r.program.Validate());
  // Deterministic: a second run reproduces the result exactly.
  ASSERT_OK_AND_ASSIGN(KCenterResult r2,
                       KCenterCluster(p, {0, 0, 0, 0, 0, 0}, 3));
  EXPECT_EQ(r.medoids, r2.medoids);
  EXPECT_EQ(r.map, r2.map);
  EXPECT_TRUE(r.program == r2.program);
}

TEST(KCenterTest, ZeroWeightMembersLoseMedoidElections) {
  // A zero-weight member contributes nothing to any medoid cost, so the
  // weighted sibling wins the definition even though the traversal (which
  // ignores weights) may have centered on either.
  graph::LabelInterner labels;
  TypingProgram p = ThreeGroups(&labels);
  ASSERT_OK_AND_ASSIGN(KCenterResult r,
                       KCenterCluster(p, {0, 5, 0, 5, 0, 5}, 3));
  EXPECT_EQ(r.program.NumTypes(), 3u);
  for (TypeId m : r.medoids) {
    EXPECT_EQ(m % 2, 1) << "weighted satellite must win the election";
    EXPECT_EQ(p.type(m).signature.size(), 3u);
  }
  uint64_t total = 0;
  for (uint64_t w : r.weights) total += w;
  EXPECT_EQ(total, 15u);
  ASSERT_OK(r.program.Validate());
}

TEST(ExactTest, AllZeroWeightsStillEnumerate) {
  // Zero weights collapse every medoid election to a tie (first member
  // wins) but must not break the partition search itself.
  graph::DataGraph g = test::MakeFigure4Database();
  ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult stage1,
                       typing::PerfectTypingViaGfp(g));
  std::fill(stage1.weight.begin(), stage1.weight.end(), 0u);
  ExactOptions opt;
  opt.k = 2;
  ASSERT_OK_AND_ASSIGN(ExactResult r, ExactOptimalTyping(g, stage1, opt));
  EXPECT_GT(r.partitions_tried, 0u);
  EXPECT_LE(r.program.NumTypes(), 2u);
  ASSERT_OK(r.program.Validate());
  ASSERT_OK_AND_ASSIGN(ExactResult r2, ExactOptimalTyping(g, stage1, opt));
  EXPECT_EQ(r.defect, r2.defect);
  EXPECT_TRUE(r.program == r2.program);
}

TEST(ExactTest, KOneForcesFullMerge) {
  graph::DataGraph g = test::MakeFigure4Database();
  ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult stage1,
                       typing::PerfectTypingViaGfp(g));
  ExactOptions opt;
  opt.k = 1;
  ASSERT_OK_AND_ASSIGN(ExactResult r, ExactOptimalTyping(g, stage1, opt));
  EXPECT_EQ(r.program.NumTypes(), 1u);
  // With everything in one type there must be some defect on Figure 4.
  EXPECT_GT(r.defect, 0u);
}

}  // namespace
}  // namespace schemex::cluster
