#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "cluster/distance.h"
#include "cluster/greedy.h"
#include "gen/dbg.h"
#include "tests/test_util.h"
#include "typing/perfect_typing.h"
#include "typing/typing_program.h"

namespace schemex::cluster {
namespace {

using typing::TypedLink;
using typing::TypeId;
using typing::TypeSignature;
using typing::TypingProgram;

TEST(DistanceTest, NamesAreStable) {
  EXPECT_EQ(PsiKindName(PsiKind::kSimpleD), "d");
  EXPECT_EQ(PsiKindName(PsiKind::kPsi2), "psi2");
  EXPECT_EQ(PsiKindName(PsiKind::kPsi5), "psi5");
}

TEST(DistanceTest, ClosedForms) {
  // L=10, w1=100, w2=10, d=2.
  EXPECT_DOUBLE_EQ(WeightedDistance(PsiKind::kSimpleD, 100, 10, 2, 10), 2.0);
  EXPECT_DOUBLE_EQ(WeightedDistance(PsiKind::kPsi1, 100, 10, 2, 10),
                   100.0 / 1000.0);
  EXPECT_DOUBLE_EQ(WeightedDistance(PsiKind::kPsi2, 100, 10, 2, 10), 20.0);
  EXPECT_DOUBLE_EQ(WeightedDistance(PsiKind::kPsi3, 100, 10, 2, 10),
                   std::sqrt(1000.0));
  EXPECT_DOUBLE_EQ(WeightedDistance(PsiKind::kPsi4, 100, 10, 2, 10), 1000.0);
  EXPECT_DOUBLE_EQ(WeightedDistance(PsiKind::kPsi5, 100, 10, 2, 10),
                   std::sqrt(0.1));
}

TEST(DistanceTest, ZeroDistanceIsFreeForAllKinds) {
  for (PsiKind k : {PsiKind::kSimpleD, PsiKind::kPsi1, PsiKind::kPsi2,
                    PsiKind::kPsi3, PsiKind::kPsi4, PsiKind::kPsi5}) {
    EXPECT_EQ(WeightedDistance(k, 5, 7, 0, 10), 0.0) << PsiKindName(k);
  }
}

TEST(DistanceTest, WeightsClampedToOne) {
  // Zero/negative weights must not blow up ratio forms.
  EXPECT_TRUE(std::isfinite(WeightedDistance(PsiKind::kPsi1, 0, 0, 3, 10)));
  EXPECT_TRUE(std::isfinite(WeightedDistance(PsiKind::kPsi5, 0, 5, 3, 10)));
}

/// §5.2 lists desired properties. psi2 = d*w2 satisfies "increasing in d"
/// and "increasing in w2" (it ignores w1); psi1 satisfies all three.
struct PsiPropertyCase {
  PsiKind kind;
  bool increasing_in_d;
  bool decreasing_in_w1;
  bool increasing_in_w2;
};

class PsiPropertyTest : public ::testing::TestWithParam<PsiPropertyCase> {};

TEST_P(PsiPropertyTest, MonotonicityAsDocumented) {
  const PsiPropertyCase& c = GetParam();
  const size_t L = 20;
  double base = WeightedDistance(c.kind, 50, 10, 3, L);
  if (c.increasing_in_d) {
    EXPECT_LT(base, WeightedDistance(c.kind, 50, 10, 5, L))
        << PsiKindName(c.kind);
  }
  if (c.decreasing_in_w1) {
    EXPECT_GT(base, WeightedDistance(c.kind, 500, 10, 3, L))
        << PsiKindName(c.kind);
  }
  if (c.increasing_in_w2) {
    EXPECT_LT(base, WeightedDistance(c.kind, 50, 100, 3, L))
        << PsiKindName(c.kind);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, PsiPropertyTest,
    ::testing::Values(
        // The paper (§5.2) concedes "some of them don't satisfy all three
        // properties": psi1 is decreasing in BOTH weights; psi3 is not
        // monotone in d once w1*w2 > 1.
        PsiPropertyCase{PsiKind::kSimpleD, true, false, false},
        PsiPropertyCase{PsiKind::kPsi1, true, true, false},
        PsiPropertyCase{PsiKind::kPsi2, true, false, true},
        PsiPropertyCase{PsiKind::kPsi3, false, false, true},
        PsiPropertyCase{PsiKind::kPsi4, true, false, true},
        PsiPropertyCase{PsiKind::kPsi5, true, true, true}),
    [](const ::testing::TestParamInfo<PsiPropertyCase>& info) {
      return std::string(PsiKindName(info.param.kind));
    });

/// The four types of Example 5.1:
///   t1 = ->a^0, ->b^3    t2 = ->a^0, ->b^4
///   t3 = ->a^0, ->b^1    t4 = ->a^0, ->b^2
class Example51 : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = labels_.Intern("a");
    b_ = labels_.Intern("b");
    p_.AddType("t1", TypeSignature::FromLinks(
                         {TypedLink::OutAtomic(a_), TypedLink::Out(b_, 2)}));
    p_.AddType("t2", TypeSignature::FromLinks(
                         {TypedLink::OutAtomic(a_), TypedLink::Out(b_, 3)}));
    p_.AddType("t3", TypeSignature::FromLinks(
                         {TypedLink::OutAtomic(a_), TypedLink::Out(b_, 0)}));
    p_.AddType("t4", TypeSignature::FromLinks(
                         {TypedLink::OutAtomic(a_), TypedLink::Out(b_, 1)}));
    ASSERT_OK(p_.Validate());
  }

  graph::LabelInterner labels_;
  graph::LabelId a_, b_;
  TypingProgram p_;
};

TEST_F(Example51, CoalescingProjectsTheHypercube) {
  // Initially all four types are distinct, but after one merge the
  // remaining pair becomes identical, so the second merge is free.
  ClusteringOptions opt;
  opt.psi = PsiKind::kSimpleD;
  opt.enable_empty_type = false;
  opt.target_num_types = 2;
  ASSERT_OK_AND_ASSIGN(ClusteringResult r,
                       ClusterTypes(p_, {10, 10, 10, 10}, opt));
  ASSERT_EQ(r.steps.size(), 2u);
  EXPECT_GT(r.steps[0].cost, 0.0);   // first merge pays a real distance
  EXPECT_EQ(r.steps[1].simple_d, 0u);  // second is the induced free merge
  EXPECT_EQ(r.steps[1].cost, 0.0);
  EXPECT_EQ(r.final_program.NumTypes(), 2u);
  ASSERT_OK(r.final_program.Validate());
}

TEST_F(Example51, WeightsAccumulateThroughMerges) {
  ClusteringOptions opt;
  opt.psi = PsiKind::kPsi2;
  opt.enable_empty_type = false;
  opt.target_num_types = 1;
  ASSERT_OK_AND_ASSIGN(ClusteringResult r,
                       ClusterTypes(p_, {1, 2, 3, 4}, opt));
  EXPECT_EQ(r.final_program.NumTypes(), 1u);
  ASSERT_EQ(r.final_weights.size(), 1u);
  EXPECT_EQ(r.final_weights[0], 10u);
  for (TypeId m : r.final_map) EXPECT_EQ(m, 0);
}

TEST_F(Example51, SnapshotsCoverEveryK) {
  ClusteringOptions opt;
  opt.enable_empty_type = false;
  opt.target_num_types = 1;
  opt.record_snapshots = true;
  ASSERT_OK_AND_ASSIGN(ClusteringResult r,
                       ClusterTypes(p_, {10, 10, 10, 10}, opt));
  ASSERT_EQ(r.snapshots.size(), 4u);  // k = 4, 3, 2, 1
  EXPECT_EQ(r.snapshots[0].num_types, 4u);
  EXPECT_EQ(r.snapshots[3].num_types, 1u);
  EXPECT_EQ(r.snapshots[0].total_distance, 0.0);
  EXPECT_GE(r.snapshots[3].total_distance, r.snapshots[1].total_distance);
  for (const Snapshot& s : r.snapshots) {
    ASSERT_OK(s.program.Validate());
    EXPECT_EQ(s.stage1_to_snapshot.size(), 4u);
  }
}

TEST(ClusterTest, Example53CutoffBehaviour) {
  // Example 5.3: with a huge type t1, a medium t2 at distance 1+k, and a
  // tiny t3 at distance k from t1, the best 2-type solution flips from
  // "merge t3 into t1" (small k) to "move t3 to the empty type" and
  // eventually "merge t2 into t1" as k grows.
  graph::LabelInterner labels;
  graph::LabelId a = labels.Intern("a");
  graph::LabelId b = labels.Intern("b");
  graph::LabelId c = labels.Intern("c");
  auto make_program = [&](size_t k) {
    TypingProgram p;
    p.AddType("t1", TypeSignature::FromLinks(
                        {TypedLink::OutAtomic(a), TypedLink::OutAtomic(b)}));
    p.AddType("t2",
              TypeSignature::FromLinks({TypedLink::OutAtomic(a),
                                        TypedLink::OutAtomic(b),
                                        TypedLink::OutAtomic(c)}));
    std::vector<TypedLink> far = {TypedLink::OutAtomic(a),
                                  TypedLink::OutAtomic(b)};
    for (size_t i = 0; i < k; ++i) {
      far.push_back(TypedLink::OutAtomic(
          labels.Intern("l" + std::to_string(i))));
    }
    p.AddType("t3", TypeSignature::FromLinks(std::move(far)));
    return p;
  };
  const std::vector<uint32_t> weights = {100000, 1000, 100};

  ClusteringOptions opt;
  opt.psi = PsiKind::kPsi2;
  opt.target_num_types = 2;

  // k = 1: t3 is close to t1; the cheap step merges t3 -> t1.
  {
    ASSERT_OK_AND_ASSIGN(ClusteringResult r,
                         ClusterTypes(make_program(1), weights, opt));
    ASSERT_EQ(r.steps.size(), 1u);
    EXPECT_EQ(r.steps[0].source, 2);
    EXPECT_EQ(r.steps[0].dest, 0);
  }
  // k = 30: t3 is extremely far from everything; moving its 100 objects
  // to the empty type beats dragging them across 30 dimensions, and
  // beats moving the 1000 t2 objects (psi2 scales with w2).
  {
    ASSERT_OK_AND_ASSIGN(ClusteringResult r,
                         ClusterTypes(make_program(30), weights, opt));
    ASSERT_EQ(r.steps.size(), 1u);
    // Either t3 -> empty (its |sig| = 32 distance) or t2 -> t1 (d = 1,
    // w2 = 1000): psi2 costs 3200 vs 1000 — so t2 merges into t1.
    EXPECT_EQ(r.steps[0].source, 1);
    EXPECT_EQ(r.steps[0].dest, 0);
  }
}

TEST(ClusterTest, EmptyTypeWinsForOutlierTypes) {
  // The paper's "choose not to type some objects" regime (Example 5.3):
  // a small type sharing NO links with the others is cheaper to leave
  // unclassified (d = |signature|) than to drag across the hypercube
  // (d = |signature| + |destination|) or to displace a bigger type.
  // Exactly where the cut-offs fall "depend[s] on the distance function
  // that is chosen" (§5.2) — this instance pins them for psi2.
  graph::LabelInterner labels;
  TypingProgram p;
  p.AddType("t1", TypeSignature::FromLinks(
                      {TypedLink::OutAtomic(labels.Intern("a")),
                       TypedLink::OutAtomic(labels.Intern("b"))}));
  p.AddType("t2", TypeSignature::FromLinks(
                      {TypedLink::OutAtomic(labels.Intern("a")),
                       TypedLink::OutAtomic(labels.Intern("b")),
                       TypedLink::OutAtomic(labels.Intern("c"))}));
  p.AddType("t3", TypeSignature::FromLinks(
                      {TypedLink::OutAtomic(labels.Intern("v")),
                       TypedLink::OutAtomic(labels.Intern("w"))}));
  // Costs (psi2): t3->t1 d=4 -> 400; t3->empty d=2 -> 200; t2->t1 -> 1000.
  ClusteringOptions opt;
  opt.psi = PsiKind::kPsi2;
  opt.target_num_types = 2;
  ASSERT_OK_AND_ASSIGN(ClusteringResult r,
                       ClusterTypes(p, {100000, 1000, 100}, opt));
  ASSERT_EQ(r.steps.size(), 1u);
  EXPECT_EQ(r.steps[0].source, 2);
  EXPECT_EQ(r.steps[0].dest, kEmptyType);
  EXPECT_EQ(r.final_map[2], kEmptyType);
  EXPECT_EQ(r.final_program.NumTypes(), 2u);
}

TEST(ClusterTest, EmptyTypeMoveDropsDanglingReferences) {
  // When a type is unclassified, links targeting it disappear from other
  // rule bodies.
  graph::LabelInterner labels;
  graph::LabelId a = labels.Intern("a");
  graph::LabelId r = labels.Intern("r");
  TypingProgram p;
  p.AddType("big", TypeSignature::FromLinks({TypedLink::OutAtomic(a)}));
  p.AddType("weird",
            TypeSignature::FromLinks(
                {TypedLink::OutAtomic(labels.Intern("x1")),
                 TypedLink::OutAtomic(labels.Intern("x2")),
                 TypedLink::OutAtomic(labels.Intern("x3"))}));
  p.AddType("ref", TypeSignature::FromLinks(
                       {TypedLink::OutAtomic(a), TypedLink::Out(r, 1)}));
  ClusteringOptions opt;
  opt.psi = PsiKind::kPsi2;
  opt.target_num_types = 2;
  ASSERT_OK_AND_ASSIGN(ClusteringResult res,
                       ClusterTypes(p, {1000, 1, 500}, opt));
  ASSERT_EQ(res.steps.size(), 1u);
  EXPECT_EQ(res.steps[0].dest, kEmptyType);
  EXPECT_EQ(res.steps[0].source, 1);
  // "ref" lost its ->r^weird link.
  TypeId ref_final = res.final_map[2];
  ASSERT_NE(ref_final, kEmptyType);
  EXPECT_EQ(res.final_program.type(ref_final).signature.size(), 1u);
  ASSERT_OK(res.final_program.Validate());
}

TEST(ClusterTest, InputValidation) {
  TypingProgram p;
  graph::LabelInterner labels;
  p.AddType("t", TypeSignature());
  ClusteringOptions opt;
  EXPECT_FALSE(ClusterTypes(p, {1, 2}, opt).ok());  // weight size mismatch
  opt.target_num_types = 0;
  EXPECT_FALSE(ClusterTypes(p, {1}, opt).ok());
}

TEST(ClusterTest, TargetAboveNIsANoOp) {
  graph::LabelInterner labels;
  TypingProgram p;
  p.AddType("t1", TypeSignature::FromLinks(
                      {TypedLink::OutAtomic(labels.Intern("a"))}));
  p.AddType("t2", TypeSignature::FromLinks(
                      {TypedLink::OutAtomic(labels.Intern("b"))}));
  ClusteringOptions opt;
  opt.target_num_types = 5;
  ASSERT_OK_AND_ASSIGN(ClusteringResult r, ClusterTypes(p, {1, 1}, opt));
  EXPECT_TRUE(r.steps.empty());
  EXPECT_EQ(r.final_program.NumTypes(), 2u);
  EXPECT_EQ(r.total_distance, 0.0);
}

/// A type can legitimately carry weight 0 — e.g. a roles-decomposed type
/// whose objects all live in other roles. Every psi kind must clamp
/// weights below at 1 (and the virtual empty type's starting weight of 0
/// likewise), with and without the empty type enabled.
class PsiZeroWeightTest : public ::testing::TestWithParam<PsiKind> {
 protected:
  TypingProgram MakeProgram() {
    TypingProgram p;
    p.AddType("w0", TypeSignature::FromLinks(
                        {TypedLink::OutAtomic(labels_.Intern("x1")),
                         TypedLink::OutAtomic(labels_.Intern("x2"))}));
    p.AddType("t1", TypeSignature::FromLinks(
                        {TypedLink::OutAtomic(labels_.Intern("a"))}));
    p.AddType("t2", TypeSignature::FromLinks(
                        {TypedLink::OutAtomic(labels_.Intern("a")),
                         TypedLink::OutAtomic(labels_.Intern("b"))}));
    return p;
  }
  graph::LabelInterner labels_;
};

TEST_P(PsiZeroWeightTest, ZeroWeightTypesClusterSafely) {
  TypingProgram p = MakeProgram();
  for (bool empty : {true, false}) {
    ClusteringOptions opt;
    opt.psi = GetParam();
    opt.target_num_types = 1;
    opt.enable_empty_type = empty;
    ASSERT_OK_AND_ASSIGN(ClusteringResult r, ClusterTypes(p, {0, 5, 7}, opt));
    for (const MergeStep& s : r.steps) {
      // A chosen step is never priced at infinity (infinite candidates
      // never win) and never NaN (clamping keeps 0-weight ratios finite).
      EXPECT_TRUE(std::isfinite(s.cost)) << PsiKindName(GetParam());
      EXPECT_GE(s.cost, 0.0) << PsiKindName(GetParam());
    }
    ASSERT_OK(r.final_program.Validate());
    uint64_t total = 0;
    for (uint64_t w : r.final_weights) total += w;
    EXPECT_LE(total, 12u);  // the w=0 type adds nothing anywhere it lands
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PsiZeroWeightTest,
                         ::testing::Values(PsiKind::kSimpleD, PsiKind::kPsi1,
                                           PsiKind::kPsi2, PsiKind::kPsi3,
                                           PsiKind::kPsi4, PsiKind::kPsi5),
                         [](const ::testing::TestParamInfo<PsiKind>& info) {
                           return std::string(PsiKindName(info.param));
                         });

TEST(ClusterTest, EmptyMoveClampsBothWeightsPsi3) {
  // psi3 = (w1*w2)^(1/d). Moving the zero-weight type to the (weight-0)
  // empty type clamps both sides to 1: cost = (1*1)^(1/2) = 1, cheaper
  // than any real merge here — pinning the clamp exactly.
  graph::LabelInterner labels;
  TypingProgram p;
  p.AddType("w0", TypeSignature::FromLinks(
                      {TypedLink::OutAtomic(labels.Intern("x1")),
                       TypedLink::OutAtomic(labels.Intern("x2"))}));
  p.AddType("t1", TypeSignature::FromLinks(
                      {TypedLink::OutAtomic(labels.Intern("a"))}));
  p.AddType("t2", TypeSignature::FromLinks(
                      {TypedLink::OutAtomic(labels.Intern("a")),
                       TypedLink::OutAtomic(labels.Intern("b"))}));
  ClusteringOptions opt;
  opt.psi = PsiKind::kPsi3;
  opt.target_num_types = 2;
  ASSERT_OK_AND_ASSIGN(ClusteringResult r, ClusterTypes(p, {0, 5, 7}, opt));
  ASSERT_EQ(r.steps.size(), 1u);
  EXPECT_EQ(r.steps[0].source, 0);
  EXPECT_EQ(r.steps[0].dest, kEmptyType);
  EXPECT_DOUBLE_EQ(r.steps[0].cost, 1.0);
}

TEST(ClusterTest, EmptyMoveClampsDestWeightPsi4) {
  // psi4 = L^d * w2. Moving the single-link w=0 type into the empty type
  // clamps the empty type's weight 0 to 1: cost = 4^1 * 1 = 4, strictly
  // below every real merge and every larger empty move.
  graph::LabelInterner labels;
  TypingProgram p;
  p.AddType("w0", TypeSignature::FromLinks(
                      {TypedLink::OutAtomic(labels.Intern("x1"))}));
  p.AddType("t1", TypeSignature::FromLinks(
                      {TypedLink::OutAtomic(labels.Intern("a")),
                       TypedLink::OutAtomic(labels.Intern("b"))}));
  p.AddType("t2", TypeSignature::FromLinks(
                      {TypedLink::OutAtomic(labels.Intern("a")),
                       TypedLink::OutAtomic(labels.Intern("b")),
                       TypedLink::OutAtomic(labels.Intern("c"))}));
  ASSERT_EQ(p.NumDistinctTypedLinks(), 4u);
  ClusteringOptions opt;
  opt.psi = PsiKind::kPsi4;
  opt.target_num_types = 2;
  ASSERT_OK_AND_ASSIGN(ClusteringResult r, ClusterTypes(p, {0, 5, 7}, opt));
  ASSERT_EQ(r.steps.size(), 1u);
  EXPECT_EQ(r.steps[0].source, 0);
  EXPECT_EQ(r.steps[0].dest, kEmptyType);
  EXPECT_DOUBLE_EQ(r.steps[0].cost, 4.0);
}

TEST(ClusterTest, DeterministicAcrossRuns) {
  graph::LabelInterner labels;
  TypingProgram p;
  for (int i = 0; i < 6; ++i) {
    p.AddType("t" + std::to_string(i),
              TypeSignature::FromLinks(
                  {TypedLink::OutAtomic(labels.Intern("a")),
                   TypedLink::OutAtomic(
                       labels.Intern("x" + std::to_string(i % 3)))}));
  }
  ClusteringOptions opt;
  opt.target_num_types = 2;
  ASSERT_OK_AND_ASSIGN(ClusteringResult r1,
                       ClusterTypes(p, {5, 4, 3, 2, 1, 1}, opt));
  ASSERT_OK_AND_ASSIGN(ClusteringResult r2,
                       ClusterTypes(p, {5, 4, 3, 2, 1, 1}, opt));
  EXPECT_EQ(r1.final_map, r2.final_map);
  EXPECT_EQ(r1.total_distance, r2.total_distance);
}

TEST(ClusterTest, SnapshotCapKeepsLadderAndRecordsTheTail) {
  // Capping the recorded snapshots must not change the clustering: the
  // same steps and final program, and exactly the uncapped run's
  // snapshots with at most `cap` types.
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::MakeDbgDataset());
  ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult stage1,
                       typing::PerfectTypingViaHashRefinement(g));
  const size_t n = stage1.program.NumTypes();
  ASSERT_GT(n, 20u);
  ClusteringOptions opt;
  opt.record_snapshots = true;
  ASSERT_OK_AND_ASSIGN(ClusteringResult full,
                       ClusterTypes(stage1.program, stage1.weight, opt));
  ASSERT_EQ(full.snapshots.size(), n);
  for (size_t cap : {size_t{1}, size_t{6}, size_t{20}, n - 1, n, n + 5}) {
    SCOPED_TRACE("cap " + std::to_string(cap));
    opt.max_snapshot_types = cap;
    ASSERT_OK_AND_ASSIGN(ClusteringResult capped,
                         ClusterTypes(stage1.program, stage1.weight, opt));
    ASSERT_EQ(capped.steps.size(), full.steps.size());
    for (size_t i = 0; i < full.steps.size(); ++i) {
      EXPECT_EQ(capped.steps[i].num_types_after,
                full.steps[i].num_types_after);
      EXPECT_EQ(capped.steps[i].source, full.steps[i].source);
      EXPECT_EQ(capped.steps[i].dest, full.steps[i].dest);
      EXPECT_EQ(capped.steps[i].simple_d, full.steps[i].simple_d);
      EXPECT_EQ(capped.steps[i].cost, full.steps[i].cost);
    }
    EXPECT_EQ(capped.final_program, full.final_program);
    EXPECT_EQ(capped.final_map, full.final_map);
    EXPECT_EQ(capped.final_weights, full.final_weights);
    EXPECT_EQ(capped.total_distance, full.total_distance);

    std::vector<const Snapshot*> tail;
    for (const Snapshot& snap : full.snapshots) {
      if (snap.num_types <= cap) tail.push_back(&snap);
    }
    ASSERT_EQ(capped.snapshots.size(), tail.size());
    EXPECT_EQ(capped.snapshots.size(), std::min(n, cap));
    for (size_t i = 0; i < tail.size(); ++i) {
      SCOPED_TRACE("k " + std::to_string(tail[i]->num_types));
      EXPECT_EQ(capped.snapshots[i].num_types, tail[i]->num_types);
      EXPECT_EQ(capped.snapshots[i].program, tail[i]->program);
      EXPECT_EQ(capped.snapshots[i].stage1_to_snapshot,
                tail[i]->stage1_to_snapshot);
      EXPECT_EQ(capped.snapshots[i].total_distance, tail[i]->total_distance);
    }
  }
}

}  // namespace
}  // namespace schemex::cluster
