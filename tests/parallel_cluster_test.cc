// Stage-2/3 checks: Stage 2 breaks distance ties deterministically, the
// recast fallback sees earlier fallback assignments, and cancellation
// fires inside both stages, not only at their boundaries. The suite name
// predates the removal of the Stage-3 shards and is kept so each test's
// history stays continuous.

#include <vector>

#include <gtest/gtest.h>

#include "cluster/greedy.h"
#include "gen/dbg.h"
#include "gen/spec.h"
#include "graph/graph_builder.h"
#include "test_util.h"
#include "typing/perfect_typing.h"
#include "typing/recast.h"

namespace schemex {
namespace {

using cluster::ClusteringOptions;
using cluster::ClusteringResult;
using cluster::PsiKind;
using typing::TypeId;
using typing::TypedLink;
using typing::TypeSignature;
using typing::TypingProgram;

TEST(ParallelCluster, ForcedTiesBreakTowardLowestSourceDest) {
  // Three types {->a^0, ->p_i^0}: every merge costs d = 2 under kSimpleD,
  // and each |signature| = 2 prices the empty move at 2 as well — a
  // three-way tie. The deterministic order must pick the lowest (source,
  // dest) pair and the empty move must lose.
  TypingProgram program;
  program.AddType("t0", TypeSignature::FromLinks(
                            {TypedLink::OutAtomic(0), TypedLink::OutAtomic(1)}));
  program.AddType("t1", TypeSignature::FromLinks(
                            {TypedLink::OutAtomic(0), TypedLink::OutAtomic(2)}));
  program.AddType("t2", TypeSignature::FromLinks(
                            {TypedLink::OutAtomic(0), TypedLink::OutAtomic(3)}));
  std::vector<uint32_t> weights = {1, 1, 1};

  ClusteringOptions copt;
  copt.psi = PsiKind::kSimpleD;
  copt.target_num_types = 1;
  copt.enable_empty_type = true;
  ASSERT_OK_AND_ASSIGN(ClusteringResult got,
                       cluster::ClusterTypes(program, weights, copt));
  ASSERT_EQ(got.steps.size(), 2u);
  EXPECT_EQ(got.steps[0].source, 0);
  EXPECT_EQ(got.steps[0].dest, 1);
  EXPECT_DOUBLE_EQ(got.steps[0].cost, 2.0);
  // The empty move never wins a tie against a real destination.
  EXPECT_NE(got.steps[0].dest, cluster::kEmptyType);
  EXPECT_NE(got.steps[1].dest, cluster::kEmptyType);
}

TEST(ParallelCluster, StragglerSeesEarlierFallbackAssignment) {
  // Chain o0 -m-> o1 -m-> o2, with o0 -x-> atom. Program:
  //   t0 = {->x^0}          (o0, exactly, via GFP)
  //   t1 = {<-m^t0, ->x^0}  (nobody exactly)
  //   t2 = {<-m^t1}         (nobody exactly)
  // The fallback runs in object order: o1's picture {<-m^t0} is nearest
  // t1 (d=1); o2's picture *after o1 is typed* is {<-m^t1}, nearest t2
  // at d=0. Against the pre-fallback assignment o2 would get t0 (its
  // empty picture ties t0/t2, lowest id wins).
  graph::GraphBuilder b;
  EXPECT_OK(b.Complex("o0"));
  EXPECT_OK(b.Complex("o1"));
  EXPECT_OK(b.Complex("o2"));
  EXPECT_OK(b.Atomic("a", "v"));
  EXPECT_OK(b.Edge("o0", "x", "a"));
  EXPECT_OK(b.Edge("o0", "m", "o1"));
  EXPECT_OK(b.Edge("o1", "m", "o2"));
  util::Status st;
  graph::DataGraph g = std::move(b).Build(&st);
  ASSERT_OK(st);
  graph::LabelId x = g.labels().Find("x");
  graph::LabelId m = g.labels().Find("m");
  ASSERT_NE(x, graph::kInvalidLabel);
  ASSERT_NE(m, graph::kInvalidLabel);

  TypingProgram program;
  program.AddType("t0", TypeSignature::FromLinks({TypedLink::Out(x, typing::kAtomicType)}));
  program.AddType("t1", TypeSignature::FromLinks(
                            {TypedLink::In(m, 0), TypedLink::Out(x, typing::kAtomicType)}));
  program.AddType("t2", TypeSignature::FromLinks({TypedLink::In(m, 1)}));

  std::vector<std::vector<TypeId>> homes(g.NumObjects());
  ASSERT_OK_AND_ASSIGN(typing::RecastResult ref,
                       typing::Recast(program, g, homes));
  EXPECT_EQ(ref.num_exact, 1u);
  EXPECT_EQ(ref.num_fallback, 2u);
  ASSERT_EQ(ref.assignment.TypesOf(1).size(), 1u);
  EXPECT_EQ(ref.assignment.TypesOf(1)[0], 1);  // o1 -> t1
  ASSERT_EQ(ref.assignment.TypesOf(2).size(), 1u);
  EXPECT_EQ(ref.assignment.TypesOf(2)[0], 2);  // o2 -> t2, not t0
}

TEST(ParallelCluster, Stage2CancellationBeforeMergeSteps) {
  // Count how many polls a full clustering makes, then cancel on the last
  // poll of a fresh run — the abort must surface mid-stage, with the
  // hook's status verbatim.
  gen::DatasetSpec spec = gen::DbgSpec();
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::Generate(spec, 4242));
  ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult stage1,
                       typing::PerfectTypingViaHashRefinement(g));
  ClusteringOptions copt;
  copt.target_num_types = 1;

  size_t total_polls = 0;
  typing::ExecOptions count_exec;
  count_exec.check_cancel = [&total_polls] {
    ++total_polls;
    return util::Status::OK();
  };
  ASSERT_OK(cluster::ClusterTypes(stage1.program, stage1.weight, copt,
                                  count_exec)
                .status());
  ASSERT_GT(total_polls, 1u) << "expected a multi-merge clustering";

  size_t polls = 0;
  const size_t cancel_at = total_polls;
  typing::ExecOptions exec;
  exec.check_cancel = [&polls, cancel_at] {
    return ++polls >= cancel_at
               ? util::Status::DeadlineExceeded("stage2 cancel")
               : util::Status::OK();
  };
  auto result = cluster::ClusterTypes(stage1.program, stage1.weight, copt, exec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(result.status().message(), "stage2 cancel");
}

TEST(ParallelCluster, Stage3CancellationMidRecast) {
  gen::DatasetSpec spec = gen::DbgSpec();
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::Generate(spec, 4242));
  ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult stage1,
                       typing::PerfectTypingViaHashRefinement(g));
  std::vector<std::vector<TypeId>> homes(g.NumObjects());
  for (size_t o = 0; o < stage1.home.size(); ++o) {
    if (stage1.home[o] != typing::kInvalidType) homes[o] = {stage1.home[o]};
  }

  size_t total_polls = 0;
  typing::ExecOptions count_exec;
  count_exec.check_cancel = [&total_polls] {
    ++total_polls;
    return util::Status::OK();
  };
  ASSERT_OK(typing::Recast(stage1.program, g, homes, {}, count_exec).status());
  ASSERT_GT(total_polls, 1u) << "expected polls beyond the GFP";

  size_t polls = 0;
  const size_t cancel_at = total_polls;
  typing::ExecOptions exec;
  exec.check_cancel = [&polls, cancel_at] {
    return ++polls >= cancel_at
               ? util::Status::DeadlineExceeded("stage3 cancel")
               : util::Status::OK();
  };
  auto result = typing::Recast(stage1.program, g, homes, {}, exec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(result.status().message(), "stage3 cancel");
}

}  // namespace
}  // namespace schemex
