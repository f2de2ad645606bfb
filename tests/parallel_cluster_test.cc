// Stages 2-3 under ExecOptions: the greedy clustering and k-center run on
// one thread whatever ExecOptions asks for, and the recast fallback
// shards; every thread count must give a *bit-identical* result — merge
// sequence, snapshots, and assignments included — and cancellation must
// fire inside the stages, not only at their boundaries.

#include <vector>

#include <gtest/gtest.h>

#include "cluster/greedy.h"
#include "cluster/kcenter.h"
#include "gen/dbg.h"
#include "gen/random_graph.h"
#include "gen/spec.h"
#include "graph/graph_builder.h"
#include "test_util.h"
#include "typing/perfect_typing.h"
#include "typing/recast.h"
#include "util/parallel_for.h"

namespace schemex {
namespace {

using cluster::ClusteringOptions;
using cluster::ClusteringResult;
using cluster::PsiKind;
using typing::TypeId;
using typing::TypedLink;
using typing::TypeSignature;
using typing::TypingProgram;

void ExpectSameSteps(const ClusteringResult& got, const ClusteringResult& want,
                     const std::string& context) {
  ASSERT_EQ(got.steps.size(), want.steps.size()) << context;
  for (size_t i = 0; i < want.steps.size(); ++i) {
    EXPECT_EQ(got.steps[i].num_types_after, want.steps[i].num_types_after)
        << context << " step " << i;
    EXPECT_EQ(got.steps[i].source, want.steps[i].source)
        << context << " step " << i;
    EXPECT_EQ(got.steps[i].dest, want.steps[i].dest)
        << context << " step " << i;
    EXPECT_EQ(got.steps[i].simple_d, want.steps[i].simple_d)
        << context << " step " << i;
    EXPECT_DOUBLE_EQ(got.steps[i].cost, want.steps[i].cost)
        << context << " step " << i;
  }
}

void ExpectIdenticalClustering(const ClusteringResult& got,
                               const ClusteringResult& want,
                               const std::string& context) {
  ExpectSameSteps(got, want, context);
  EXPECT_EQ(got.final_program, want.final_program) << context;
  EXPECT_EQ(got.final_map, want.final_map) << context;
  EXPECT_EQ(got.final_weights, want.final_weights) << context;
  EXPECT_DOUBLE_EQ(got.total_distance, want.total_distance) << context;
  ASSERT_EQ(got.snapshots.size(), want.snapshots.size()) << context;
  for (size_t i = 0; i < want.snapshots.size(); ++i) {
    EXPECT_EQ(got.snapshots[i].num_types, want.snapshots[i].num_types);
    EXPECT_EQ(got.snapshots[i].program, want.snapshots[i].program);
    EXPECT_EQ(got.snapshots[i].stage1_to_snapshot,
              want.snapshots[i].stage1_to_snapshot);
    EXPECT_DOUBLE_EQ(got.snapshots[i].total_distance,
                     want.snapshots[i].total_distance);
  }
}

class ParallelClusterProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  graph::DataGraph MakeGraph() const {
    gen::RandomGraphOptions opt;
    opt.num_complex = 120;
    opt.num_atomic = 60;
    opt.num_edges = 400;
    opt.num_labels = 4;
    opt.seed = GetParam();
    return gen::RandomGraph(opt);
  }
};

TEST_P(ParallelClusterProperty, GreedyIdenticalAcrossThreadCounts) {
  graph::DataGraph g = MakeGraph();
  ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult stage1,
                       typing::PerfectTypingViaHashRefinement(g));
  for (PsiKind psi : {PsiKind::kPsi2, PsiKind::kPsi1, PsiKind::kSimpleD}) {
    for (bool empty : {true, false}) {
      ClusteringOptions copt;
      copt.psi = psi;
      copt.target_num_types = 3;
      copt.enable_empty_type = empty;
      copt.record_snapshots = true;
      ASSERT_OK_AND_ASSIGN(
          ClusteringResult ref,
          cluster::ClusterTypes(stage1.program, stage1.weight, copt));
      for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
        typing::ExecOptions exec;
        exec.num_threads = threads;
        ASSERT_OK_AND_ASSIGN(ClusteringResult got,
                             cluster::ClusterTypes(stage1.program,
                                                   stage1.weight, copt, exec));
        ExpectIdenticalClustering(
            got, ref,
            std::string(cluster::PsiKindName(psi)) +
                (empty ? "+empty" : "") + " threads=" +
                std::to_string(threads));
      }
    }
  }
}

TEST_P(ParallelClusterProperty, KCenterIdenticalAcrossThreadCounts) {
  graph::DataGraph g = MakeGraph();
  ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult stage1,
                       typing::PerfectTypingViaHashRefinement(g));
  ASSERT_OK_AND_ASSIGN(
      cluster::KCenterResult ref,
      cluster::KCenterCluster(stage1.program, stage1.weight, 4));
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    typing::ExecOptions exec;
    exec.num_threads = threads;
    ASSERT_OK_AND_ASSIGN(
        cluster::KCenterResult got,
        cluster::KCenterCluster(stage1.program, stage1.weight, 4, exec));
    EXPECT_EQ(got.program, ref.program) << threads;
    EXPECT_EQ(got.map, ref.map) << threads;
    EXPECT_EQ(got.weights, ref.weights) << threads;
    EXPECT_EQ(got.medoids, ref.medoids) << threads;
    EXPECT_EQ(got.radius, ref.radius) << threads;
  }
}

TEST_P(ParallelClusterProperty, RecastIdenticalAcrossThreadCounts) {
  // Cluster aggressively with the empty type on, so the recast has real
  // stragglers (homes dropped by empty moves) exercising the speculative
  // fallback, then pin assignment identity across thread counts.
  graph::DataGraph g = MakeGraph();
  ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult stage1,
                       typing::PerfectTypingViaHashRefinement(g));
  ClusteringOptions copt;
  copt.target_num_types = 2;
  ASSERT_OK_AND_ASSIGN(
      ClusteringResult clustering,
      cluster::ClusterTypes(stage1.program, stage1.weight, copt));

  std::vector<std::vector<TypeId>> homes(g.NumObjects());
  for (size_t o = 0; o < stage1.home.size(); ++o) {
    if (stage1.home[o] == typing::kInvalidType) continue;
    TypeId m = clustering.final_map[static_cast<size_t>(stage1.home[o])];
    if (m != cluster::kEmptyType) homes[o] = {m};
  }

  ASSERT_OK_AND_ASSIGN(
      typing::RecastResult ref,
      typing::Recast(clustering.final_program, g, homes));
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    typing::ExecOptions exec;
    exec.num_threads = threads;
    ASSERT_OK_AND_ASSIGN(
        typing::RecastResult got,
        typing::Recast(clustering.final_program, g, homes, {}, exec));
    EXPECT_EQ(got.assignment, ref.assignment) << threads;
    EXPECT_EQ(got.num_exact, ref.num_exact) << threads;
    EXPECT_EQ(got.num_fallback, ref.num_fallback) << threads;
    EXPECT_EQ(got.num_untyped, ref.num_untyped) << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelClusterProperty,
                         ::testing::Values(1, 7, 42, 1234, 99991));

TEST(ParallelCluster, ForcedTiesBreakTowardLowestSourceDest) {
  // Three types {->a^0, ->p_i^0}: every merge costs d = 2 under kSimpleD,
  // and each |signature| = 2 prices the empty move at 2 as well — a
  // three-way tie. The deterministic order must pick the lowest (source,
  // dest) pair and the empty move must lose, at every thread count.
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
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    typing::ExecOptions exec;
    exec.num_threads = threads;
    ASSERT_OK_AND_ASSIGN(ClusteringResult got,
                         cluster::ClusterTypes(program, weights, copt, exec));
    ASSERT_EQ(got.steps.size(), 2u) << threads;
    EXPECT_EQ(got.steps[0].source, 0) << threads;
    EXPECT_EQ(got.steps[0].dest, 1) << threads;
    EXPECT_DOUBLE_EQ(got.steps[0].cost, 2.0) << threads;
    // The empty move never wins a tie against a real destination.
    EXPECT_NE(got.steps[0].dest, cluster::kEmptyType);
    EXPECT_NE(got.steps[1].dest, cluster::kEmptyType);
  }
}

TEST(ParallelCluster, StragglerSeesEarlierFallbackAssignment) {
  // Chain o0 -m-> o1 -m-> o2, with o0 -x-> atom. Program:
  //   t0 = {->x^0}          (o0, exactly, via GFP)
  //   t1 = {<-m^t0, ->x^0}  (nobody exactly)
  //   t2 = {<-m^t1}         (nobody exactly)
  // Sequential fallback, in object order: o1's picture {<-m^t0} is
  // nearest t1 (d=1); o2's picture *after o1 is typed* is {<-m^t1},
  // nearest t2 at d=0. Speculating o2 against the pre-fallback
  // assignment would give t0 (empty picture ties t0/t2, lowest id wins)
  // — so this pins that the parallel reduce recomputes stragglers whose
  // neighbor was assigned earlier in the pass.
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
  EXPECT_EQ(ref.assignment.TypesOf(2)[0], 2);  // o2 -> t2, NOT speculative t0

  for (size_t threads : {size_t{2}, size_t{4}}) {
    typing::ExecOptions exec;
    exec.num_threads = threads;
    ASSERT_OK_AND_ASSIGN(typing::RecastResult got,
                         typing::Recast(program, g, homes, {}, exec));
    EXPECT_EQ(got.assignment, ref.assignment) << threads;
    EXPECT_EQ(got.num_fallback, ref.num_fallback) << threads;
  }
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
  count_exec.num_threads = 2;
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
  exec.num_threads = 2;
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
  count_exec.num_threads = 2;
  count_exec.check_cancel = [&total_polls] {
    ++total_polls;
    return util::Status::OK();
  };
  ASSERT_OK(typing::Recast(stage1.program, g, homes, {}, count_exec).status());
  ASSERT_GT(total_polls, 1u) << "expected polls beyond the GFP";

  size_t polls = 0;
  const size_t cancel_at = total_polls;
  typing::ExecOptions exec;
  exec.num_threads = 2;
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

TEST(ParallelCluster, ExternalPoolIsShared) {
  // An externally owned pool serves multiple clustering calls without
  // being torn down, and the results still match the inline reference.
  gen::RandomGraphOptions opt;
  opt.num_complex = 60;
  opt.num_atomic = 30;
  opt.num_edges = 200;
  opt.num_labels = 3;
  opt.seed = 5;
  graph::DataGraph g = gen::RandomGraph(opt);
  ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult stage1,
                       typing::PerfectTypingViaHashRefinement(g));
  ClusteringOptions copt;
  copt.target_num_types = 2;
  ASSERT_OK_AND_ASSIGN(
      ClusteringResult ref,
      cluster::ClusterTypes(stage1.program, stage1.weight, copt));

  util::PoolRef pool(nullptr, 4);
  typing::ExecOptions exec;
  exec.pool = pool.get();
  exec.num_threads = 4;
  for (int round = 0; round < 3; ++round) {
    ASSERT_OK_AND_ASSIGN(
        ClusteringResult got,
        cluster::ClusterTypes(stage1.program, stage1.weight, copt, exec));
    ExpectIdenticalClustering(got, ref, "external pool");
  }
}

}  // namespace
}  // namespace schemex
