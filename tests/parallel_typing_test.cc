// Stage-1 checks: hash refinement is *bit-identical* to the std::map
// oracle — block ids included, not just the partition — even when every
// hash collides, and cancellation fires inside the algorithms, not only
// at stage boundaries. The suite names predate the removal of the
// Stage-1 shards and are kept so each test's history stays continuous.

#include <vector>

#include <gtest/gtest.h>

#include "extract/extractor.h"
#include "gen/dbg.h"
#include "gen/random_graph.h"
#include "gen/spec.h"
#include "graph/graph_builder.h"
#include "refinement_oracle.h"
#include "test_util.h"
#include "typing/gfp.h"
#include "typing/perfect_typing.h"

namespace schemex {
namespace {

/// Asserts a result matches the reference exactly: same home ids, same
/// program (type order and signatures), same weights.
void ExpectIdentical(const typing::PerfectTypingResult& got,
                     const typing::PerfectTypingResult& want) {
  EXPECT_EQ(got.home, want.home);
  EXPECT_EQ(got.weight, want.weight);
  EXPECT_EQ(got.program, want.program);
}

class ParallelRefinementProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  graph::DataGraph MakeGraph() const {
    gen::RandomGraphOptions opt;
    opt.num_complex = 150;
    opt.num_atomic = 80;
    opt.num_edges = 500;
    opt.num_labels = 4;
    opt.seed = GetParam();
    return gen::RandomGraph(opt);
  }
};

TEST_P(ParallelRefinementProperty, HashRefinementMatchesReference) {
  graph::DataGraph g = MakeGraph();
  ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult ref,
                       typing::MapRefinementOracle(g));
  ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult got,
                       typing::PerfectTypingViaHashRefinement(g));
  ExpectIdentical(got, ref);
}

TEST_P(ParallelRefinementProperty, ForcedHashCollisionsStillExact) {
  // With every signature hashed to the same bucket, the exact
  // collision-verification fallback (previous-block compare + link-span
  // compare) carries the whole partition alone.
  graph::DataGraph g = MakeGraph();
  ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult ref,
                       typing::MapRefinementOracle(g));
  typing::ExecOptions exec;
  exec.debug_force_hash_collisions = true;
  ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult got,
                       typing::PerfectTypingViaHashRefinement(g, exec));
  ExpectIdentical(got, ref);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelRefinementProperty,
                         ::testing::Values(1, 7, 42, 1234, 99991));

TEST(ParallelRefinement, DbgDatasetMatchesReference) {
  // The paper's DBG-like database at 5x scale — structured data with a
  // real multi-round refinement, unlike the random graphs above.
  gen::DatasetSpec spec = gen::DbgSpec();
  for (auto& t : spec.types) t.count *= 5;
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::Generate(spec, 4242));
  ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult ref,
                       typing::MapRefinementOracle(g));
  ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult got,
                       typing::PerfectTypingViaHashRefinement(g));
  ExpectIdentical(got, ref);
}

TEST(ParallelRefinement, CancellationBetweenRounds) {
  gen::DatasetSpec spec = gen::DbgSpec();
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::Generate(spec, 4242));

  // Count how many rounds a full run polls, then cancel one poll early
  // on a fresh run — the abort must surface the hook's status verbatim.
  size_t total_polls = 0;
  typing::ExecOptions count_exec;
  count_exec.check_cancel = [&total_polls] {
    ++total_polls;
    return util::Status::OK();
  };
  ASSERT_OK(typing::PerfectTypingViaHashRefinement(g, count_exec).status());
  ASSERT_GT(total_polls, 1u) << "expected a multi-round refinement";

  size_t polls = 0;
  const size_t cancel_at = total_polls - 1;
  typing::ExecOptions exec;
  exec.check_cancel = [&polls, cancel_at] {
    return ++polls >= cancel_at
               ? util::Status::DeadlineExceeded("test cancel")
               : util::Status::OK();
  };
  auto result = typing::PerfectTypingViaHashRefinement(g, exec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(result.status().message(), "test cancel");
}

TEST(ParallelGfp, WorklistPollsCancellation) {
  // Chain o0 -l-> o1 -l-> o2 with the recursive program t0 = {->l^t0}:
  // the prefilter admits {o0, o1}, the initial sweep evicts o1 (o2 was
  // never a candidate), and the worklist then pops (o1, t0). ComputeGfp
  // polls on the prefilter's first object, after the prefilter, on the
  // sweep's first pair, after the sweep, and on the first pop — so a
  // hook that fails on its fifth call proves the *worklist* polls, not
  // just the phase boundaries.
  graph::GraphBuilder b;
  EXPECT_OK(b.Complex("o0"));
  EXPECT_OK(b.Complex("o1"));
  EXPECT_OK(b.Complex("o2"));
  EXPECT_OK(b.Edge("o0", "l", "o1"));
  EXPECT_OK(b.Edge("o1", "l", "o2"));
  util::Status st;
  graph::DataGraph g = std::move(b).Build(&st);
  ASSERT_OK(st);

  graph::LabelId l = g.labels().Find("l");
  ASSERT_NE(l, graph::kInvalidLabel);
  typing::TypingProgram program;
  program.AddType("t0", typing::TypeSignature::FromLinks(
                            {typing::TypedLink::Out(l, 0)}));

  // Sanity: uncancelled, the fixpoint is empty (no infinite chain).
  ASSERT_OK_AND_ASSIGN(typing::Extents m, typing::ComputeGfp(program, g));
  EXPECT_EQ(m.per_type[0].Count(), 0u);

  size_t polls = 0;
  typing::ExecOptions exec;
  exec.check_cancel = [&polls] {
    return ++polls >= 5 ? util::Status::DeadlineExceeded("worklist cancel")
                        : util::Status::OK();
  };
  auto cancelled = typing::ComputeGfp(program, g, nullptr, exec);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(polls, 5u);
}

TEST(ParallelGfp, PrefilterAndInitialCheckPoll) {
  // The prefilter (one pass over the objects) and the initial check (one
  // pass over the candidate pairs) cost types x objects on irregular
  // data, so each polls every kGfpCancelPollInterval steps, like the
  // worklist; the phase boundaries poll once more each.
  gen::DatasetSpec spec = gen::DbgSpec();
  for (auto& t : spec.types) t.count *= 5;
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::Generate(spec, 4242));
  ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult stage1,
                       typing::PerfectTypingViaHashRefinement(g));
  size_t polls = 0;
  typing::ExecOptions exec;
  exec.check_cancel = [&polls] {
    ++polls;
    return util::Status::OK();
  };
  typing::GfpStats stats;
  ASSERT_OK(typing::ComputeGfp(stage1.program, g, &stats, exec).status());
  auto blocks = [](size_t steps) {
    return (steps + typing::kGfpCancelPollInterval - 1) /
           typing::kGfpCancelPollInterval;
  };
  ASSERT_GT(g.NumObjects(), 2 * typing::kGfpCancelPollInterval);
  ASSERT_GT(stats.initial_candidates, 2 * typing::kGfpCancelPollInterval);
  // Every removal is queued once and popped once.
  EXPECT_EQ(polls, blocks(g.NumObjects()) + 1 +
                       blocks(stats.initial_candidates) + 1 +
                       blocks(stats.removed));

  // A hook that fails on its second call stops inside the prefilter.
  size_t calls = 0;
  exec.check_cancel = [&calls] {
    return ++calls < 2 ? util::Status::OK()
                       : util::Status::DeadlineExceeded("prefilter cancel");
  };
  auto cancelled = typing::ComputeGfp(stage1.program, g, nullptr, exec);
  EXPECT_EQ(cancelled.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(calls, 2u);
}

TEST(ParallelExtractor, CancellationInsideStage1) {
  // A hook that fails from the very first poll aborts inside Stage 1 —
  // before any stage boundary — and the status propagates verbatim.
  gen::DatasetSpec spec = gen::DbgSpec();
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::Generate(spec, 7));
  extract::ExtractorOptions opt;
  size_t polls = 0;
  opt.check_cancel = [&polls] {
    ++polls;
    return util::Status::DeadlineExceeded("mid-stage cancel");
  };
  auto result = extract::SchemaExtractor(opt).Run(g);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_GE(polls, 1u);
}

}  // namespace
}  // namespace schemex
