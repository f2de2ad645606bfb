// IncrementalRefine identity suite: re-refining a previous partition
// over a mutated graph must be *bit-identical* — same program, block
// names, homes, weights — to a cold refinement of the mutated graph, at
// every thread count, whether the incremental path propagates or falls
// back, and over both the overlay and its compacted form.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "gen/dbg.h"
#include "graph/data_graph.h"
#include "graph/delta_overlay.h"
#include "graph/frozen_graph.h"
#include "graph/graph_view.h"
#include "tests/refinement_oracle.h"
#include "tests/test_util.h"
#include "typing/incremental_refine.h"
#include "typing/perfect_typing.h"

namespace schemex::typing {
namespace {

using graph::DataGraph;
using graph::DeltaOverlay;
using graph::GraphView;
using graph::ObjectId;

void ExpectSameTyping(const PerfectTypingResult& want,
                      const PerfectTypingResult& got, const char* what) {
  EXPECT_EQ(want.program, got.program) << what << ": program drifted";
  EXPECT_EQ(want.home, got.home) << what << ": homes drifted";
  EXPECT_EQ(want.weight, got.weight) << what << ": weights drifted";
}

/// Cold reference over `g` (the engine the incremental path is pinned
/// against, itself pinned to the refinement oracle elsewhere).
PerfectTypingResult Cold(GraphView g, size_t threads) {
  ExecOptions exec;
  exec.num_threads = threads;
  auto r = PerfectTypingViaHashRefinement(g, exec);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return *std::move(r);
}

/// Applies `mutate` to a fresh overlay over the seed-`seed` DBG graph
/// and checks incremental == cold on overlay and compacted forms across
/// thread counts.
template <typename Mutator>
void CheckDelta(uint64_t seed, Mutator mutate,
                const IncrementalRefineOptions& base_opts = {},
                bool expect_fallback = false) {
  ASSERT_OK_AND_ASSIGN(DataGraph base, gen::MakeDbgDataset(seed));
  auto frozen = Freeze(base);
  PerfectTypingResult previous = Cold(GraphView(*frozen), 1);

  DeltaOverlay ov(frozen);
  mutate(ov);
  ASSERT_OK(ov.Validate());
  std::vector<ObjectId> touched = ov.TouchedComplexObjects();

  PerfectTypingResult cold = Cold(GraphView(ov), 1);
  auto compacted = ov.Compact();

  for (size_t threads : {1, 2, 4}) {
    IncrementalRefineOptions opts = base_opts;
    opts.exec.num_threads = threads;
    for (bool use_compacted : {false, true}) {
      GraphView g = use_compacted ? GraphView(*compacted) : GraphView(ov);
      IncrementalRefineStats stats;
      auto inc = IncrementalRefine(g, previous, touched, opts, &stats);
      ASSERT_TRUE(inc.ok()) << inc.status().ToString();
      std::string what = "seed " + std::to_string(seed) + ", threads " +
                         std::to_string(threads) +
                         (use_compacted ? ", compacted" : ", overlay");
      ExpectSameTyping(cold, *inc, what.c_str());
      if (expect_fallback) {
        EXPECT_TRUE(stats.fell_back) << what;
        EXPECT_FALSE(stats.fallback_reason.empty()) << what;
      }
    }
  }
}

/// Random mixed delta: new objects, new edges (existing + fresh labels),
/// deletions. Exercises splits, merges, and nursery typing together.
void RandomDelta(DeltaOverlay& ov, uint64_t rng_seed, int ops) {
  std::mt19937 rng(rng_seed);
  auto rnd = [&](size_t n) { return static_cast<uint32_t>(rng() % n); };
  std::vector<ObjectId> complexes;
  for (ObjectId o = 0; o < ov.NumObjects(); ++o) {
    if (ov.IsComplex(o)) complexes.push_back(o);
  }
  for (int i = 0; i < ops; ++i) {
    int kind = static_cast<int>(rng() % 5);
    if (kind == 0) {
      ObjectId c = ov.AddComplex();
      // Give the arrival a picture so it lands in (or founds) a block.
      (void)ov.AddEdge(complexes[rnd(complexes.size())], c, "ref");
      (void)ov.AddEdge(c, complexes[rnd(complexes.size())], "ref");
      complexes.push_back(c);
    } else if (kind == 1) {
      ObjectId a = ov.AddAtomic("v" + std::to_string(i));
      (void)ov.AddEdge(complexes[rnd(complexes.size())], a, "attr");
    } else if (kind == 2) {
      (void)ov.AddEdge(complexes[rnd(complexes.size())],
                       rnd(ov.NumObjects()),
                       "l" + std::to_string(rng() % 4));
    } else {
      ObjectId from = complexes[rnd(complexes.size())];
      auto out = ov.OutEdges(from);
      if (out.empty()) continue;
      auto e = out[rnd(out.size())];
      (void)ov.RemoveEdge(from, e.other, e.label);
    }
  }
}

TEST(IncrementalRefineTest, EmptyDeltaIsIdentity) {
  CheckDelta(3, [](DeltaOverlay&) {});
}

TEST(IncrementalRefineTest, RandomDeltasAcrossSeeds) {
  for (uint64_t seed : {3u, 7u, 11u}) {
    CheckDelta(seed, [&](DeltaOverlay& ov) {
      RandomDelta(ov, seed * 131 + 17, 30);
    });
  }
}

TEST(IncrementalRefineTest, DeletionMergesBlocks) {
  // Deleting the distinguishing edges of objects in a split-off block
  // must merge it back — the quotient-coarsening pass, not plain
  // refinement, recovers this.
  CheckDelta(5, [](DeltaOverlay& ov) {
    // Find a complex object with >= 2 out edges and strip one label's
    // edges so its picture collapses toward a sibling's.
    for (ObjectId o = 0; o < ov.NumObjects(); ++o) {
      if (!ov.IsComplex(o)) continue;
      auto out = ov.OutEdges(o);
      if (out.size() < 2) continue;
      (void)ov.RemoveEdge(o, out.back().other, out.back().label);
      break;
    }
  });
}

TEST(IncrementalRefineTest, MutuallyReferentialFreshObjects) {
  // A cycle of fresh objects referencing each other: every one starts
  // in the nursery and their signatures chase each other's block ids —
  // the round cap plus coarsening must still land on the cold result.
  CheckDelta(3, [](DeltaOverlay& ov) {
    ObjectId a = ov.AddComplex("a");
    ObjectId b = ov.AddComplex("b");
    ObjectId c = ov.AddComplex("c");
    ASSERT_OK(ov.AddEdge(a, b, "next"));
    ASSERT_OK(ov.AddEdge(b, c, "next"));
    ASSERT_OK(ov.AddEdge(c, a, "next"));
    ASSERT_OK(ov.AddEdge(0, a, "entry"));
  });
}

TEST(IncrementalRefineTest, FallbackPinnedByZeroDirtyBudget) {
  // max_dirty_fraction = 0 forces the fallback on any non-empty delta;
  // the contract (identical result) must hold regardless.
  IncrementalRefineOptions opts;
  opts.max_dirty_fraction = 0.0;
  CheckDelta(
      7,
      [](DeltaOverlay& ov) { RandomDelta(ov, 99, 20); },
      opts, /*expect_fallback=*/true);
}

TEST(IncrementalRefineTest, ForcedHashCollisions) {
  // All-colliding hashes route every signature through the exact
  // equality path; results must not change.
  IncrementalRefineOptions opts;
  opts.exec.debug_force_hash_collisions = true;
  CheckDelta(11, [](DeltaOverlay& ov) { RandomDelta(ov, 5, 25); }, opts);
}

TEST(IncrementalRefineTest, SequentialReferenceAgreesOnMutatedGraph) {
  // Cross-engine anchor: the std::map refinement oracle over the
  // mutated graph matches the incremental result exactly (hash
  // refinement is pinned to it elsewhere; this closes the triangle).
  ASSERT_OK_AND_ASSIGN(DataGraph base, gen::MakeDbgDataset(3));
  auto frozen = Freeze(base);
  PerfectTypingResult previous = Cold(GraphView(*frozen), 1);
  DeltaOverlay ov(frozen);
  RandomDelta(ov, 42, 20);
  auto inc =
      IncrementalRefine(GraphView(ov), previous, ov.TouchedComplexObjects());
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  auto seq = MapRefinementOracle(GraphView(ov));
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  ExpectSameTyping(*seq, *inc, "refinement oracle");
}

TEST(IncrementalRefineTest, RejectsInvalidInputs) {
  ASSERT_OK_AND_ASSIGN(DataGraph base, gen::MakeDbgDataset(3));
  auto frozen = Freeze(base);
  PerfectTypingResult previous = Cold(GraphView(*frozen), 1);

  // Touched id out of range.
  std::vector<ObjectId> bogus{static_cast<ObjectId>(frozen->NumObjects())};
  auto r = IncrementalRefine(GraphView(*frozen), previous, bogus);
  EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);

  // Previous partition larger than the graph.
  PerfectTypingResult oversized = previous;
  oversized.home.resize(frozen->NumObjects() + 1, kInvalidType);
  auto r2 = IncrementalRefine(GraphView(*frozen), oversized, {});
  EXPECT_EQ(r2.status().code(), util::StatusCode::kInvalidArgument);

  // Empty previous partition on a non-empty graph: safe fallback.
  PerfectTypingResult empty;
  IncrementalRefineStats stats;
  auto r3 = IncrementalRefine(GraphView(*frozen), empty, {}, {}, &stats);
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();
  EXPECT_TRUE(stats.fell_back);
  PerfectTypingResult cold = Cold(GraphView(*frozen), 1);
  ExpectSameTyping(cold, *r3, "empty-previous fallback");
}

}  // namespace
}  // namespace schemex::typing
