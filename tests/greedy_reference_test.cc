// Differential test: the production greedy clusterer (incremental
// best-candidate caches, nearest-neighbour picks, hot-link masks)
// against the deliberately naive reference of the same §5 algorithm in
// tests/greedy_oracle.h. Any divergence in merge sequences, snapshots or
// final programs is a bug in the optimization.

#include <gtest/gtest.h>

#include <string>

#include "cluster/distance.h"
#include "cluster/greedy.h"
#include "gen/dbg.h"
#include "gen/random_graph.h"
#include "gen/spec.h"
#include "tests/greedy_oracle.h"
#include "tests/test_util.h"
#include "typing/perfect_typing.h"

namespace schemex::cluster {
namespace {

using typing::TypedLink;
using typing::TypeId;
using typing::TypeSignature;
using typing::TypingProgram;

constexpr PsiKind kAllPsi[] = {PsiKind::kSimpleD, PsiKind::kPsi1,
                               PsiKind::kPsi2,    PsiKind::kPsi3,
                               PsiKind::kPsi4,    PsiKind::kPsi5};

void ExpectSameSteps(const std::vector<MergeStep>& fast,
                     const std::vector<MergeStep>& ref) {
  ASSERT_EQ(fast.size(), ref.size());
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(fast[i].num_types_after, ref[i].num_types_after) << "step " << i;
    EXPECT_EQ(fast[i].source, ref[i].source) << "step " << i;
    EXPECT_EQ(fast[i].dest, ref[i].dest) << "step " << i;
    EXPECT_EQ(fast[i].simple_d, ref[i].simple_d) << "step " << i;
    EXPECT_DOUBLE_EQ(fast[i].cost, ref[i].cost) << "step " << i;
  }
}

/// Runs ClusterTypes with every snapshot and expects the reference's
/// steps, every snapshot and the final program and map.
void ExpectMatchesReference(const TypingProgram& program,
                            const std::vector<uint32_t>& weights,
                            const ClusteringOptions& options,
                            const ReferenceResult& ref) {
  ClusteringOptions opt = options;
  opt.record_snapshots = true;
  auto fast = ClusterTypes(program, weights, opt);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  ExpectSameSteps(fast->steps, ref.steps);
  ASSERT_EQ(fast->snapshots.size(), ref.programs.size());
  for (size_t k = 0; k < ref.programs.size(); ++k) {
    const Snapshot& snap = fast->snapshots[k];
    EXPECT_EQ(snap.num_types, ref.programs[k].NumTypes()) << "snapshot " << k;
    EXPECT_EQ(snap.stage1_to_snapshot, ref.dense_maps[k]) << "snapshot " << k;
    EXPECT_TRUE(snap.program == ref.programs[k]) << "snapshot " << k;
  }
  EXPECT_TRUE(fast->final_program == ref.programs.back());
  EXPECT_EQ(fast->final_map, ref.dense_maps.back());
  EXPECT_TRUE(SameAsReference(*fast, ref));
}

std::string PsiEmptyName(PsiKind psi, bool empty) {
  return std::string(PsiKindName(psi)) + (empty ? "_empty" : "_noempty");
}

class GreedyDifferential
    : public ::testing::TestWithParam<std::tuple<uint64_t, PsiKind, bool>> {};

TEST_P(GreedyDifferential, MatchesNaiveReference) {
  auto [seed, psi, empty] = GetParam();
  gen::RandomGraphOptions gopt;
  gopt.num_complex = 50;
  gopt.num_atomic = 30;
  gopt.num_edges = 110;
  gopt.num_labels = 4;
  gopt.seed = seed;
  graph::DataGraph g = gen::RandomGraph(gopt);
  auto stage1 = typing::PerfectTypingViaHashRefinement(g);
  ASSERT_TRUE(stage1.ok());
  if (stage1->program.NumTypes() < 5) GTEST_SKIP();

  ClusteringOptions opt;
  opt.psi = psi;
  opt.enable_empty_type = empty;
  opt.target_num_types = 3;

  ReferenceResult ref = ReferenceGreedy(stage1->program, stage1->weight, opt);
  auto fast = ClusterTypes(stage1->program, stage1->weight, opt);
  ASSERT_TRUE(fast.ok());

  ExpectSameSteps(fast->steps, ref.steps);
  // Cluster partitions agree: same stage-1 types grouped together.
  for (size_t i = 0; i < ref.cluster_of.size(); ++i) {
    for (size_t j = i + 1; j < ref.cluster_of.size(); ++j) {
      bool ref_same = ref.cluster_of[i] == ref.cluster_of[j];
      bool fast_same = fast->final_map[i] == fast->final_map[j];
      EXPECT_EQ(ref_same, fast_same) << i << " vs " << j;
    }
    bool ref_empty = ref.cluster_of[i] == kEmptyType;
    bool fast_empty = fast->final_map[i] == kEmptyType;
    EXPECT_EQ(ref_empty, fast_empty) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GreedyDifferential,
    ::testing::Combine(::testing::Values(7u, 17u, 27u),
                       ::testing::Values(PsiKind::kSimpleD, PsiKind::kPsi1,
                                         PsiKind::kPsi2, PsiKind::kPsi3,
                                         PsiKind::kPsi4, PsiKind::kPsi5),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<uint64_t, PsiKind, bool>>&
           info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_" +
             std::string(PsiKindName(std::get<1>(info.param))) +
             (std::get<2>(info.param) ? "_empty" : "_noempty");
    });

/// The DBG database (~90 Stage-1 types) clustered all the way to k = 1:
/// long retarget cascades, where retargeted links fold into links the
/// destination's referrers already hold, and (with the empty type)
/// references dropped by empty-type moves. Every step, every snapshot
/// and the final program must match the reference.
class GreedyDbgDifferential
    : public ::testing::TestWithParam<std::tuple<PsiKind, bool>> {};

TEST_P(GreedyDbgDifferential, MatchesNaiveReferenceAtEveryK) {
  auto [psi, empty] = GetParam();
  auto g = gen::MakeDbgDataset();
  ASSERT_TRUE(g.ok());
  auto stage1 = typing::PerfectTypingViaHashRefinement(*g);
  ASSERT_TRUE(stage1.ok());
  ASSERT_GE(stage1->program.NumTypes(), 80u);

  ClusteringOptions opt;
  opt.psi = psi;
  opt.enable_empty_type = empty;
  opt.target_num_types = 1;
  opt.record_snapshots = true;

  ReferenceResult ref = ReferenceGreedy(stage1->program, stage1->weight, opt);
  EXPECT_GT(ref.dedup_remaps, 0u);
  // ψ5 = (w2/w1)^(1/d) prices the weight-0 empty type above every real
  // merge on this data, so it never moves a type there.
  if (empty && psi != PsiKind::kPsi5) {
    EXPECT_GT(ref.empty_drops, 0u);
  }
  ExpectMatchesReference(stage1->program, stage1->weight, opt, ref);
}

INSTANTIATE_TEST_SUITE_P(
    AllPsi, GreedyDbgDifferential,
    ::testing::Combine(::testing::ValuesIn(kAllPsi), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<PsiKind, bool>>& info) {
      return PsiEmptyName(std::get<0>(info.param), std::get<1>(info.param));
    });

/// The Stage-1 typing of DBG with every type count times `scale`.
typing::PerfectTypingResult ScaledDbgStage1(size_t scale) {
  gen::DatasetSpec spec = gen::DbgSpec();
  for (gen::TypeSpec& t : spec.types) t.count *= scale;
  auto g = gen::Generate(spec, 4242);
  EXPECT_TRUE(g.ok());
  auto stage1 = typing::PerfectTypingViaHashRefinement(*g);
  EXPECT_TRUE(stage1.ok());
  return *std::move(stage1);
}

/// DBG ×2 (~170 types) down to k = 1: more types than hot-link mask
/// bits carry links, so rows mix masks and postings.
class GreedyDbgX2Differential
    : public ::testing::TestWithParam<std::tuple<PsiKind, bool>> {};

TEST_P(GreedyDbgX2Differential, MatchesNaiveReferenceAtEveryK) {
  auto [psi, empty] = GetParam();
  typing::PerfectTypingResult stage1 = ScaledDbgStage1(2);
  ASSERT_GE(stage1.program.NumTypes(), 150u);
  ClusteringOptions opt;
  opt.psi = psi;
  opt.enable_empty_type = empty;
  opt.target_num_types = 1;
  ReferenceResult ref = ReferenceGreedy(stage1.program, stage1.weight, opt);
  EXPECT_GT(ref.dedup_remaps, 0u);
  ExpectMatchesReference(stage1.program, stage1.weight, opt, ref);
}

/// ClusteringAtSnapshot is what ClusterTypes returns for every target:
/// the ladder to k = 1 read at each k equals a run to that k in steps,
/// final program, map, weights and total distance.
TEST_P(GreedyDbgX2Differential, RungAtEveryKEqualsARunToK) {
  auto [psi, empty] = GetParam();
  typing::PerfectTypingResult stage1 = ScaledDbgStage1(2);
  ClusteringOptions opt;
  opt.psi = psi;
  opt.enable_empty_type = empty;
  opt.target_num_types = 1;
  opt.record_snapshots = true;
  auto ladder = ClusterTypes(stage1.program, stage1.weight, opt);
  ASSERT_TRUE(ladder.ok()) << ladder.status().ToString();
  ASSERT_EQ(ladder->snapshots.size(), stage1.program.NumTypes());
  for (const Snapshot& snap : ladder->snapshots) {
    SCOPED_TRACE("k " + std::to_string(snap.num_types));
    ClusteringResult rung =
        ClusteringAtSnapshot(*ladder, snap, stage1.weight);
    ClusteringOptions to_k = opt;
    to_k.record_snapshots = false;
    to_k.target_num_types = snap.num_types;
    auto run = ClusterTypes(stage1.program, stage1.weight, to_k);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ExpectSameSteps(rung.steps, run->steps);
    EXPECT_TRUE(rung.final_program == run->final_program);
    EXPECT_EQ(rung.final_map, run->final_map);
    EXPECT_EQ(rung.final_weights, run->final_weights);
    EXPECT_EQ(rung.total_distance, run->total_distance);
    EXPECT_TRUE(rung.snapshots.empty());
    EXPECT_EQ(rung.counters.rows_computed, ladder->counters.rows_computed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPsi, GreedyDbgX2Differential,
    ::testing::Combine(::testing::ValuesIn(kAllPsi), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<PsiKind, bool>>& info) {
      return PsiEmptyName(std::get<0>(info.param), std::get<1>(info.param));
    });

/// DBG ×5 (~430 types) in the server's configuration: ψ2 with the empty
/// type, down to k = 1.
TEST(GreedyDbgX5Differential, Psi2WithEmptyTypeMatchesAtEveryK) {
  typing::PerfectTypingResult stage1 = ScaledDbgStage1(5);
  ASSERT_GE(stage1.program.NumTypes(), 400u);
  ClusteringOptions opt;
  opt.target_num_types = 1;
  ReferenceResult ref = ReferenceGreedy(stage1.program, stage1.weight, opt);
  EXPECT_GT(ref.empty_drops, 0u);
  ExpectMatchesReference(stage1.program, stage1.weight, opt, ref);
}

/// A deterministic coin: true for about `percent` % of (a, b) pairs.
bool Coin(size_t a, size_t b, size_t percent) {
  uint64_t h = (a + 1) * 0x9E3779B97F4A7C15ull ^ (b + 1) * 0xC2B2AE3D27D4EB4Full;
  h ^= h >> 31;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 29;
  return h % 100 < percent;
}

/// 70 types over 90 atomic links that each type carries with
/// probability 0.85, plus links into other types: more than 64 links
/// are carried by most types, so the hot-link masks fill up and the
/// rest stay on posting lists; ties in posting length are common.
TEST(GreedyHandBuilt, SaturatedMaskMatchesReferenceForEveryPsi) {
  constexpr size_t kTypes = 70;
  constexpr size_t kAtomicLinks = 90;
  TypingProgram program;
  std::vector<uint32_t> weights;
  size_t widely_carried = 0;
  std::vector<size_t> carriers(kAtomicLinks, 0);
  for (size_t t = 0; t < kTypes; ++t) {
    std::vector<TypedLink> body;
    for (size_t l = 0; l < kAtomicLinks; ++l) {
      if (!Coin(t, l, 85)) continue;
      body.push_back(TypedLink::OutAtomic(static_cast<graph::LabelId>(l)));
      ++carriers[l];
    }
    const auto ref_label = static_cast<graph::LabelId>(kAtomicLinks);
    body.push_back(TypedLink::Out(ref_label, static_cast<TypeId>(t % 5)));
    if (Coin(t, kAtomicLinks, 30)) {
      body.push_back(
          TypedLink::In(ref_label, static_cast<TypeId>((t * 7) % kTypes)));
    }
    program.AddType("t" + std::to_string(t),
                    TypeSignature::FromLinks(std::move(body)));
    weights.push_back(static_cast<uint32_t>(1 + (t * 37) % 11));
  }
  for (size_t c : carriers) widely_carried += c > kTypes / 2 ? 1 : 0;
  ASSERT_GT(widely_carried, 64u);
  for (PsiKind psi : kAllPsi) {
    SCOPED_TRACE(std::string(PsiKindName(psi)));
    ClusteringOptions opt;
    opt.psi = psi;
    opt.target_num_types = 1;
    ReferenceResult ref = ReferenceGreedy(program, weights, opt);
    ExpectMatchesReference(program, weights, opt, ref);
  }
}

/// Type 0 is the target of the two links most types carry, so both are
/// masked; it is the cheapest source, so the first step merges it into
/// type 1. Its referrers then carry Out(100, type 1), an id some types
/// already hold (membership dedups into it), and Out(101, type 1), an id
/// interned by the merge (unmasked, on postings only).
TEST(GreedyHandBuilt, MaskedLinkFollowsItsTargetIntoTheDestination) {
  constexpr size_t kTypes = 40;
  constexpr graph::LabelId kRef = 100, kAlt = 101;
  TypingProgram program;
  std::vector<uint32_t> weights;
  program.AddType("t0", TypeSignature::FromLinks({TypedLink::OutAtomic(50)}));
  weights.push_back(1);
  program.AddType("t1", TypeSignature::FromLinks(
                            {TypedLink::OutAtomic(50), TypedLink::OutAtomic(51)}));
  weights.push_back(5);
  for (size_t t = 2; t < kTypes; ++t) {
    std::vector<TypedLink> body;
    for (graph::LabelId bit = 0; bit < 6; ++bit) {
      if ((t >> bit) & 1) body.push_back(TypedLink::OutAtomic(bit));
    }
    if (t % 8 != 0) body.push_back(TypedLink::Out(kRef, 0));
    if (t % 6 != 0) body.push_back(TypedLink::Out(kAlt, 0));
    if (t % 5 == 0) body.push_back(TypedLink::Out(kRef, 1));
    program.AddType("t" + std::to_string(t),
                    TypeSignature::FromLinks(std::move(body)));
    weights.push_back(static_cast<uint32_t>(2 + t % 3));
  }
  for (PsiKind psi : kAllPsi) {
    for (bool empty : {true, false}) {
      SCOPED_TRACE(PsiEmptyName(psi, empty));
      ClusteringOptions opt;
      opt.psi = psi;
      opt.enable_empty_type = empty;
      opt.target_num_types = 1;
      ReferenceResult ref = ReferenceGreedy(program, weights, opt);
      if (psi == PsiKind::kSimpleD || psi == PsiKind::kPsi2 ||
          psi == PsiKind::kPsi4) {
        ASSERT_FALSE(ref.steps.empty());
        EXPECT_EQ(ref.steps[0].source, 0);
        EXPECT_EQ(ref.steps[0].dest, 1);
        EXPECT_GT(ref.dedup_remaps, 0u);
      }
      ExpectMatchesReference(program, weights, opt, ref);
    }
  }
}

/// The counters are plain increments: a second run repeats them, and
/// each row belongs to the initial pass or to exactly one rescan.
TEST(GreedyCounters, OneRowPerRescanAndRepeatable) {
  typing::PerfectTypingResult stage1 = ScaledDbgStage1(2);
  const size_t n = stage1.program.NumTypes();
  for (PsiKind psi : kAllPsi) {
    SCOPED_TRACE(std::string(PsiKindName(psi)));
    ClusteringOptions opt;
    opt.psi = psi;
    opt.target_num_types = 6;
    auto a = ClusterTypes(stage1.program, stage1.weight, opt);
    auto b = ClusterTypes(stage1.program, stage1.weight, opt);
    ASSERT_TRUE(a.ok() && b.ok());
    const ClusteringCounters& c = a->counters;
    EXPECT_EQ(c.rows_computed, n + c.Rescans());
    EXPECT_GT(c.rescans_own_body_changed, 0u);
    EXPECT_GT(c.postings_walked, 0u);
    const ClusteringCounters& d = b->counters;
    EXPECT_EQ(c.rows_computed, d.rows_computed);
    EXPECT_EQ(c.postings_walked, d.postings_walked);
    EXPECT_EQ(c.candidates_priced, d.candidates_priced);
    EXPECT_EQ(c.rescans_own_body_changed, d.rescans_own_body_changed);
    EXPECT_EQ(c.rescans_dest_died, d.rescans_dest_died);
    EXPECT_EQ(c.rescans_dest_changed, d.rescans_dest_changed);
    EXPECT_EQ(c.rescans_is_dest, d.rescans_is_dest);
    EXPECT_EQ(c.rescans_dest_weight_priced, d.rescans_dest_weight_priced);
    const bool source_priced = psi == PsiKind::kSimpleD ||
                               psi == PsiKind::kPsi2 || psi == PsiKind::kPsi4;
    if (source_priced) {
      // The weight of a destination is never priced, a rescan prices its
      // nearest type and the empty move only, and few folded moves pass
      // the distance prefilter.
      EXPECT_EQ(c.rescans_dest_weight_priced, 0u);
      EXPECT_LT(c.candidates_priced, 4 * c.rows_computed);
    } else {
      EXPECT_GT(c.rescans_dest_weight_priced, 0u);
      EXPECT_GT(c.candidates_priced, c.rows_computed * (n / 2));
    }
  }
  // No merge to do: no row at all.
  ClusteringOptions none;
  none.target_num_types = n;
  auto r = ClusterTypes(stage1.program, stage1.weight, none);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->counters.rows_computed, 0u);
  EXPECT_TRUE(r->steps.empty());
}

/// The initial pass over every type polls the hook every
/// kClusterCancelPollRows rows, before the first merge step.
TEST(GreedyCancel, InitialPassPollsTheHook) {
  typing::PerfectTypingResult stage1 = ScaledDbgStage1(2);
  const size_t n = stage1.program.NumTypes();
  ASSERT_GE(n, 2 * kClusterCancelPollRows);
  // One merge step: the step loop polls once, the initial pass more.
  ClusteringOptions opt;
  opt.target_num_types = n - 1;
  size_t polls = 0;
  typing::ExecOptions counting;
  counting.check_cancel = [&polls] {
    ++polls;
    return util::Status::OK();
  };
  ASSERT_TRUE(ClusterTypes(stage1.program, stage1.weight, opt, counting).ok());
  EXPECT_EQ(polls, (n + kClusterCancelPollRows - 1) / kClusterCancelPollRows +
                       1);
  // A hook that fails on its second call stops the initial pass.
  size_t calls = 0;
  typing::ExecOptions failing;
  failing.check_cancel = [&calls] {
    return ++calls < 2 ? util::Status::OK()
                       : util::Status::DeadlineExceeded("budget spent");
  };
  auto r = ClusterTypes(stage1.program, stage1.weight, opt, failing);
  EXPECT_EQ(r.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(calls, 2u);
}

}  // namespace
}  // namespace schemex::cluster
