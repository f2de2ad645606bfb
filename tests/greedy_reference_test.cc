// Differential test: the production greedy clusterer (incremental
// best-candidate caches) against a deliberately naive reference
// implementation of the same §5 algorithm, written independently below.
// Any divergence in merge sequences or final programs is a bug in the
// optimization.

#include <gtest/gtest.h>

#include <limits>

#include "cluster/distance.h"
#include "cluster/greedy.h"
#include "gen/dbg.h"
#include "gen/random_graph.h"
#include "tests/test_util.h"
#include "typing/perfect_typing.h"

namespace schemex::cluster {
namespace {

using typing::TypedLink;
using typing::TypeId;
using typing::TypeSignature;
using typing::TypingProgram;

/// Naive reference: full O(n^2) re-scan per step, transcribing the
/// paper's greedy directly.
struct ReferenceResult {
  std::vector<MergeStep> steps;
  std::vector<TypeId> cluster_of;  // stage-1 type -> cluster index/-2
  /// Per state (the start, then after every step): the program over the
  /// live clusters with dense ids, and the stage-1 type -> dense id map —
  /// what a Snapshot holds.
  std::vector<TypingProgram> programs;
  std::vector<std::vector<TypeId>> dense_maps;
  /// Coverage of the rewrite paths: bodies that shrank when a retargeted
  /// link coincided with one they already held, and bodies that lost
  /// links to an empty-type move.
  size_t dedup_remaps = 0;
  size_t empty_drops = 0;
};

/// Records the live clusters as a dense program plus the stage-1 map.
void RecordState(const TypingProgram& stage1,
                 const std::vector<TypeSignature>& sig,
                 const std::vector<bool>& alive,
                 const std::vector<TypeId>& cluster_of,
                 ReferenceResult* result) {
  std::vector<TypeId> dense(sig.size(), kEmptyType);
  TypeId next = 0;
  for (size_t i = 0; i < sig.size(); ++i) {
    if (alive[i]) dense[i] = next++;
  }
  TypingProgram program;
  for (size_t i = 0; i < sig.size(); ++i) {
    if (!alive[i]) continue;
    TypeSignature body = sig[i];
    body.RemapTargets(dense);
    program.AddType(stage1.type(static_cast<TypeId>(i)).name, std::move(body));
  }
  std::vector<TypeId> map(cluster_of.size());
  for (size_t i = 0; i < cluster_of.size(); ++i) {
    map[i] = cluster_of[i] == kEmptyType
                 ? kEmptyType
                 : dense[static_cast<size_t>(cluster_of[i])];
  }
  result->programs.push_back(std::move(program));
  result->dense_maps.push_back(std::move(map));
}

ReferenceResult ReferenceGreedy(const TypingProgram& stage1,
                                const std::vector<uint32_t>& weights,
                                const ClusteringOptions& options) {
  const size_t n = stage1.NumTypes();
  std::vector<TypeSignature> sig(n);
  std::vector<double> weight(n);
  std::vector<bool> alive(n, true);
  std::vector<TypeId> cluster_of(n);
  for (size_t i = 0; i < n; ++i) {
    sig[i] = stage1.type(static_cast<TypeId>(i)).signature;
    weight[i] = weights[i];
    cluster_of[i] = static_cast<TypeId>(i);
  }
  const size_t big_l = stage1.NumDistinctTypedLinks();
  double empty_weight = 0.0;
  ReferenceResult result;
  RecordState(stage1, sig, alive, cluster_of, &result);
  size_t live = n;
  while (live > options.target_num_types) {
    double best_cost = std::numeric_limits<double>::infinity();
    TypeId bs = -1, bt = -1;
    size_t bd = 0;
    for (size_t s = 0; s < n; ++s) {
      if (!alive[s]) continue;
      for (size_t t = 0; t < n; ++t) {
        if (t == s || !alive[t]) continue;
        size_t d = SimpleDistance(sig[s], sig[t]);
        double cost =
            WeightedDistance(options.psi, weight[t], weight[s], d, big_l);
        if (cost < best_cost) {
          best_cost = cost;
          bs = static_cast<TypeId>(s);
          bt = static_cast<TypeId>(t);
          bd = d;
        }
      }
      if (options.enable_empty_type) {
        double cost = WeightedDistance(options.psi,
                                       std::max(empty_weight, 1.0),
                                       weight[s], sig[s].size(), big_l);
        if (cost < best_cost) {
          best_cost = cost;
          bs = static_cast<TypeId>(s);
          bt = kEmptyType;
          bd = sig[s].size();
        }
      }
    }
    if (bs < 0) break;
    alive[static_cast<size_t>(bs)] = false;
    for (TypeId& c : cluster_of) {
      if (c == bs) c = bt;
    }
    if (bt == kEmptyType) {
      empty_weight += weight[static_cast<size_t>(bs)];
      for (size_t i = 0; i < n; ++i) {
        if (!alive[i]) continue;
        TypeSignature next = sig[i];
        for (const TypedLink& l : sig[i].links()) {
          if (l.target == bs) next.Erase(l);
        }
        if (next.size() < sig[i].size()) ++result.empty_drops;
        sig[i] = std::move(next);
      }
    } else {
      weight[static_cast<size_t>(bt)] += weight[static_cast<size_t>(bs)];
      for (size_t i = 0; i < n; ++i) {
        if (!alive[i]) continue;
        size_t before = sig[i].size();
        sig[i].RemapTarget(bs, bt);
        if (sig[i].size() < before) ++result.dedup_remaps;
      }
    }
    --live;
    result.steps.push_back(MergeStep{live, bs, bt, bd, best_cost});
    RecordState(stage1, sig, alive, cluster_of, &result);
  }
  result.cluster_of = cluster_of;
  return result;
}

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
  auto fast = ClusterTypes(stage1->program, stage1->weight, opt);
  ASSERT_TRUE(fast.ok());

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
}

INSTANTIATE_TEST_SUITE_P(
    AllPsi, GreedyDbgDifferential,
    ::testing::Combine(::testing::Values(PsiKind::kSimpleD, PsiKind::kPsi1,
                                         PsiKind::kPsi2, PsiKind::kPsi3,
                                         PsiKind::kPsi4, PsiKind::kPsi5),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<PsiKind, bool>>& info) {
      return std::string(PsiKindName(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_empty" : "_noempty");
    });

}  // namespace
}  // namespace schemex::cluster
