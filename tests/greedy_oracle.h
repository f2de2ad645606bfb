#ifndef SCHEMEX_TESTS_GREEDY_ORACLE_H_
#define SCHEMEX_TESTS_GREEDY_ORACLE_H_

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "cluster/distance.h"
#include "cluster/greedy.h"
#include "typing/typing_program.h"

namespace schemex::cluster {

/// What the naive Stage-2 reference produced.
struct ReferenceResult {
  std::vector<MergeStep> steps;
  std::vector<typing::TypeId> cluster_of;  // stage-1 type -> cluster index
  /// Per state (the start, then after every step): the program over the
  /// live clusters with dense ids, and the stage-1 type -> dense id map —
  /// what a Snapshot holds.
  std::vector<typing::TypingProgram> programs;
  std::vector<std::vector<typing::TypeId>> dense_maps;
  /// Coverage of the rewrite paths: bodies that shrank when a retargeted
  /// link coincided with one they already held, and bodies that lost
  /// links to an empty-type move.
  size_t dedup_remaps = 0;
  size_t empty_drops = 0;
};

/// Records the live clusters as a dense program plus the stage-1 map.
inline void RecordReferenceState(
    const typing::TypingProgram& stage1,
    const std::vector<typing::TypeSignature>& sig,
    const std::vector<bool>& alive,
    const std::vector<typing::TypeId>& cluster_of, ReferenceResult* result) {
  std::vector<typing::TypeId> dense(sig.size(), kEmptyType);
  typing::TypeId next = 0;
  for (size_t i = 0; i < sig.size(); ++i) {
    if (alive[i]) dense[i] = next++;
  }
  typing::TypingProgram program;
  for (size_t i = 0; i < sig.size(); ++i) {
    if (!alive[i]) continue;
    typing::TypeSignature body = sig[i];
    body.RemapTargets(dense);
    program.AddType(stage1.type(static_cast<typing::TypeId>(i)).name,
                    std::move(body));
  }
  std::vector<typing::TypeId> map(cluster_of.size());
  for (size_t i = 0; i < cluster_of.size(); ++i) {
    map[i] = cluster_of[i] == kEmptyType
                 ? kEmptyType
                 : dense[static_cast<size_t>(cluster_of[i])];
  }
  result->programs.push_back(std::move(program));
  result->dense_maps.push_back(std::move(map));
}

/// Test oracle for Stage 2 (§5): the greedy transcribed naively. Every
/// step rescans every (source, destination) pair on sorted signatures
/// and keeps the first strictly cheapest move, the empty-type move last
/// per source; no cache, no posting list, no mask. ClusterTypes must
/// reproduce its steps and every state bit for bit.
inline ReferenceResult ReferenceGreedy(const typing::TypingProgram& stage1,
                                       const std::vector<uint32_t>& weights,
                                       const ClusteringOptions& options) {
  using typing::TypeId;
  const size_t n = stage1.NumTypes();
  std::vector<typing::TypeSignature> sig(n);
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
  RecordReferenceState(stage1, sig, alive, cluster_of, &result);
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
        typing::TypeSignature next = sig[i];
        for (const typing::TypedLink& l : sig[i].links()) {
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
    RecordReferenceState(stage1, sig, alive, cluster_of, &result);
  }
  result.cluster_of = cluster_of;
  return result;
}

/// True iff `fast` (run with record_snapshots) took the reference's
/// steps at exactly its costs, recorded every one of its states, and
/// ended in its final program and map.
inline bool SameAsReference(const ClusteringResult& fast,
                            const ReferenceResult& ref) {
  if (fast.steps.size() != ref.steps.size() ||
      fast.snapshots.size() != ref.programs.size()) {
    return false;
  }
  for (size_t i = 0; i < ref.steps.size(); ++i) {
    const MergeStep& a = fast.steps[i];
    const MergeStep& b = ref.steps[i];
    if (a.num_types_after != b.num_types_after || a.source != b.source ||
        a.dest != b.dest || a.simple_d != b.simple_d || a.cost != b.cost) {
      return false;
    }
  }
  for (size_t k = 0; k < ref.programs.size(); ++k) {
    if (!(fast.snapshots[k].program == ref.programs[k]) ||
        fast.snapshots[k].stage1_to_snapshot != ref.dense_maps[k]) {
      return false;
    }
  }
  return fast.final_program == ref.programs.back() &&
         fast.final_map == ref.dense_maps.back();
}

}  // namespace schemex::cluster

#endif  // SCHEMEX_TESTS_GREEDY_ORACLE_H_
