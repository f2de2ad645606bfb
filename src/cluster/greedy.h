#ifndef SCHEMEX_CLUSTER_GREEDY_H_
#define SCHEMEX_CLUSTER_GREEDY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/distance.h"
#include "typing/exec_options.h"
#include "typing/typing_program.h"
#include "util/statusor.h"

namespace schemex::cluster {

/// Marker for "moved to the empty type" in cluster maps: the paper's
/// implicit extra type that lets the algorithm *not* classify some objects
/// (Example 5.3).
inline constexpr typing::TypeId kEmptyType = typing::kInvalidType;

struct ClusteringOptions {
  PsiKind psi = PsiKind::kPsi2;

  /// Stop when this many (non-empty) types remain; must be >= 1.
  size_t target_num_types = 1;

  /// Allow "move type to the empty set" steps (priced as a merge into a
  /// virtual empty type at distance |signature|).
  bool enable_empty_type = true;

  /// Record a snapshot (program + stage1-type map) after every merge so a
  /// sensitivity sweep can evaluate each intermediate k without re-running
  /// the clustering.
  bool record_snapshots = false;

  /// With record_snapshots, copy only the snapshots with at most this
  /// many types (0 = every k). Recording only reads the clusterer's
  /// state, so the cap changes neither the merge ladder nor the final
  /// program, and each recorded snapshot equals the uncapped run's
  /// snapshot at the same k; it saves the program copies above the cap.
  size_t max_snapshot_types = 0;
};

/// One greedy step: source cluster coalesced into destination (or into the
/// empty type).
struct MergeStep {
  size_t num_types_after;  ///< live non-empty clusters after this step
  typing::TypeId source;   ///< cluster index that disappeared
  typing::TypeId dest;     ///< surviving cluster index, or kEmptyType
  size_t simple_d;         ///< d(source, dest) at merge time
  double cost;             ///< psi value paid
};

/// The typing program at one intermediate k, with the map from Stage-1
/// type ids to its (dense) type ids; kEmptyType marks unclassified types.
struct Snapshot {
  size_t num_types;
  typing::TypingProgram program;
  std::vector<typing::TypeId> stage1_to_snapshot;
  double total_distance;  ///< cumulative greedy cost up to this snapshot
};

struct ClusteringResult {
  std::vector<MergeStep> steps;
  typing::TypingProgram final_program;
  /// Stage-1 type id -> final program type id (kEmptyType if unclassified).
  std::vector<typing::TypeId> final_map;
  /// Per final type: accumulated weight (sum of merged Stage-1 weights).
  std::vector<uint64_t> final_weights;
  double total_distance = 0.0;
  /// Populated when options.record_snapshots; ordered by decreasing k,
  /// one per k from min(n, options.max_snapshot_types) (n when the cap is
  /// 0; k = n is the starting program) down to the final one.
  std::vector<Snapshot> snapshots;
};

/// Greedy agglomerative clustering of the Stage-1 types (§5): repeatedly
/// perform the cheapest "move all of type s into type t" (or "stop
/// classifying type s") step until `target_num_types` remain. After each
/// coalescing, every rule body referencing s is rewritten to reference t
/// (the hypercube projection of Example 5.1), so zero-distance follow-up
/// merges cascade naturally. Ties on cost break toward the lowest
/// (source, dest) pair, with the empty-type move losing all ties.
///
/// `weights[i]` is the number of objects whose home is Stage-1 type i.
/// Fails if weights.size() != stage1.NumTypes() or target_num_types < 1;
/// a target at or above the type count returns the input unclustered.
///
/// Memory stays linear in the program: rule bodies are interned link ids
/// with per-link posting lists, and each distance row is derived from
/// them on demand (no n x n matrix). exec.check_cancel is polled before
/// every merge step; its status propagates verbatim.
util::StatusOr<ClusteringResult> ClusterTypes(
    const typing::TypingProgram& stage1, const std::vector<uint32_t>& weights,
    const ClusteringOptions& options, const typing::ExecOptions& exec = {});

}  // namespace schemex::cluster

#endif  // SCHEMEX_CLUSTER_GREEDY_H_
