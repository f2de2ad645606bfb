#ifndef SCHEMEX_CLUSTER_KCENTER_H_
#define SCHEMEX_CLUSTER_KCENTER_H_

#include <cstdint>
#include <vector>

#include "typing/exec_options.h"
#include "typing/typing_program.h"
#include "util/statusor.h"

namespace schemex::cluster {

/// The paper's §5.2 "Variation to k-clustering": "first consider the
/// types after Stage 1 WITHOUT their weights ... find the best k clusters
/// of the types and only use the weights within a cluster to determine
/// its type definition corresponding to its center."
///
/// Implementation: classic farthest-point traversal on the simple
/// distance d (a 2-approximation for k-center), unweighted; then, inside
/// each cluster, the *weighted medoid* — the member signature minimizing
/// the weighted sum of distances to its siblings — becomes the cluster's
/// type definition.
///
/// The paper's caveat applies and is observable in the ablation bench:
/// "this approach may run into problems if there are many outliers and
/// the hypercube is densely populated" (farthest-point chases outliers).
struct KCenterResult {
  typing::TypingProgram program;         ///< k types, targets remapped
  std::vector<typing::TypeId> map;       ///< stage-1 type -> final type
  std::vector<uint64_t> weights;         ///< per final type
  std::vector<typing::TypeId> medoids;   ///< stage-1 id of each definition
  /// max over types of d(type, its center) — the k-center objective.
  size_t radius = 0;
};

/// Clusters the Stage-1 types to (at most) `k` clusters. Fails on size
/// mismatch or k == 0. If k >= NumTypes the result is the identity.
///
/// The pairwise distance matrix runs on the bit-parallel kernel.
/// exec.check_cancel is polled between phases.
util::StatusOr<KCenterResult> KCenterCluster(
    const typing::TypingProgram& stage1, const std::vector<uint32_t>& weights,
    size_t k, const typing::ExecOptions& exec = {});

}  // namespace schemex::cluster

#endif  // SCHEMEX_CLUSTER_KCENTER_H_
