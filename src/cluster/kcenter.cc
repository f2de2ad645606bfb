#include "cluster/kcenter.h"

#include <algorithm>
#include <limits>

#include "cluster/distance.h"
#include "util/string_util.h"

namespace schemex::cluster {

namespace {

using typing::TypeId;
using typing::TypeSignature;
using typing::TypingProgram;

}  // namespace

util::StatusOr<KCenterResult> KCenterCluster(
    const TypingProgram& stage1, const std::vector<uint32_t>& weights,
    size_t k, const typing::ExecOptions& exec) {
  const size_t n = stage1.NumTypes();
  if (weights.size() != n) {
    return util::Status::InvalidArgument("weights must match type count");
  }
  if (k == 0) return util::Status::InvalidArgument("k must be >= 1");
  SCHEMEX_RETURN_IF_ERROR(stage1.Validate());
  SCHEMEX_RETURN_IF_ERROR(exec.Poll());
  k = std::min(k, n);

  // Pairwise simple distances on the bit kernel.
  BitSignatureIndex index(stage1);
  std::vector<BitSignature> enc(n);
  for (size_t i = 0; i < n; ++i) {
    enc[i] =
        index.EncodeFrozen(stage1.type(static_cast<TypeId>(i)).signature);
  }
  std::vector<std::vector<size_t>> d(n, std::vector<size_t>(n, 0));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      d[i][j] = d[j][i] = BitSignatureIndex::Distance(enc[i], enc[j]);
    }
  }
  SCHEMEX_RETURN_IF_ERROR(exec.Poll());

  // Farthest-point traversal (UNWEIGHTED, per the paper's variation).
  // Deterministic start: the type with the largest signature, ties to the
  // lowest id.
  std::vector<size_t> centers;
  {
    size_t start = 0;
    for (size_t i = 1; i < n; ++i) {
      if (stage1.type(static_cast<TypeId>(i)).signature.size() >
          stage1.type(static_cast<TypeId>(start)).signature.size()) {
        start = i;
      }
    }
    centers.push_back(start);
  }
  std::vector<size_t> dist_to_centers(n, std::numeric_limits<size_t>::max());
  while (centers.size() < k) {
    size_t last = centers.back();
    for (size_t i = 0; i < n; ++i) {
      dist_to_centers[i] = std::min(dist_to_centers[i], d[i][last]);
    }
    size_t next = 0, best = 0;
    for (size_t i = 0; i < n; ++i) {
      if (dist_to_centers[i] > best) {
        best = dist_to_centers[i];
        next = i;
      }
    }
    if (best == 0) break;  // fewer than k distinct points
    centers.push_back(next);
  }

  // Assignment to the nearest center (ties to the earliest center).
  std::vector<size_t> cluster_of(n, 0);
  size_t radius = 0;
  for (size_t i = 0; i < n; ++i) {
    size_t best_c = 0, best_d = d[i][centers[0]];
    for (size_t c = 1; c < centers.size(); ++c) {
      if (d[i][centers[c]] < best_d) {
        best_d = d[i][centers[c]];
        best_c = c;
      }
    }
    cluster_of[i] = best_c;
    radius = std::max(radius, best_d);
  }

  // Weighted medoid per cluster: minimize sum_j w_j * d(j, m).
  KCenterResult result;
  result.map.assign(n, typing::kInvalidType);
  result.medoids.assign(centers.size(), typing::kInvalidType);
  result.weights.assign(centers.size(), 0);
  result.radius = radius;
  for (size_t c = 0; c < centers.size(); ++c) {
    std::vector<size_t> members;
    for (size_t i = 0; i < n; ++i) {
      if (cluster_of[i] == c) members.push_back(i);
    }
    uint64_t best_cost = std::numeric_limits<uint64_t>::max();
    size_t medoid = members.front();
    for (size_t m : members) {
      uint64_t cost = 0;
      for (size_t j : members) cost += static_cast<uint64_t>(weights[j]) * d[j][m];
      if (cost < best_cost) {
        best_cost = cost;
        medoid = m;
      }
    }
    result.medoids[c] = static_cast<TypeId>(medoid);
    for (size_t m : members) {
      result.map[m] = static_cast<TypeId>(c);
      result.weights[c] += weights[m];
    }
  }

  // Final program: medoid signatures with targets remapped to clusters.
  for (size_t c = 0; c < centers.size(); ++c) {
    TypeSignature sig =
        stage1.type(result.medoids[c]).signature;
    sig.RemapTargets(result.map);
    result.program.AddType(stage1.type(result.medoids[c]).name,
                           std::move(sig));
  }
  return result;
}

}  // namespace schemex::cluster
