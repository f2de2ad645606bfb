#ifndef SCHEMEX_CLUSTER_DISTANCE_H_
#define SCHEMEX_CLUSTER_DISTANCE_H_

#include <cstddef>
#include <string_view>

#include "typing/bit_signature.h"
#include "typing/type_signature.h"

namespace schemex::cluster {

/// The bit-parallel distance kernel (XOR + popcount over the program's
/// typed-link universe) that fills the all-pairs tables of k-center and
/// the exact search, and scores Stage-3 object pictures. Defined in
/// typing/ so Stage 3 can share it. The greedy clusterer does not use it:
/// its rule bodies mutate, so it derives distances from posting lists
/// instead (greedy.cc). SimpleDistance below stays the sorted-vector
/// reference both are tested against.
using BitSignature = typing::BitSignature;
using BitSignatureIndex = typing::BitSignatureIndex;

/// The weighted distance functions of §5.2. All take the simple Manhattan
/// distance d (symmetric difference of rule bodies), the weights w1 (the
/// destination type: objects stay) and w2 (the source type: its objects
/// move into the destination), and L (the number of distinct typed links
/// in the Stage-1 program). The functions are deliberately asymmetric:
/// psi(w1, w2, d) prices "moving w2 objects into type 1".
enum class PsiKind {
  kSimpleD,  ///< d alone, ignoring weights
  kPsi1,     ///< L^d / (w1 * w2)
  kPsi2,     ///< d * w2 — the "weighted Manhattan distance" used in the
             ///< paper's experiments (§7.1)
  kPsi3,     ///< (w1 * w2)^(1/d)
  kPsi4,     ///< L^d * w2
  kPsi5,     ///< (w2 / w1)^(1/d)
};

/// Stable names for reports ("psi2", ...).
std::string_view PsiKindName(PsiKind kind);

/// Evaluates the chosen function. Conventions for edge cases:
///  * d == 0: merging identical types is free — returns 0 for every kind
///    (the exponent-based kinds are undefined at d = 0 otherwise);
///  * weights are clamped below at 1 so the ratio/product forms stay
///    finite when a virtual (e.g. empty) type starts at weight 0;
///  * results may overflow to +inf for the exponential kinds (L^d); +inf
///    compares correctly in "pick the minimum" loops.
double WeightedDistance(PsiKind kind, double w1, double w2, size_t d,
                        size_t L);

/// d(t1, t2): symmetric difference of the two rule bodies (Example 5.2).
inline size_t SimpleDistance(const typing::TypeSignature& a,
                             const typing::TypeSignature& b) {
  return typing::TypeSignature::SymmetricDifferenceSize(a, b);
}

}  // namespace schemex::cluster

#endif  // SCHEMEX_CLUSTER_DISTANCE_H_
