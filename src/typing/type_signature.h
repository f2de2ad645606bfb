#ifndef SCHEMEX_TYPING_TYPE_SIGNATURE_H_
#define SCHEMEX_TYPING_TYPE_SIGNATURE_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "typing/typed_link.h"

namespace schemex::typing {

/// The body of one type rule: a *set* of typed links, stored sorted and
/// deduplicated. This is the point on the paper's binary hypercube whose
/// dimensions are the distinct typed links of a program (§5.1).
class TypeSignature {
 public:
  TypeSignature() = default;

  /// Builds from an arbitrary list; sorts and removes duplicates.
  static TypeSignature FromLinks(std::vector<TypedLink> links);

  bool empty() const { return links_.empty(); }
  size_t size() const { return links_.size(); }
  std::span<const TypedLink> links() const {
    return {links_.data(), links_.size()};
  }

  bool Contains(const TypedLink& l) const;

  /// Inserts `l` (no-op if present).
  void Insert(const TypedLink& l);

  /// Removes `l` (no-op if absent).
  void Erase(const TypedLink& l);

  /// True iff every link of *this is in `other`.
  bool IsSubsetOf(const TypeSignature& other) const;

  /// Set union / intersection.
  static TypeSignature Union(const TypeSignature& a, const TypeSignature& b);
  static TypeSignature Intersection(const TypeSignature& a,
                                    const TypeSignature& b);

  /// |a Δ b| — the paper's simple Manhattan distance d(t1, t2) (§5.2).
  /// This sorted-vector merge is the *reference* distance. Stage 3 and
  /// the k-center / exact all-pairs tables use the bit-parallel kernel in
  /// bit_signature.h (XOR + popcount over a typed-link universe), and
  /// greedy clustering counts shared links along posting lists; both are
  /// tested to match this function exactly.
  static size_t SymmetricDifferenceSize(const TypeSignature& a,
                                        const TypeSignature& b);

  /// Rewrites every link whose target is `from` to target `to`, re-sorting
  /// and deduplicating. Used when clustering coalesces type `from` into
  /// `to` (the hypercube "diagonal projection" of Example 5.1).
  void RemapTarget(TypeId from, TypeId to);

  /// Applies an arbitrary target mapping: target t (>= 0) becomes map[t];
  /// kAtomicType is unchanged. Out-of-range targets are a programming
  /// error.
  void RemapTargets(std::span<const TypeId> map);

  /// "<-a^1, ->b^0" — paper-style; type targets rendered as 1-based ids.
  std::string ToString(const graph::LabelInterner& labels) const;

  /// Order-insensitive content hash.
  uint64_t Hash() const;

  friend bool operator==(const TypeSignature&, const TypeSignature&) = default;
  friend auto operator<=>(const TypeSignature&, const TypeSignature&) = default;

 private:
  void Normalize();

  std::vector<TypedLink> links_;  // sorted, unique
};

}  // namespace schemex::typing

#endif  // SCHEMEX_TYPING_TYPE_SIGNATURE_H_
