#ifndef SCHEMEX_TYPING_ASSIGNMENT_H_
#define SCHEMEX_TYPING_ASSIGNMENT_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "graph/data_graph.h"
#include "typing/typed_link.h"

namespace schemex::typing {

/// A *type assignment* tau (§2 "Defect"): for every object, the set of
/// types it is assigned to. Unlike Extents (which are GFP-derived), an
/// assignment is free-form — objects may be assigned to types they do not
/// fully satisfy; the deficit measures exactly that gap.
class TypeAssignment {
 public:
  TypeAssignment() = default;

  /// Creates an empty assignment over `num_objects` objects.
  explicit TypeAssignment(size_t num_objects) : types_of_(num_objects) {}

  /// Adopts per-object type sets, each sorted and duplicate-free.
  explicit TypeAssignment(std::vector<std::vector<TypeId>> types_of)
      : types_of_(std::move(types_of)) {}

  size_t NumObjects() const { return types_of_.size(); }

  /// Grows (or shrinks) the object space; new objects start untyped.
  void Resize(size_t num_objects) { types_of_.resize(num_objects); }

  /// Adds `t` to `o`'s type set (no-op if already present).
  void Assign(graph::ObjectId o, TypeId t) {
    auto& v = types_of_[o];
    auto it = std::lower_bound(v.begin(), v.end(), t);
    if (it == v.end() || *it != t) v.insert(it, t);
  }

  /// Removes `t` from `o`'s type set if present.
  void Unassign(graph::ObjectId o, TypeId t) {
    auto& v = types_of_[o];
    auto it = std::lower_bound(v.begin(), v.end(), t);
    if (it != v.end() && *it == t) v.erase(it);
  }

  bool Has(graph::ObjectId o, TypeId t) const {
    const auto& v = types_of_[o];
    return std::binary_search(v.begin(), v.end(), t);
  }

  /// Sorted set of types assigned to `o`.
  const std::vector<TypeId>& TypesOf(graph::ObjectId o) const {
    return types_of_[o];
  }

  /// Objects assigned to `t` (scan; intended for tests/inspection).
  std::vector<graph::ObjectId> ObjectsOf(TypeId t) const {
    std::vector<graph::ObjectId> out;
    for (size_t o = 0; o < types_of_.size(); ++o) {
      if (Has(static_cast<graph::ObjectId>(o), t)) {
        out.push_back(static_cast<graph::ObjectId>(o));
      }
    }
    return out;
  }

  /// Number of objects with at least one type.
  size_t NumTypedObjects() const {
    size_t n = 0;
    for (const auto& v : types_of_) n += v.empty() ? 0 : 1;
    return n;
  }

  friend bool operator==(const TypeAssignment&, const TypeAssignment&) =
      default;

 private:
  std::vector<std::vector<TypeId>> types_of_;
};

}  // namespace schemex::typing

#endif  // SCHEMEX_TYPING_ASSIGNMENT_H_
