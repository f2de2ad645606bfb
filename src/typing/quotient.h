#ifndef SCHEMEX_TYPING_QUOTIENT_H_
#define SCHEMEX_TYPING_QUOTIENT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/frozen_graph.h"
#include "graph/graph_view.h"
#include "typing/typed_link.h"
#include "util/statusor.h"

namespace schemex::typing {

/// The weighted quotient of a graph by a stable partition of its complex
/// objects: Stage 1's refinement classes, the coarsest full bisimulation.
/// Every member of a class has the same local picture over classes, so
/// GFP extents are unions of classes, and Stage 3 can run on the classes
/// and their (class, label, class-or-atomic) triples (RecastQuotient)
/// instead of on objects and edges.
struct Quotient {
  /// Per object: its class, or kInvalidType for an atomic object.
  std::vector<TypeId> class_of;

  /// Per class: member count and smallest member id.
  std::vector<uint32_t> size;
  std::vector<graph::ObjectId> first;

  /// The classes as a small graph over the source graph's label ids:
  /// object c is class c, object AtomicNode() stands for every atomic
  /// object, and each triple is one edge. ComputeGfp, ObjectPicture and
  /// the deficit's witness test run on it unchanged.
  graph::FrozenGraph graph;

  /// Per out-edge of `graph`, in CSR order (class by class): the number
  /// of source-graph edges its triple stands for. Every source edge is in
  /// exactly one count.
  std::vector<size_t> count;

  /// The source graph's smallest atomic object id (the deficit's witness
  /// for ->l^0), or kInvalidObject.
  graph::ObjectId smallest_atomic = graph::kInvalidObject;

  size_t NumClasses() const { return size.size(); }
  size_t NumTriples() const { return count.size(); }
  graph::ObjectId AtomicNode() const {
    return static_cast<graph::ObjectId>(NumClasses());
  }
};

/// Builds the quotient of `g` by `class_of` (per object; dense class ids
/// [0, C) for complex objects, ignored for atomic ones) in one pass over
/// the out-edges. A class's triples are read off its smallest member, and
/// every other member's edges are counted into them. The partition must
/// be stable (every member of a class has the same picture over
/// classes); an edge that the smallest member's triples do not cover
/// proves it is not, and fails with FailedPrecondition.
util::StatusOr<Quotient> BuildQuotient(graph::GraphView g,
                                       std::vector<TypeId> class_of);

}  // namespace schemex::typing

#endif  // SCHEMEX_TYPING_QUOTIENT_H_
