#ifndef SCHEMEX_TYPING_INCREMENTAL_H_
#define SCHEMEX_TYPING_INCREMENTAL_H_

#include <span>
#include <vector>

#include "graph/graph_view.h"
#include "typing/assignment.h"
#include "typing/typing_program.h"
#include "util/statusor.h"

namespace schemex::typing {

/// Witness check under an assignment (not GFP extents): the §6 "assign
/// the new objects to all types that it satisfies completely" test,
/// where neighbors count through their *assigned* types.
bool SatisfiesUnderAssignment(const TypeSignature& sig, graph::GraphView g,
                              const TypeAssignment& tau, graph::ObjectId o);

/// What online typing did with one arrival.
struct ArrivalTyping {
  graph::ObjectId id = graph::kInvalidObject;
  /// Types satisfied completely (empty if none).
  std::vector<TypeId> exact_types;
  /// Nearest type when exact_types is empty.
  TypeId fallback_type = kInvalidType;
  size_t fallback_distance = 0;
};

/// Online typing of objects arriving after extraction (§6): "First we
/// assign the new objects to all types that it satisfies completely. If
/// the object cannot be assigned any type precisely, then we assign it
/// to the closest type, in terms of the simple distance function d. Of
/// course, if we have many new objects we may wish to reconsider the
/// current typing program."
///
/// `g` is the graph with the arrivals already added (typically a
/// DeltaOverlay over the extracted snapshot) and `tau` the assignment
/// from before they arrived; it is resized to g.NumObjects() and gains
/// each arrival's types. Complex arrivals are typed in the given order
/// (atomic ones are skipped), each judged against the assignment as it
/// stands when its turn comes, so an arrival may lean on an earlier
/// arrival's types. Returns one entry per complex arrival; an empty
/// program types nothing. Fails with InvalidArgument, before touching
/// `tau`, if an id is outside `g`.
util::StatusOr<std::vector<ArrivalTyping>> TypeArrivals(
    const TypingProgram& program, graph::GraphView g,
    std::span<const graph::ObjectId> arrivals, TypeAssignment* tau);

/// The paper leaves "how many new objects is too many" open; this is
/// the threshold rule: true when more than `misfit_fraction` of at least
/// `min_arrivals` arrivals needed the distance fallback — the signal to
/// re-run extraction on the accumulated data.
bool RetypeRecommended(size_t num_arrivals, size_t num_fallback,
                       double misfit_fraction = 0.25,
                       size_t min_arrivals = 10);

}  // namespace schemex::typing

#endif  // SCHEMEX_TYPING_INCREMENTAL_H_
