#ifndef SCHEMEX_TYPING_RECAST_H_
#define SCHEMEX_TYPING_RECAST_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "graph/graph_view.h"
#include "typing/assignment.h"
#include "typing/bit_signature.h"
#include "typing/defect.h"
#include "typing/exec_options.h"
#include "typing/gfp.h"
#include "typing/quotient.h"
#include "typing/typing_program.h"
#include "util/statusor.h"

namespace schemex::typing {

/// Stage 3 knobs (§6).
struct RecastOptions {
  /// Assign objects to every type they satisfy exactly under the greatest
  /// fixpoint of the final program (beyond their home types).
  bool add_gfp_types = true;

  /// Objects with neither a home nor an exact GFP type get the nearest
  /// type by the simple distance d between their local picture and the
  /// type's signature. Set false to leave such objects untyped (the
  /// paper's "empty set type").
  bool nearest_type_fallback = true;
};

/// Stage 3 output.
struct RecastResult {
  /// Final object -> type-set assignment (homes plus GFP types plus
  /// nearest-type fallbacks).
  TypeAssignment assignment;

  /// GFP extents of the final program, for inspection.
  Extents gfp;

  size_t num_exact = 0;     ///< complex objects in >= 1 GFP extent
  size_t num_fallback = 0;  ///< complex objects typed via nearest-distance
  size_t num_untyped = 0;   ///< complex objects left untyped
};

/// Recasts the database into `program`: every object keeps its home types
/// (`homes`, possibly empty per object — e.g. objects moved to the empty
/// type by clustering), gains all types it satisfies exactly (GFP), and,
/// failing everything, the nearest type by d.
///
/// The fallback visits stragglers in object order, so a straggler's
/// picture sees the types of the stragglers typed before it.
/// exec.check_cancel is polled inside the GFP (see ComputeGfp), between
/// phases, and every kGfpCancelPollInterval stragglers.
util::StatusOr<RecastResult> Recast(
    const TypingProgram& program, graph::GraphView g,
    const std::vector<std::vector<TypeId>>& homes,
    const RecastOptions& options = {}, const ExecOptions& exec = {});

/// Stage 3 and the defect of one program on a Quotient, per class.
struct QuotientRecast {
  /// Per node of the quotient's graph: the type set every member of the
  /// class gets (the atomic node: none). Meaningless for the classes
  /// that split when `objects` is set.
  TypeAssignment types;

  /// GFP extents over the quotient's nodes.
  Extents gfp;

  /// Straggler classes (members with neither a home nor an assigned GFP
  /// type) were adjacent, so the fallback ran per object, in object
  /// order: a straggler's picture may then see stragglers typed before
  /// it.
  bool per_object_fallback = false;

  /// The per-object assignment, kept when that fallback split a class.
  std::optional<TypeAssignment> objects;

  size_t num_exact = 0;     ///< complex objects, as in RecastResult
  size_t num_fallback = 0;
  size_t num_untyped = 0;

  /// Excess and deficit of the assignment (no facts collected).
  DefectReport defect;
};

/// Recast + ComputeDefect of `program` for homes that are a function of
/// the class (`class_homes[c]`, program ids), computed on the quotient
/// `q` of `g` in O(classes + triples) per program, and equal to the
/// per-object pair over the lifted homes:
///  - GFP: ComputeGfp on q.graph. The bisimulation closure of a
///    post-fixpoint is a post-fixpoint, so g's extents are the unions of
///    the classes in q's.
///  - fallback: when no triple joins two straggler classes (a self-loop
///    counts), every straggler's neighbours are typed before the
///    fallback starts, and a member's picture is its class's: one
///    NearestTypeIndexed per class. Otherwise the fallback runs per
///    object over the straggler objects, and where it splits a class
///    the defect is ComputeDefect's over that per-object assignment.
///  - defect: ComputeQuotientDefect.
/// exec.check_cancel is polled inside the GFP and the fallback, as by
/// Recast.
util::StatusOr<QuotientRecast> RecastQuotient(
    const TypingProgram& program, graph::GraphView g, const Quotient& q,
    const std::vector<std::vector<TypeId>>& class_homes,
    const RecastOptions& options = {}, const ExecOptions& exec = {});

/// The per-object RecastResult of `r`, which RecastQuotient computed on
/// `q`: what Recast returns over the lifted homes.
RecastResult MaterializeRecast(const Quotient& q, QuotientRecast r);

/// The local picture of `o` expressed over `tau`: one ->l^0 per edge to an
/// atomic object, one ->l^t / <-l^t per edge to/from a complex neighbor
/// and each type t the neighbor is assigned to.
TypeSignature ObjectPicture(graph::GraphView g,
                            const TypeAssignment& tau, graph::ObjectId o);

/// Nearest type to `o` by d(picture(o), signature) — the paper's rule for
/// typing objects that fit no type precisely (also used for new objects
/// arriving after extraction). Ties break toward the lowest type id.
/// Returns kInvalidType for an empty program; `*out_distance` (optional)
/// receives the winning distance.
TypeId NearestType(const TypingProgram& program, graph::GraphView g,
                   const TypeAssignment& tau, graph::ObjectId o,
                   size_t* out_distance = nullptr);

/// NearestType on the bit kernel: `index` spans (at least) the program's
/// typed links and `type_encs` holds the program signatures encoded by it
/// (one per type, in type order). Out-of-universe picture links are
/// tallied via EncodeFrozen extras, so the result — including the
/// tie-break toward the lowest type id — is identical to NearestType.
/// Callers that probe repeatedly (the Recast fallback, TypeArrivals)
/// build the index once instead of re-merging sorted vectors per probe.
TypeId NearestTypeIndexed(graph::GraphView g, const TypeAssignment& tau,
                          graph::ObjectId o, const BitSignatureIndex& index,
                          const std::vector<BitSignature>& type_encs,
                          size_t* out_distance = nullptr);

}  // namespace schemex::typing

#endif  // SCHEMEX_TYPING_RECAST_H_
