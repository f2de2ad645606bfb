#ifndef SCHEMEX_TYPING_RECAST_H_
#define SCHEMEX_TYPING_RECAST_H_

#include <cstddef>
#include <vector>

#include "graph/graph_view.h"
#include "typing/assignment.h"
#include "typing/bit_signature.h"
#include "typing/exec_options.h"
#include "typing/gfp.h"
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
/// `exec` parallelizes the GFP (see ComputeGfp), the home/exact sweep
/// (per-object rows are disjoint), and the nearest-type fallback. The
/// fallback preserves its sequential semantics — stragglers' pictures see
/// earlier stragglers' final types — by precomputing every nearest type
/// against the pre-fallback assignment in sharded workers, then reducing
/// in object order and recomputing only the stragglers with a neighbor
/// assigned earlier in the pass. Results are bit-identical for every
/// thread count. exec.check_cancel is polled between phases and every
/// kGfpCancelPollInterval stragglers.
util::StatusOr<RecastResult> Recast(
    const TypingProgram& program, graph::GraphView g,
    const std::vector<std::vector<TypeId>>& homes,
    const RecastOptions& options = {}, const ExecOptions& exec = {});

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
