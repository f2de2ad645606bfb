#ifndef SCHEMEX_TYPING_INCREMENTAL_REFINE_H_
#define SCHEMEX_TYPING_INCREMENTAL_REFINE_H_

#include <cstddef>
#include <span>
#include <string>

#include "graph/graph_view.h"
#include "typing/exec_options.h"
#include "typing/perfect_typing.h"
#include "util/statusor.h"

namespace schemex::typing {

/// Knobs for the incremental Stage-1 re-refiner.
struct IncrementalRefineOptions {
  /// Fall back to full refinement when a round's dirty set exceeds this
  /// fraction of the complex objects — past that point propagating the
  /// delta costs more than restarting, and the fallback is always safe
  /// (the result contract is identical either way).
  double max_dirty_fraction = 0.25;

  /// Hard cap on propagation rounds. The incremental iteration is not
  /// a plain refinement (deletions *merge* blocks), so unlike the cold
  /// path it has no monotone progress measure; pathological deltas
  /// (e.g. mutually referential fresh objects chasing each other's new
  /// block ids) could cycle. The cap converts "might not settle" into
  /// "run the cold path".
  size_t max_rounds = 64;

  ExecOptions exec;
};

/// Introspection of one IncrementalRefine call.
struct IncrementalRefineStats {
  bool fell_back = false;       ///< cold PerfectTypingViaHashRefinement ran
  std::string fallback_reason;  ///< empty when !fell_back
  size_t seed_dirty = 0;        ///< dirty objects in round 1
  size_t peak_dirty = 0;        ///< largest per-round dirty set
  size_t rounds = 0;            ///< propagation rounds executed
  size_t moved_objects = 0;     ///< block moves across all rounds
  size_t live_blocks = 0;       ///< blocks entering quotient coarsening
};

/// Incremental Stage 1: re-refines `previous` — a partition produced by
/// PerfectTypingViaHashRefinement on an earlier version of the graph —
/// into the perfect typing of `g`, touching only the
/// changed neighbourhood instead of restarting.
///
/// `touched` seeds the dirty set: every complex object whose local
/// picture may differ from the old graph's (delta endpoints plus newly
/// added complex objects; graph::DataGraph::TouchedComplexObjects()
/// produces exactly this). Objects beyond previous.home.size() are
/// treated as new and always start dirty, so appended objects need not
/// appear in `touched`. Old objects must keep their ids and kinds;
/// `previous` must not assign a type to an object that is atomic in `g`.
///
/// The result is bit-identical to a cold PerfectTypingViaHashRefinement
/// of `g` — same program, homes, weights, names.
/// Internally: (1) propagate — dirty objects re-key their canonical
/// picture encoding against the current blocks, joining an existing
/// block with an equal signature or founding a fresh one, and moves
/// dirty their complex neighbours for the next round; (2) coarsen — an
/// exact partition refinement over the surviving *blocks* (each block
/// is one node carrying its signature) recovers the coarsest stable
/// partition, undoing any over-splitting the propagation left behind;
/// (3) renumber by first occurrence in object order and assemble via
/// the cold path's own AssembleRefinementResult. When the dirty set
/// blows past options.max_dirty_fraction (or rounds past max_rounds),
/// falls back to the cold path wholesale — same result, full cost.
util::StatusOr<PerfectTypingResult> IncrementalRefine(
    graph::GraphView g, const PerfectTypingResult& previous,
    std::span<const graph::ObjectId> touched,
    const IncrementalRefineOptions& options = {},
    IncrementalRefineStats* stats = nullptr);

}  // namespace schemex::typing

#endif  // SCHEMEX_TYPING_INCREMENTAL_REFINE_H_
