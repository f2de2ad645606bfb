#ifndef SCHEMEX_TYPING_PERFECT_TYPING_H_
#define SCHEMEX_TYPING_PERFECT_TYPING_H_

#include <cstdint>
#include <vector>

#include "graph/graph_view.h"
#include "typing/exec_options.h"
#include "typing/gfp.h"
#include "typing/typing_program.h"
#include "util/statusor.h"

namespace schemex::typing {

/// Output of Stage 1 (§4): the minimal perfect typing program plus the
/// *home type* of every object.
struct PerfectTypingResult {
  TypingProgram program;

  /// Per object: the home type, or kInvalidType for atomic objects.
  std::vector<TypeId> home;

  /// Per type: number of objects whose home it is (the clustering weights
  /// of Stage 2).
  std::vector<uint32_t> weight;

  /// Number of complex objects typed.
  size_t NumComplexObjects() const;
};

/// The paper's §4.1 algorithm, literally:
///  1. build the candidate program Q_D with one type per complex object
///     whose rule is the object's local picture,
///  2. compute the greatest fixpoint M of Q_D,
///  3. merge candidate types with equal extents (Remark 4.1) and rewrite
///     one representative rule per equivalence class.
///
/// Exact but O(N^2)-ish; intended for small/medium databases and as the
/// reference the refinement algorithm is tested against. `options`
/// parallelizes the GFP engine underneath and threads cancellation
/// through it; the result is identical for every setting.
util::StatusOr<PerfectTypingResult> PerfectTypingViaGfp(
    graph::GraphView g, const ExecOptions& options = {});

/// Scalable Stage 1 via partition refinement (the bisimulation-style
/// computation of §4.1 "Computational Efficiency"): start with one block
/// of all complex objects and repeatedly split blocks by the set of
/// (direction, label, neighbor-block) triples until stable. Produces the
/// coarsest partition where equivalent objects have identical local
/// pictures up to the partition — the same partition PerfectTypingViaGfp
/// computes on databases where extent-equality coincides with local-
/// picture-equality (verified against the GFP method in tests). Blocks
/// are numbered by first occurrence in object order; the textbook
/// std::map formulation in tests/refinement_oracle.h pins that numbering.
///
///  - Per round, each complex object's local picture is folded into a
///    64-bit hash combined with its previous block id — no TypeSignature
///    or std::map node is materialized. The canonical sorted/deduplicated
///    link encoding is kept in a per-shard arena, so hash-bucket
///    collisions are resolved by comparing the encodings exactly: the
///    partition is the exact coarsest full bisimulation regardless of
///    hash quality (options.debug_force_hash_collisions pins this).
///  - Per-object hashing is sharded across options.pool / num_threads
///    workers over the read-only graph; block ids are then assigned by a
///    sequential reduce in object order, so the result is bit-identical
///    for any thread count.
///  - options.check_cancel is polled between rounds, making long extracts
///    cancellable mid-Stage-1.
///  - Fails with InvalidArgument when the graph has 2^31 or more labels:
///    the 64-bit link encoding reserves 31 bits for the label.
util::StatusOr<PerfectTypingResult> PerfectTypingViaHashRefinement(
    graph::GraphView g, const ExecOptions& options = {});

/// Convenience: extents of the result program under GFP semantics. Because
/// typing rules have no negation, extents may overlap and strictly contain
/// the home sets (§4.2): an object with *more* links than its home type
/// requires also satisfies the richer types' generalizations.
util::StatusOr<Extents> PerfectTypingExtents(const PerfectTypingResult& r,
                                             graph::GraphView g);

}  // namespace schemex::typing

#endif  // SCHEMEX_TYPING_PERFECT_TYPING_H_
