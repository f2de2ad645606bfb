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

/// The paper's §4.1 partition: candidate types (one per complex object,
/// its local picture) merged when their GFP extents are equal (Remark
/// 4.1), one representative rule per class. Computed over one candidate
/// per bisimulation class instead of one per object: the hash
/// refinement's program (Q_D quotiented by bisimulation) gets one GFP
/// (k extents of n bits for k classes, not n^2), and classes with equal
/// extents merge, numbered by first occurrence in class order. Bisimilar
/// objects simulate each other in both directions, so their candidates
/// have equal extents, and the result equals the literal per-object
/// algorithm's bit for bit (tests/gfp_oracle.h). `options` reaches both
/// engines; like the refinement, fails at 2^31 or more labels. With
/// `refinement` set it receives the refinement's homes: the coarsest full
/// bisimulation, whose classes the merged types are unions of (the
/// merged types themselves need not be stable).
util::StatusOr<PerfectTypingResult> PerfectTypingViaGfp(
    graph::GraphView g, const ExecOptions& options = {},
    std::vector<TypeId>* refinement = nullptr);

/// Scalable Stage 1 via partition refinement (the bisimulation-style
/// computation of §4.1 "Computational Efficiency"): start with one block
/// of all complex objects and repeatedly split blocks by the set of
/// (direction, label, neighbor-block) triples until stable. Produces the
/// coarsest partition where equivalent objects have identical local
/// pictures up to the partition: the coarsest full bisimulation. GFP
/// extents are closed under bisimulation, so this partition always
/// refines PerfectTypingViaGfp's; it can be strictly finer, because §4.1
/// merges candidate types on extent equality (Remark 4.1), which also
/// merges some objects that are not bisimilar (Table 1's DB7 and DB8:
/// 247 vs 245 and 248 vs 246 types). Blocks are numbered by first
/// occurrence in object order; the textbook std::map formulation in
/// tests/refinement_oracle.h pins that numbering.
///
///  - Per round, each complex object's local picture is folded into a
///    64-bit hash combined with its previous block id — no TypeSignature
///    or std::map node is materialized. The canonical sorted/deduplicated
///    link encodings are kept in one arena per round, so hash-bucket
///    collisions are resolved by comparing the encodings exactly: the
///    partition is the exact coarsest full bisimulation regardless of
///    hash quality (options.debug_force_hash_collisions pins this).
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
