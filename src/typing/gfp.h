#ifndef SCHEMEX_TYPING_GFP_H_
#define SCHEMEX_TYPING_GFP_H_

#include <cstddef>
#include <vector>

#include "graph/graph_view.h"
#include "typing/exec_options.h"
#include "typing/typing_program.h"
#include "util/bitset.h"
#include "util/statusor.h"

namespace schemex::typing {

/// Extents of a typing program's types over a database: extents[t] has one
/// bit per object.
struct Extents {
  std::vector<util::DenseBitset> per_type;

  bool Contains(TypeId t, graph::ObjectId o) const {
    return per_type[static_cast<size_t>(t)].Test(o);
  }
  size_t NumTypes() const { return per_type.size(); }

  friend bool operator==(const Extents&, const Extents&) = default;
};

struct GfpStats {
  size_t initial_candidates = 0;  ///< (object, type) pairs after prefilter
  size_t rechecks = 0;            ///< worklist membership re-evaluations
  size_t removed = 0;             ///< pairs removed before stabilizing
};

/// Computes the greatest-fixpoint extents of `program` on `g` with a
/// worklist algorithm:
///
///  1. Prefilter: object o is a candidate for type t only if, for every
///     typed link of t, o has an edge with the right label and direction
///     (to an atomic object for ->l^0). The prefiltered set contains the
///     GFP, so descending iteration from it reaches the same fixpoint as
///     from "everything" — without the O(|objects| * |types|) start.
///  2. Worklist: when o leaves t's extent, only the (neighbor, type) pairs
///     whose justification could have used (o, t) are re-checked.
///
/// Semantically identical to datalog::Evaluate(kGreatest) on
/// program.ToDatalog() (asserted by tests), but typically orders of
/// magnitude faster on perfect-typing candidate programs.
///
/// options.check_cancel is polled between phases, every
/// kGfpCancelPollInterval objects of the prefilter, every
/// kGfpCancelPollInterval (object, type) pairs of the initial check and
/// every kGfpCancelPollInterval worklist pops.
util::StatusOr<Extents> ComputeGfp(const TypingProgram& program,
                                   graph::GraphView g,
                                   GfpStats* stats = nullptr,
                                   const ExecOptions& options = {});

/// How often (in prefilter objects, initial-check pairs or worklist
/// pops) ComputeGfp polls check_cancel; the first of each always polls,
/// so cancellation fires even on short inputs.
inline constexpr size_t kGfpCancelPollInterval = 1024;

/// True iff object `o` satisfies every typed link of `sig` under extents
/// `m` (atomic targets checked against g's atomic objects).
bool SatisfiesSignature(const TypeSignature& sig, graph::GraphView g,
                        const Extents& m, graph::ObjectId o);

}  // namespace schemex::typing

#endif  // SCHEMEX_TYPING_GFP_H_
