#ifndef SCHEMEX_TYPING_DEFECT_H_
#define SCHEMEX_TYPING_DEFECT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "graph/graph_view.h"
#include "typing/assignment.h"
#include "typing/gfp.h"
#include "typing/quotient.h"
#include "typing/typing_program.h"

namespace schemex::typing {

/// An edge fact, used for reporting excess edges and invented (deficit)
/// facts. `from`/`to` may be kInvalidObject in invented facts when the
/// target type has an empty extent and no concrete witness exists.
struct EdgeFact {
  graph::ObjectId from;
  graph::ObjectId to;
  graph::LabelId label;

  friend bool operator==(const EdgeFact&, const EdgeFact&) = default;
  friend auto operator<=>(const EdgeFact&, const EdgeFact&) = default;
};

/// The paper's typing-quality measure (§2 "Defect: Excess and Deficit").
struct DefectReport {
  /// Ground link facts not used to justify any type membership.
  size_t excess = 0;
  /// Minimum (greedily approximated, see ComputeDeficit) number of ground
  /// link facts that must be invented so every assignment is derivable.
  size_t deficit = 0;

  size_t defect() const { return excess + deficit; }

  /// The actual offending facts (populated when `collect_facts`).
  std::vector<EdgeFact> excess_edges;
  std::vector<EdgeFact> invented_edges;

  std::string ToString() const;
};

/// Counts the excess of assignment `tau` for `program` on `g`: an edge
/// (o -l-> o') is *used* iff some c with o in tau(c) has ->l^{c'} for some
/// c' with o' in tau(c') (or ->l^0 when o' is atomic), or some such c' has
/// <-l^{c}. Everything else is excess.
size_t ComputeExcess(const TypingProgram& program, graph::GraphView g,
                     const TypeAssignment& tau, bool collect_facts,
                     DefectReport* report);

/// Counts the deficit of assignment `tau`: for every (object o, type t in
/// tau(o), typed link of t) without a witness under tau, one link fact is
/// invented. Witnesses are chosen canonically (the smallest-id member of
/// the target type / smallest atomic object), and identical invented facts
/// are counted once — a greedy upper bound on the true minimum, which is
/// itself NP-hard to compute exactly (the paper likewise only bounds it,
/// §5.2 end).
size_t ComputeDeficit(const TypingProgram& program, graph::GraphView g,
                      const TypeAssignment& tau, bool collect_facts,
                      DefectReport* report);

/// Excess + deficit in one report.
DefectReport ComputeDefect(const TypingProgram& program,
                           graph::GraphView g,
                           const TypeAssignment& tau,
                           bool collect_facts = false);

/// ComputeDefect of a class-uniform assignment, on the quotient: every
/// member of class c has `class_types.TypesOf(c)` (a TypeAssignment over
/// q.graph's nodes, the atomic node untyped). Equals ComputeDefect over
/// the lifted per-object assignment, in O(triples + classes x links):
///  - excess: the count of every triple no type pair of its endpoints
///    uses;
///  - deficit: per class, its distinct unwitnessed (witness, label)
///    pairs times its size, less the coincidences. An out-fact
///    (o1, member[t], l) equals an in-fact (member[t'], o2, l) only when
///    o1 and o2 are both canonical members (each the smallest-id member
///    of some type, so the first member of its class), so the facts of
///    those <= k objects are matched exactly and each match counted once.
/// The reported facts are not collected.
DefectReport ComputeQuotientDefect(const TypingProgram& program,
                                   const Quotient& q,
                                   const TypeAssignment& class_types);

/// Adapter: views GFP extents as an assignment (every object assigned to
/// every type whose extent contains it).
TypeAssignment ExtentsToAssignment(const Extents& m);

}  // namespace schemex::typing

#endif  // SCHEMEX_TYPING_DEFECT_H_
