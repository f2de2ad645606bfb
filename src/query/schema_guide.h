#ifndef SCHEMEX_QUERY_SCHEMA_GUIDE_H_
#define SCHEMEX_QUERY_SCHEMA_GUIDE_H_

#include <vector>

#include "graph/graph_view.h"
#include "query/path_query.h"
#include "typing/assignment.h"
#include "typing/typing_program.h"

namespace schemex::query {

/// Schema-guided query pruning — the paper's §1 motivation made
/// concrete: "performance is greatly improved by taking advantage of the
/// existing structure".
///
/// The guide lifts a typing program to a *schema graph* (types as nodes,
/// one edge type1 -l-> type2 per typed link ->l^2 of type1 or <-l^1 of
/// type2, plus -l-> ATOM edges) and statically computes which types can
/// possibly begin a given path query. Evaluation then starts from only
/// the objects assigned to those types instead of every object.
///
/// Soundness: pruning is exact when the assignment has zero EXCESS (every
/// edge of the data is described by some rule — true by construction for
/// the minimal perfect typing). Under an approximate typing, objects may
/// reach results through excess edges the schema does not know about, so
/// pruned evaluation can under-report; the bench measures that recall.
class SchemaGuide {
 public:
  /// Builds the guide from a typing program plus the Stage-3 assignment.
  SchemaGuide(const typing::TypingProgram& program,
              const typing::TypeAssignment& assignment);

  /// Types from which the whole query can be matched in the schema graph.
  std::vector<typing::TypeId> StartTypes(graph::GraphView g,
                                         const PathQuery& q) const;

  /// As above, polling `check_cancel` before each step: one step costs a
  /// pass over the schema edges, so a query of many steps over a large
  /// schema is long-running on its own.
  util::StatusOr<std::vector<typing::TypeId>> StartTypes(
      graph::GraphView g, const PathQuery& q,
      const CancelHook& check_cancel) const;

  /// Objects assigned to some start type (the pruned start set), found by
  /// scanning every object's types. Serving code starts from
  /// QueryIndex's per-type extents instead; this scan stays for callers
  /// that hold no index.
  std::vector<graph::ObjectId> StartCandidates(graph::GraphView g,
                                               const PathQuery& q) const;

  /// EvaluatePathQuery from the pruned start set; empty when no type can
  /// start `q`. QueryIndex::Evaluate returns the same set.
  std::vector<graph::ObjectId> Evaluate(graph::GraphView g,
                                        const PathQuery& q,
                                        QueryStats* stats = nullptr) const;

  /// Heap bytes of the schema edges.
  size_t MemoryUsage() const { return edges_.capacity() * sizeof(SchemaEdge); }

 private:
  struct SchemaEdge {
    typing::TypeId from;
    graph::LabelId label;
    typing::TypeId to;  // kAtomicType for -l-> ATOM
  };

  const typing::TypingProgram& program_;
  const typing::TypeAssignment& assignment_;
  std::vector<SchemaEdge> edges_;
};

}  // namespace schemex::query

#endif  // SCHEMEX_QUERY_SCHEMA_GUIDE_H_
