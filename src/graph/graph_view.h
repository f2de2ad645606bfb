#ifndef SCHEMEX_GRAPH_GRAPH_VIEW_H_
#define SCHEMEX_GRAPH_GRAPH_VIEW_H_

#include <span>
#include <string_view>

#include "graph/data_graph.h"
#include "graph/frozen_graph.h"
#include "graph/label.h"
#include "util/status.h"

namespace schemex::graph {

/// Non-owning read handle over either graph representation.
///
/// Every read-path algorithm (typing, extraction, clustering, query,
/// baselines) takes a GraphView, so one implementation serves the
/// mutable DataGraph (builders, tests, and deltas layered over a
/// snapshot) and the immutable FrozenGraph (workspace snapshots, hot
/// paths). Construction is implicit from each type, so `f(g)` keeps
/// working at existing call sites.
///
/// Dispatch is one predictable branch per accessor; when the view wraps
/// a FrozenGraph, OutEdges/InEdges return slices of the flat CSR edge
/// array, so hot loops iterate contiguous memory; a layered DataGraph
/// answers from its base CSR for untouched objects. The view borrows the
/// underlying graph: it must not outlive it.
class GraphView {
 public:
  GraphView(const DataGraph& g) : data_(&g) {}      // NOLINT(runtime/explicit)
  GraphView(const FrozenGraph& g) : frozen_(&g) {}  // NOLINT(runtime/explicit)

  size_t NumObjects() const {
    return frozen_ ? frozen_->NumObjects() : data_->NumObjects();
  }
  size_t NumComplexObjects() const {
    return frozen_ ? frozen_->NumComplexObjects() : data_->NumComplexObjects();
  }
  size_t NumAtomicObjects() const {
    return frozen_ ? frozen_->NumAtomicObjects() : data_->NumAtomicObjects();
  }
  size_t NumEdges() const {
    return frozen_ ? frozen_->NumEdges() : data_->NumEdges();
  }

  bool IsAtomic(ObjectId o) const {
    return frozen_ ? frozen_->IsAtomic(o) : data_->IsAtomic(o);
  }
  bool IsComplex(ObjectId o) const {
    return frozen_ ? frozen_->IsComplex(o) : data_->IsComplex(o);
  }

  std::string_view Value(ObjectId o) const {
    return frozen_ ? frozen_->Value(o) : data_->Value(o);
  }
  std::string_view Name(ObjectId o) const {
    return frozen_ ? frozen_->Name(o) : data_->Name(o);
  }

  std::span<const HalfEdge> OutEdges(ObjectId o) const {
    return frozen_ ? frozen_->OutEdges(o) : data_->OutEdges(o);
  }
  std::span<const HalfEdge> InEdges(ObjectId o) const {
    return frozen_ ? frozen_->InEdges(o) : data_->InEdges(o);
  }

  const LabelInterner& labels() const {
    return frozen_ ? frozen_->labels() : data_->labels();
  }

  bool HasEdge(ObjectId from, ObjectId to, LabelId label) const {
    return frozen_ ? frozen_->HasEdge(from, to, label)
                   : data_->HasEdge(from, to, label);
  }

 private:
  const DataGraph* data_ = nullptr;
  const FrozenGraph* frozen_ = nullptr;
};

/// True iff `o` has some outgoing `label` edge to an atomic object.
bool HasEdgeToAtomic(GraphView g, ObjectId o, LabelId label);

/// True iff every edge goes from a complex object to an atomic object
/// (the paper's "bipartite" special case, §5.2).
bool IsBipartite(GraphView g);

/// Checks the adjacency invariants every representation shares: atomic
/// objects are sinks; rows are sorted by (label, other); every edge's
/// endpoints and label are in range; every out-edge has its in-edge twin
/// and vice versa; and the edge and complex-object counts match the rows
/// and kinds. Returns Internal naming the first violation.
util::Status ValidateAdjacency(GraphView g);

}  // namespace schemex::graph

#endif  // SCHEMEX_GRAPH_GRAPH_VIEW_H_
