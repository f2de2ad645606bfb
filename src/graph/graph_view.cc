#include "graph/graph_view.h"

#include <algorithm>

#include "util/string_util.h"

namespace schemex::graph {

namespace {

bool ContainsSorted(std::span<const HalfEdge> row, HalfEdge e) {
  return std::binary_search(row.begin(), row.end(), e);
}

}  // namespace

bool HasEdgeToAtomic(GraphView g, ObjectId o, LabelId label) {
  std::span<const HalfEdge> row = g.OutEdges(o);
  auto it = std::lower_bound(row.begin(), row.end(),
                             HalfEdge{label, static_cast<ObjectId>(0)});
  for (; it != row.end() && it->label == label; ++it) {
    if (g.IsAtomic(it->other)) return true;
  }
  return false;
}

bool IsBipartite(GraphView g) {
  for (ObjectId o = 0; o < g.NumObjects(); ++o) {
    for (const HalfEdge& e : g.OutEdges(o)) {
      if (!g.IsAtomic(e.other)) return false;
    }
  }
  return true;
}

util::Status ValidateAdjacency(GraphView g) {
  const size_t n = g.NumObjects();
  size_t out_count = 0;
  size_t complex_count = 0;
  for (ObjectId o = 0; o < n; ++o) {
    std::span<const HalfEdge> out = g.OutEdges(o);
    std::span<const HalfEdge> in = g.InEdges(o);
    if (g.IsComplex(o)) ++complex_count;
    if (g.IsAtomic(o) && !out.empty()) {
      return util::Status::Internal(
          util::StringPrintf("atomic object %u has outgoing edges", o));
    }
    if (!std::is_sorted(out.begin(), out.end()) ||
        !std::is_sorted(in.begin(), in.end())) {
      return util::Status::Internal(
          util::StringPrintf("adjacency of object %u not sorted", o));
    }
    out_count += out.size();
    for (const HalfEdge& e : out) {
      if (e.other >= n || e.label >= g.labels().size()) {
        return util::Status::Internal("dangling edge endpoint or label");
      }
      if (!ContainsSorted(g.InEdges(e.other), HalfEdge{e.label, o})) {
        return util::Status::Internal(util::StringPrintf(
            "edge (%u,%u) missing from incoming index", o, e.other));
      }
    }
    for (const HalfEdge& e : in) {
      if (e.other >= n ||
          !ContainsSorted(g.OutEdges(e.other), HalfEdge{e.label, o})) {
        return util::Status::Internal(util::StringPrintf(
            "incoming edge of %u has no outgoing counterpart", o));
      }
    }
  }
  if (out_count != g.NumEdges()) {
    return util::Status::Internal("edge count out of sync");
  }
  if (complex_count != g.NumComplexObjects()) {
    return util::Status::Internal("complex count out of sync");
  }
  return util::Status::OK();
}

}  // namespace schemex::graph
