#include "typing/quotient.h"

#include <algorithm>
#include <memory>
#include <string_view>
#include <utility>

#include "util/string_util.h"

namespace schemex::typing {

namespace {

/// The heap arrays behind a quotient's FrozenGraph.
struct QuotientArrays {
  std::vector<uint64_t> out_off, in_off, text_off, atomic_words;
  std::vector<graph::HalfEdge> out_edges, in_edges;
};

}  // namespace

util::StatusOr<Quotient> BuildQuotient(graph::GraphView g,
                                       std::vector<TypeId> class_of) {
  const size_t n = g.NumObjects();
  if (class_of.size() != n) {
    return util::Status::InvalidArgument(util::StringPrintf(
        "partition covers %zu objects, the graph has %zu", class_of.size(),
        n));
  }
  Quotient q;
  for (graph::ObjectId o = 0; o < n; ++o) {
    if (g.IsAtomic(o)) {
      class_of[o] = kInvalidType;
      if (q.smallest_atomic == graph::kInvalidObject) q.smallest_atomic = o;
      continue;
    }
    if (class_of[o] < 0) {
      return util::Status::InvalidArgument(
          util::StringPrintf("complex object %u has no class", o));
    }
    const auto c = static_cast<size_t>(class_of[o]);
    if (c >= q.size.size()) {
      q.size.resize(c + 1, 0);
      q.first.resize(c + 1, graph::kInvalidObject);
    }
    if (q.size[c]++ == 0) q.first[c] = o;
  }
  const size_t num_classes = q.NumClasses();
  for (size_t c = 0; c < num_classes; ++c) {
    if (q.size[c] == 0) {
      return util::Status::InvalidArgument(
          util::StringPrintf("class %zu has no member", c));
    }
  }
  const graph::ObjectId atomic_node = q.AtomicNode();
  auto node = [&](graph::ObjectId o) {
    return class_of[o] == kInvalidType
               ? atomic_node
               : static_cast<graph::ObjectId>(class_of[o]);
  };

  // Each class's out-row, off its smallest member, sorted by (label,
  // node) as CSR rows are.
  auto arrays = std::make_shared<QuotientArrays>();
  std::vector<graph::HalfEdge>& out = arrays->out_edges;
  std::vector<uint64_t>& out_off = arrays->out_off;
  out_off.assign(num_classes + 2, 0);
  for (size_t c = 0; c < num_classes; ++c) {
    out_off[c] = out.size();
    for (const graph::HalfEdge& e : g.OutEdges(q.first[c])) {
      out.push_back(graph::HalfEdge{e.label, node(e.other)});
    }
    const auto begin = out.begin() + static_cast<ptrdiff_t>(out_off[c]);
    std::sort(begin, out.end());
    out.erase(std::unique(begin, out.end()), out.end());
  }
  out_off[num_classes] = out_off[num_classes + 1] = out.size();

  // One pass over the out-edges counts every edge into its triple.
  q.count.assign(out.size(), 0);
  for (graph::ObjectId o = 0; o < n; ++o) {
    if (class_of[o] == kInvalidType) continue;
    const auto c = static_cast<size_t>(class_of[o]);
    const auto lo = out.begin() + static_cast<ptrdiff_t>(out_off[c]);
    const auto hi = out.begin() + static_cast<ptrdiff_t>(out_off[c + 1]);
    for (const graph::HalfEdge& e : g.OutEdges(o)) {
      const graph::HalfEdge triple{e.label, node(e.other)};
      auto it = std::lower_bound(lo, hi, triple);
      if (it == hi || *it != triple) {
        return util::Status::FailedPrecondition(util::StringPrintf(
            "partition is not stable: object %u has an edge its class %zu's "
            "smallest member %u does not",
            o, c, q.first[c]));
      }
      ++q.count[static_cast<size_t>(it - out.begin())];
    }
  }

  // In-rows: the triples bucketed by target node, each row sorted by
  // (label, source).
  const size_t num_nodes = num_classes + 1;
  std::vector<uint64_t>& in_off = arrays->in_off;
  in_off.assign(num_nodes + 1, 0);
  for (const graph::HalfEdge& e : out) ++in_off[e.other + 1];
  for (size_t v = 0; v < num_nodes; ++v) in_off[v + 1] += in_off[v];
  arrays->in_edges.resize(out.size());
  std::vector<uint64_t> cursor(in_off.begin(), in_off.end() - 1);
  for (size_t c = 0; c < num_classes; ++c) {
    for (size_t i = out_off[c]; i < out_off[c + 1]; ++i) {
      arrays->in_edges[cursor[out[i].other]++] =
          graph::HalfEdge{out[i].label, static_cast<graph::ObjectId>(c)};
    }
  }
  for (size_t v = 0; v < num_nodes; ++v) {
    std::sort(arrays->in_edges.begin() + static_cast<ptrdiff_t>(in_off[v]),
              arrays->in_edges.begin() +
                  static_cast<ptrdiff_t>(in_off[v + 1]));
  }
  arrays->text_off.assign(2 * num_nodes + 1, 0);
  arrays->atomic_words.assign((num_nodes + 63) / 64, 0);
  arrays->atomic_words[atomic_node >> 6] |= 1ULL << (atomic_node & 63);

  graph::FrozenGraph::External parts;
  parts.num_objects = num_nodes;
  parts.num_complex = num_classes;
  parts.num_edges = out.size();
  parts.views = {out_off,          in_off, arrays->text_off,
                 arrays->atomic_words, out, arrays->in_edges,
                 std::string_view()};
  parts.labels = g.labels();
  parts.backing = arrays;
  SCHEMEX_ASSIGN_OR_RETURN(q.graph,
                           graph::FrozenGraph::FromExternal(std::move(parts)));
  q.class_of = std::move(class_of);
  return q;
}

}  // namespace schemex::typing
