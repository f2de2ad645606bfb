#include "graph/graph_stats.h"

#include <algorithm>

#include "util/string_util.h"

namespace schemex::graph {

GraphStats ComputeStats(GraphView g) {
  GraphStats s;
  s.num_objects = g.NumObjects();
  s.num_complex = g.NumComplexObjects();
  s.num_atomic = g.NumAtomicObjects();
  s.num_edges = g.NumEdges();
  s.num_labels = g.labels().size();
  s.bipartite = IsBipartite(g);
  s.label_histogram.assign(s.num_labels, 0);
  for (ObjectId o = 0; o < g.NumObjects(); ++o) {
    auto out = g.OutEdges(o);
    auto in = g.InEdges(o);
    s.max_out_degree = std::max(s.max_out_degree, out.size());
    s.max_in_degree = std::max(s.max_in_degree, in.size());
    if (g.IsComplex(o) && in.empty()) ++s.num_roots;
    for (const HalfEdge& e : out) ++s.label_histogram[e.label];
  }
  s.avg_out_degree =
      s.num_complex == 0
          ? 0.0
          : static_cast<double>(s.num_edges) / static_cast<double>(s.num_complex);
  return s;
}

std::string GraphStats::ToString(GraphView g) const {
  std::string out = util::StringPrintf(
      "objects=%zu (complex=%zu, atomic=%zu) edges=%zu labels=%zu "
      "bipartite=%s roots=%zu max_out=%zu max_in=%zu avg_out=%.2f\n",
      num_objects, num_complex, num_atomic, num_edges, num_labels,
      bipartite ? "yes" : "no", num_roots, max_out_degree, max_in_degree,
      avg_out_degree);
  for (size_t l = 0; l < label_histogram.size(); ++l) {
    out += util::StringPrintf("  label %-24s %6zu edges\n",
                              g.labels().Name(static_cast<LabelId>(l)).c_str(),
                              label_histogram[l]);
  }
  return out;
}

}  // namespace schemex::graph
