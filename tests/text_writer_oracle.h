#ifndef SCHEMEX_TESTS_TEXT_WRITER_ORACLE_H_
#define SCHEMEX_TESTS_TEXT_WRITER_ORACLE_H_

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph_view.h"
#include "typing/assignment.h"
#include "util/string_util.h"

namespace schemex::test {

// Straightforward reference writers for graph.sxg and assignment.tsv.
// graph::WriteGraph and catalog::AssignmentToTsv must match them byte for
// byte (tests/text_writer_test.cc).

inline std::string OracleEscapeValue(std::string_view v) {
  std::string out = "\"";
  for (char c : v) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  out += '"';
  return out;
}

inline std::string OracleDisplayName(graph::GraphView g, graph::ObjectId o) {
  std::string_view n = g.Name(o);
  if (!n.empty()) return std::string(n);
  return util::StringPrintf("_o%u", o);
}

/// Test oracle for graph::WriteGraph: one string temporary per name and
/// per line, with each object's out-edges stable-sorted by comparing
/// label *names*.
inline std::string OracleWriteGraph(graph::GraphView g) {
  std::string out;
  out += util::StringPrintf("# schemex graph: %zu objects, %zu edges\n",
                            g.NumObjects(), g.NumEdges());
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    if (g.IsAtomic(o)) {
      out += "atomic " + OracleDisplayName(g, o) + " " +
             OracleEscapeValue(g.Value(o)) + "\n";
    } else {
      out += "complex " + OracleDisplayName(g, o) + "\n";
    }
  }
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    std::vector<graph::HalfEdge> edges(g.OutEdges(o).begin(),
                                       g.OutEdges(o).end());
    std::stable_sort(edges.begin(), edges.end(),
                     [&](const graph::HalfEdge& a, const graph::HalfEdge& b) {
                       std::string_view an = g.labels().Name(a.label);
                       std::string_view bn = g.labels().Name(b.label);
                       if (an != bn) return an < bn;
                       return a.other < b.other;
                     });
    for (const graph::HalfEdge& e : edges) {
      out += "edge " + OracleDisplayName(g, o) + " " +
             g.labels().Name(e.label) + " " + OracleDisplayName(g, e.other) +
             "\n";
    }
  }
  return out;
}

/// Test oracle for catalog::AssignmentToTsv: one StringPrintf per id.
inline std::string OracleAssignmentToTsv(const typing::TypeAssignment& tau) {
  std::string out;
  for (graph::ObjectId o = 0; o < tau.NumObjects(); ++o) {
    const auto& types = tau.TypesOf(o);
    if (types.empty()) continue;
    out += util::StringPrintf("%u\t", o);
    for (size_t i = 0; i < types.size(); ++i) {
      if (i > 0) out += ',';
      out += util::StringPrintf("%d", types[i]);
    }
    out += '\n';
  }
  return out;
}

}  // namespace schemex::test

#endif  // SCHEMEX_TESTS_TEXT_WRITER_ORACLE_H_
