#ifndef SCHEMEX_TESTS_QUERY_ORACLE_H_
#define SCHEMEX_TESTS_QUERY_ORACLE_H_

#include <deque>
#include <vector>

#include "graph/graph_view.h"
#include "query/path_query.h"
#include "query/schema_guide.h"
#include "util/bitset.h"

namespace schemex::test {

// Row-scan path-query evaluation: every step and filter walks whole
// adjacency rows and tests each edge's label. query::EvaluateFrom (label
// runs found with lower_bound) and query::QueryIndex (start frontier from
// per-type extents) must return exactly these sets
// (tests/query_index_test.cc).

inline util::DenseBitset OracleAdvance(graph::GraphView g,
                                       const util::DenseBitset& frontier,
                                       const query::PathStep& step,
                                       query::QueryStats* stats) {
  using Kind = query::PathStep::Kind;
  util::DenseBitset next(g.NumObjects());
  auto expand_one = [&](size_t o, graph::LabelId want, bool any) {
    ++stats->objects_visited;
    for (const graph::HalfEdge& e :
         g.OutEdges(static_cast<graph::ObjectId>(o))) {
      ++stats->edges_scanned;
      if (any || e.label == want) next.Set(e.other);
    }
  };
  switch (step.kind) {
    case Kind::kFilterOnly:
      return frontier;
    case Kind::kLabel: {
      graph::LabelId l = g.labels().Find(step.label);
      if (l == graph::kInvalidLabel) return next;
      frontier.ForEach([&](size_t o) { expand_one(o, l, false); });
      return next;
    }
    case Kind::kAnyOne:
      frontier.ForEach(
          [&](size_t o) { expand_one(o, graph::kInvalidLabel, true); });
      return next;
    case Kind::kAnyStar: {
      util::DenseBitset seen = frontier;
      std::deque<graph::ObjectId> work;
      frontier.ForEach(
          [&](size_t o) { work.push_back(static_cast<graph::ObjectId>(o)); });
      while (!work.empty()) {
        graph::ObjectId o = work.front();
        work.pop_front();
        ++stats->objects_visited;
        for (const graph::HalfEdge& e : g.OutEdges(o)) {
          ++stats->edges_scanned;
          if (!seen.Test(e.other)) {
            seen.Set(e.other);
            work.push_back(e.other);
          }
        }
      }
      return seen;
    }
  }
  return next;
}

/// Row-scan evaluation from `starts` (all complex objects when empty).
inline std::vector<graph::ObjectId> OracleEvaluatePathQuery(
    graph::GraphView g, const query::PathQuery& q,
    const std::vector<graph::ObjectId>& starts = {},
    query::QueryStats* stats = nullptr) {
  query::QueryStats local;
  util::DenseBitset frontier(g.NumObjects());
  if (starts.empty()) {
    for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
      if (g.IsComplex(o)) frontier.Set(o);
    }
  } else {
    for (graph::ObjectId o : starts) frontier.Set(o);
  }
  for (const query::PathStep& step : q.steps) {
    frontier = OracleAdvance(g, frontier, step, &local);
    if (step.filter.has_value()) {
      graph::LabelId attr = g.labels().Find(step.filter->attr);
      util::DenseBitset kept(g.NumObjects());
      if (attr != graph::kInvalidLabel) {
        frontier.ForEach([&](size_t o) {
          ++local.objects_visited;
          if (g.IsAtomic(static_cast<graph::ObjectId>(o))) return;
          for (const graph::HalfEdge& e :
               g.OutEdges(static_cast<graph::ObjectId>(o))) {
            ++local.edges_scanned;
            if (e.label == attr && g.IsAtomic(e.other) &&
                g.Value(e.other) == step.filter->value) {
              kept.Set(o);
              return;
            }
          }
        });
      }
      frontier = std::move(kept);
    }
    if (frontier.None()) break;
  }
  std::vector<graph::ObjectId> out;
  frontier.ForEach(
      [&](size_t o) { out.push_back(static_cast<graph::ObjectId>(o)); });
  if (stats != nullptr) *stats = local;
  return out;
}

/// Schema-pruned row-scan evaluation: the start set is every object
/// assigned to a start type (SchemaGuide::StartCandidates' scan), and
/// nothing at all when no object qualifies.
inline std::vector<graph::ObjectId> OracleGuidedEvaluate(
    const query::SchemaGuide& guide, graph::GraphView g,
    const query::PathQuery& q, query::QueryStats* stats = nullptr) {
  std::vector<graph::ObjectId> starts = guide.StartCandidates(g, q);
  if (starts.empty()) {
    if (stats != nullptr) *stats = query::QueryStats{};
    return {};
  }
  return OracleEvaluatePathQuery(g, q, starts, stats);
}

}  // namespace schemex::test

#endif  // SCHEMEX_TESTS_QUERY_ORACLE_H_
