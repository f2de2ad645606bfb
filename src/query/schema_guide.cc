#include "query/schema_guide.h"

#include <algorithm>

namespace schemex::query {

namespace {

using typing::TypeId;

/// Set of schema nodes: one bool per type plus one for the ATOM node.
struct NodeSet {
  std::vector<bool> types;
  bool atom = false;

  explicit NodeSet(size_t n, bool value = false)
      : types(n, value), atom(value) {}

  bool operator==(const NodeSet&) const = default;
};

}  // namespace

SchemaGuide::SchemaGuide(const typing::TypingProgram& program,
                         const typing::TypeAssignment& assignment)
    : program_(program), assignment_(assignment) {
  for (size_t t = 0; t < program_.NumTypes(); ++t) {
    TypeId tid = static_cast<TypeId>(t);
    for (const typing::TypedLink& l : program_.type(tid).signature.links()) {
      if (l.dir == typing::Direction::kOutgoing) {
        edges_.push_back(SchemaEdge{tid, l.label, l.target});
      } else {
        edges_.push_back(SchemaEdge{l.target, l.label, tid});
      }
    }
  }
}

std::vector<TypeId> SchemaGuide::StartTypes(graph::GraphView g,
                                            const PathQuery& q) const {
  // No hook, so the DP cannot fail.
  return StartTypes(g, q, nullptr).value();
}

util::StatusOr<std::vector<TypeId>> SchemaGuide::StartTypes(
    graph::GraphView g, const PathQuery& q,
    const CancelHook& check_cancel) const {
  const size_t n = program_.NumTypes();
  // Backward DP: can[i] = nodes from which steps[i..] match.
  NodeSet can(n, true);  // past the end: anything matches
  for (size_t i = q.steps.size(); i-- > 0;) {
    if (check_cancel) SCHEMEX_RETURN_IF_ERROR(check_cancel());
    const PathStep& step = q.steps[i];
    if (step.kind == PathStep::Kind::kFilterOnly) {
      continue;  // value filters are invisible to the schema: no change
    }
    if (step.kind == PathStep::Kind::kAnyStar) {
      // Closure: everything already in `can`, plus anything with a path
      // of arbitrary edges into it.
      NodeSet next = can;
      bool changed = true;
      while (changed) {
        changed = false;
        for (const SchemaEdge& e : edges_) {
          bool to_ok = e.to == typing::kAtomicType
                           ? next.atom
                           : next.types[static_cast<size_t>(e.to)];
          if (to_ok && !next.types[static_cast<size_t>(e.from)]) {
            next.types[static_cast<size_t>(e.from)] = true;
            changed = true;
          }
        }
      }
      can = std::move(next);
      continue;
    }
    graph::LabelId want = graph::kInvalidLabel;
    if (step.kind == PathStep::Kind::kLabel) {
      want = g.labels().Find(step.label);
      if (want == graph::kInvalidLabel) {
        // Label absent from the data: nothing can match.
        return std::vector<TypeId>{};
      }
    }
    NodeSet next(n, false);  // ATOM has no outgoing edges: next.atom false
    for (const SchemaEdge& e : edges_) {
      if (step.kind == PathStep::Kind::kLabel && e.label != want) continue;
      bool to_ok = e.to == typing::kAtomicType
                       ? can.atom
                       : can.types[static_cast<size_t>(e.to)];
      if (to_ok) next.types[static_cast<size_t>(e.from)] = true;
    }
    can = std::move(next);
  }
  std::vector<TypeId> out;
  for (size_t t = 0; t < n; ++t) {
    if (can.types[t]) out.push_back(static_cast<TypeId>(t));
  }
  return out;
}

std::vector<graph::ObjectId> SchemaGuide::StartCandidates(
    graph::GraphView g, const PathQuery& q) const {
  std::vector<TypeId> start_types = StartTypes(g, q);
  std::vector<bool> wanted(program_.NumTypes(), false);
  for (TypeId t : start_types) wanted[static_cast<size_t>(t)] = true;
  std::vector<graph::ObjectId> out;
  for (graph::ObjectId o = 0; o < assignment_.NumObjects(); ++o) {
    for (TypeId t : assignment_.TypesOf(o)) {
      if (wanted[static_cast<size_t>(t)]) {
        out.push_back(o);
        break;
      }
    }
  }
  return out;
}

std::vector<graph::ObjectId> SchemaGuide::Evaluate(graph::GraphView g,
                                                   const PathQuery& q,
                                                   QueryStats* stats) const {
  std::vector<graph::ObjectId> starts = StartCandidates(g, q);
  if (starts.empty()) {
    if (stats != nullptr) *stats = QueryStats{};
    return {};
  }
  return EvaluatePathQuery(g, q, starts, stats);
}

}  // namespace schemex::query
