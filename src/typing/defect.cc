#include "typing/defect.h"

#include <algorithm>
#include <set>

#include "util/string_util.h"

namespace schemex::typing {

namespace {

/// Smallest-id member of each type under `tau`, or kInvalidObject.
std::vector<graph::ObjectId> CanonicalMembers(const TypingProgram& program,
                                              const TypeAssignment& tau) {
  std::vector<graph::ObjectId> member(program.NumTypes(),
                                      graph::kInvalidObject);
  for (graph::ObjectId o = 0; o < tau.NumObjects(); ++o) {
    for (TypeId t : tau.TypesOf(o)) {
      if (member[static_cast<size_t>(t)] == graph::kInvalidObject) {
        member[static_cast<size_t>(t)] = o;
      }
    }
  }
  return member;
}

graph::ObjectId SmallestAtomic(graph::GraphView g) {
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    if (g.IsAtomic(o)) return o;
  }
  return graph::kInvalidObject;
}

/// True iff an edge labelled `label` from an object typed `from_types` to
/// one typed `to_types` (an atomic one when `to_atomic`) is used: some
/// c in from_types has ->label^{c'} for a c' in to_types (->label^0 when
/// atomic), or such a c' has <-label^{c}.
bool EdgeUsed(const TypingProgram& program,
              const std::vector<TypeId>& from_types, graph::LabelId label,
              bool to_atomic, const std::vector<TypeId>& to_types) {
  for (TypeId c : from_types) {
    const TypeSignature& sig = program.type(c).signature;
    if (to_atomic) {
      if (sig.Contains(TypedLink::OutAtomic(label))) return true;
      continue;
    }
    for (TypeId c2 : to_types) {
      if (sig.Contains(TypedLink::Out(label, c2)) ||
          program.type(c2).signature.Contains(TypedLink::In(label, c))) {
        return true;
      }
    }
  }
  return false;
}

/// A typed link of one of o's types that o's edges do not witness, and
/// the object the deficit invents the missing fact against: the fact is
/// (o, witness, label) when outgoing, (witness, o, label) when incoming.
struct UnwitnessedLink {
  Direction dir;
  graph::ObjectId witness;
  graph::LabelId label;

  friend bool operator==(const UnwitnessedLink&,
                         const UnwitnessedLink&) = default;
  friend auto operator<=>(const UnwitnessedLink&,
                          const UnwitnessedLink&) = default;
};

/// Appends o's unwitnessed links under `tau` on `g`: witnesses are
/// `member[target]`, or `atomic_witness` for ->l^0.
void AppendUnwitnessedLinks(const TypingProgram& program, graph::GraphView g,
                            const TypeAssignment& tau, graph::ObjectId o,
                            const std::vector<graph::ObjectId>& member,
                            graph::ObjectId atomic_witness,
                            std::vector<UnwitnessedLink>* out) {
  for (TypeId t : tau.TypesOf(o)) {
    for (const TypedLink& l : program.type(t).signature.links()) {
      bool witnessed = false;
      if (l.dir == Direction::kOutgoing) {
        for (const graph::HalfEdge& e : g.OutEdges(o)) {
          if (e.label != l.label) continue;
          if (l.target == kAtomicType ? g.IsAtomic(e.other)
                                      : tau.Has(e.other, l.target)) {
            witnessed = true;
            break;
          }
        }
      } else {
        for (const graph::HalfEdge& e : g.InEdges(o)) {
          if (e.label != l.label) continue;
          if (tau.Has(e.other, l.target)) {
            witnessed = true;
            break;
          }
        }
      }
      if (witnessed) continue;
      out->push_back(UnwitnessedLink{
          l.dir,
          l.target == kAtomicType ? atomic_witness
                                  : member[static_cast<size_t>(l.target)],
          l.label});
    }
  }
}

}  // namespace

std::string DefectReport::ToString() const {
  return util::StringPrintf("defect=%zu (excess=%zu, deficit=%zu)", defect(),
                            excess, deficit);
}

size_t ComputeExcess(const TypingProgram& program, graph::GraphView g,
                     const TypeAssignment& tau, bool collect_facts,
                     DefectReport* report) {
  size_t excess = 0;
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    for (const graph::HalfEdge& e : g.OutEdges(o)) {
      const bool to_atomic = g.IsAtomic(e.other);
      if (EdgeUsed(program, tau.TypesOf(o), e.label, to_atomic,
                   tau.TypesOf(e.other))) {
        continue;
      }
      ++excess;
      if (collect_facts && report != nullptr) {
        report->excess_edges.push_back(EdgeFact{o, e.other, e.label});
      }
    }
  }
  if (report != nullptr) report->excess = excess;
  return excess;
}

size_t ComputeDeficit(const TypingProgram& program, graph::GraphView g,
                      const TypeAssignment& tau, bool collect_facts,
                      DefectReport* report) {
  std::vector<graph::ObjectId> member = CanonicalMembers(program, tau);
  graph::ObjectId atomic_witness = SmallestAtomic(g);

  std::set<EdgeFact> invented;
  std::vector<UnwitnessedLink> links;
  for (graph::ObjectId o = 0; o < tau.NumObjects(); ++o) {
    links.clear();
    AppendUnwitnessedLinks(program, g, tau, o, member, atomic_witness,
                           &links);
    for (const UnwitnessedLink& l : links) {
      invented.insert(l.dir == Direction::kOutgoing
                          ? EdgeFact{o, l.witness, l.label}
                          : EdgeFact{l.witness, o, l.label});
    }
  }
  if (report != nullptr) {
    report->deficit = invented.size();
    if (collect_facts) {
      report->invented_edges.assign(invented.begin(), invented.end());
    }
  }
  return invented.size();
}

DefectReport ComputeDefect(const TypingProgram& program,
                           graph::GraphView g,
                           const TypeAssignment& tau, bool collect_facts) {
  DefectReport report;
  ComputeExcess(program, g, tau, collect_facts, &report);
  ComputeDeficit(program, g, tau, collect_facts, &report);
  return report;
}

DefectReport ComputeQuotientDefect(const TypingProgram& program,
                                   const Quotient& q,
                                   const TypeAssignment& class_types) {
  DefectReport report;
  const size_t num_classes = q.NumClasses();
  size_t triple = 0;  // CSR index of the class's out-edges
  for (graph::ObjectId c = 0; c < num_classes; ++c) {
    for (const graph::HalfEdge& e : q.graph.OutEdges(c)) {
      if (!EdgeUsed(program, class_types.TypesOf(c), e.label,
                    q.graph.IsAtomic(e.other),
                    class_types.TypesOf(e.other))) {
        report.excess += q.count[triple];
      }
      ++triple;
    }
  }

  // Canonical members over the lifted assignment: a type's smallest-id
  // member is the first member of one of its classes.
  std::vector<graph::ObjectId> member(program.NumTypes(),
                                      graph::kInvalidObject);
  for (size_t c = 0; c < num_classes; ++c) {
    for (TypeId t : class_types.TypesOf(static_cast<graph::ObjectId>(c))) {
      member[static_cast<size_t>(t)] =
          std::min(member[static_cast<size_t>(t)], q.first[c]);
    }
  }
  std::vector<bool> canonical(num_classes, false);
  for (graph::ObjectId m : member) {
    if (m != graph::kInvalidObject) {
      canonical[static_cast<size_t>(q.class_of[m])] = true;
    }
  }

  // Every member of c invents the same distinct (direction, witness,
  // label) links; only the canonical classes' are kept for the overlap.
  std::vector<std::vector<UnwitnessedLink>> kept(num_classes);
  std::vector<UnwitnessedLink> links;
  for (size_t c = 0; c < num_classes; ++c) {
    links.clear();
    AppendUnwitnessedLinks(program, q.graph, class_types,
                           static_cast<graph::ObjectId>(c), member,
                           q.smallest_atomic, &links);
    std::sort(links.begin(), links.end());
    links.erase(std::unique(links.begin(), links.end()), links.end());
    report.deficit += static_cast<size_t>(q.size[c]) * links.size();
    if (canonical[c]) kept[c] = links;
  }

  // An out-fact (o1, w, l) of canonical o1 is also w's in-fact when w's
  // class invents (o1, l) incoming: counted twice above, once here.
  for (size_t c1 = 0; c1 < num_classes; ++c1) {
    if (!canonical[c1]) continue;
    const graph::ObjectId o1 = q.first[c1];
    for (const UnwitnessedLink& l : kept[c1]) {
      if (l.dir != Direction::kOutgoing || l.witness == graph::kInvalidObject ||
          q.class_of[l.witness] == kInvalidType) {
        continue;
      }
      const std::vector<UnwitnessedLink>& in =
          kept[static_cast<size_t>(q.class_of[l.witness])];
      if (std::binary_search(
              in.begin(), in.end(),
              UnwitnessedLink{Direction::kIncoming, o1, l.label})) {
        --report.deficit;
      }
    }
  }
  return report;
}

TypeAssignment ExtentsToAssignment(const Extents& m) {
  size_t n = m.per_type.empty() ? 0 : m.per_type[0].size();
  TypeAssignment tau(n);
  for (size_t t = 0; t < m.per_type.size(); ++t) {
    m.per_type[t].ForEach([&](size_t o) {
      tau.Assign(static_cast<graph::ObjectId>(o), static_cast<TypeId>(t));
    });
  }
  return tau;
}

}  // namespace schemex::typing
