#include "typing/recast.h"


namespace schemex::typing {

TypeSignature ObjectPicture(graph::GraphView g,
                            const TypeAssignment& tau, graph::ObjectId o) {
  std::vector<TypedLink> links;
  for (const graph::HalfEdge& e : g.OutEdges(o)) {
    if (g.IsAtomic(e.other)) {
      links.push_back(TypedLink::OutAtomic(e.label));
    } else {
      for (TypeId t : tau.TypesOf(e.other)) {
        links.push_back(TypedLink::Out(e.label, t));
      }
    }
  }
  for (const graph::HalfEdge& e : g.InEdges(o)) {
    for (TypeId t : tau.TypesOf(e.other)) {
      links.push_back(TypedLink::In(e.label, t));
    }
  }
  return TypeSignature::FromLinks(std::move(links));
}

TypeId NearestType(const TypingProgram& program, graph::GraphView g,
                   const TypeAssignment& tau, graph::ObjectId o,
                   size_t* out_distance) {
  TypeSignature picture = ObjectPicture(g, tau, o);
  TypeId best = kInvalidType;
  size_t best_d = 0;
  for (size_t t = 0; t < program.NumTypes(); ++t) {
    size_t d = TypeSignature::SymmetricDifferenceSize(
        picture, program.type(static_cast<TypeId>(t)).signature);
    if (best == kInvalidType || d < best_d) {
      best = static_cast<TypeId>(t);
      best_d = d;
    }
  }
  if (out_distance != nullptr) *out_distance = best_d;
  return best;
}

TypeId NearestTypeIndexed(graph::GraphView g, const TypeAssignment& tau,
                          graph::ObjectId o, const BitSignatureIndex& index,
                          const std::vector<BitSignature>& type_encs,
                          size_t* out_distance) {
  BitSignature picture = index.EncodeFrozen(ObjectPicture(g, tau, o));
  TypeId best = kInvalidType;
  size_t best_d = 0;
  for (size_t t = 0; t < type_encs.size(); ++t) {
    size_t d = BitSignatureIndex::Distance(picture, type_encs[t]);
    if (best == kInvalidType || d < best_d) {
      best = static_cast<TypeId>(t);
      best_d = d;
    }
  }
  if (out_distance != nullptr) *out_distance = best_d;
  return best;
}

util::StatusOr<RecastResult> Recast(
    const TypingProgram& program, graph::GraphView g,
    const std::vector<std::vector<TypeId>>& homes,
    const RecastOptions& options, const ExecOptions& exec) {
  RecastResult result;
  SCHEMEX_ASSIGN_OR_RETURN(result.gfp, ComputeGfp(program, g, nullptr, exec));

  const size_t num_objects = g.NumObjects();
  result.assignment = TypeAssignment(num_objects);

  // Homes + exact GFP types.
  for (size_t i = 0; i < num_objects; ++i) {
    auto o = static_cast<graph::ObjectId>(i);
    if (i < homes.size()) {
      for (TypeId t : homes[i]) result.assignment.Assign(o, t);
    }
    if (!g.IsComplex(o)) continue;
    bool exact = false;
    for (size_t t = 0; t < program.NumTypes(); ++t) {
      if (result.gfp.Contains(static_cast<TypeId>(t), o)) {
        exact = true;
        if (options.add_gfp_types) {
          result.assignment.Assign(o, static_cast<TypeId>(t));
        }
      }
    }
    if (exact) ++result.num_exact;
  }
  SCHEMEX_RETURN_IF_ERROR(exec.Poll());

  // Fallback pass, in object order against the assignment built so far:
  // a straggler's picture sees its neighbors' final types, including
  // those of stragglers typed earlier in this pass.
  const bool fallback = options.nearest_type_fallback && program.NumTypes() > 0;
  std::vector<graph::ObjectId> stragglers;
  for (size_t i = 0; i < num_objects; ++i) {
    auto o = static_cast<graph::ObjectId>(i);
    if (!g.IsComplex(o)) continue;
    if (!result.assignment.TypesOf(o).empty()) continue;
    if (fallback) {
      stragglers.push_back(o);
    } else {
      ++result.num_untyped;
    }
  }
  if (stragglers.empty()) return result;

  BitSignatureIndex index(program);
  std::vector<BitSignature> type_encs(program.NumTypes());
  for (size_t t = 0; t < program.NumTypes(); ++t) {
    type_encs[t] =
        index.EncodeFrozen(program.type(static_cast<TypeId>(t)).signature);
  }
  for (size_t i = 0; i < stragglers.size(); ++i) {
    if (i % kGfpCancelPollInterval == 0) SCHEMEX_RETURN_IF_ERROR(exec.Poll());
    graph::ObjectId o = stragglers[i];
    result.assignment.Assign(
        o, NearestTypeIndexed(g, result.assignment, o, index, type_encs));
    ++result.num_fallback;
  }
  return result;
}

}  // namespace schemex::typing
