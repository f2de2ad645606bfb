#include "typing/recast.h"

#include <span>
#include <utility>

namespace schemex::typing {

namespace {

/// Recast's fallback: types each of `stragglers`, in order, with its
/// nearest type against `*tau` as it grows, so a straggler's picture sees
/// the stragglers typed before it. Polls every kGfpCancelPollInterval
/// stragglers. `program` has at least one type.
util::Status AssignNearestTypes(const TypingProgram& program,
                                graph::GraphView g,
                                std::span<const graph::ObjectId> stragglers,
                                TypeAssignment* tau,
                                const ExecOptions& exec) {
  BitSignatureIndex index(program);
  std::vector<BitSignature> type_encs(program.NumTypes());
  for (size_t t = 0; t < program.NumTypes(); ++t) {
    type_encs[t] =
        index.EncodeFrozen(program.type(static_cast<TypeId>(t)).signature);
  }
  for (size_t i = 0; i < stragglers.size(); ++i) {
    if (i % kGfpCancelPollInterval == 0) SCHEMEX_RETURN_IF_ERROR(exec.Poll());
    graph::ObjectId o = stragglers[i];
    tau->Assign(o, NearestTypeIndexed(g, *tau, o, index, type_encs));
  }
  return util::Status::OK();
}

/// Per object: its class's types in `class_types` (an assignment over
/// q.graph's nodes); nothing for atomic objects.
TypeAssignment LiftToObjects(const Quotient& q,
                             const TypeAssignment& class_types) {
  std::vector<std::vector<TypeId>> out(q.class_of.size());
  for (size_t o = 0; o < out.size(); ++o) {
    if (q.class_of[o] == kInvalidType) continue;
    out[o] = class_types.TypesOf(static_cast<graph::ObjectId>(q.class_of[o]));
  }
  return TypeAssignment(std::move(out));
}

}  // namespace

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
  SCHEMEX_RETURN_IF_ERROR(
      AssignNearestTypes(program, g, stragglers, &result.assignment, exec));
  result.num_fallback = stragglers.size();
  return result;
}

util::StatusOr<QuotientRecast> RecastQuotient(
    const TypingProgram& program, graph::GraphView g, const Quotient& q,
    const std::vector<std::vector<TypeId>>& class_homes,
    const RecastOptions& options, const ExecOptions& exec) {
  QuotientRecast r;
  SCHEMEX_ASSIGN_OR_RETURN(r.gfp, ComputeGfp(program, q.graph, nullptr, exec));

  // Homes + exact GFP types, per class.
  const size_t num_classes = q.NumClasses();
  r.types = TypeAssignment(q.graph.NumObjects());
  for (size_t c = 0; c < num_classes; ++c) {
    auto node = static_cast<graph::ObjectId>(c);
    for (TypeId t : class_homes[c]) r.types.Assign(node, t);
    bool exact = false;
    for (size_t t = 0; t < program.NumTypes(); ++t) {
      if (!r.gfp.Contains(static_cast<TypeId>(t), node)) continue;
      exact = true;
      if (options.add_gfp_types) r.types.Assign(node, static_cast<TypeId>(t));
    }
    if (exact) r.num_exact += q.size[c];
  }
  SCHEMEX_RETURN_IF_ERROR(exec.Poll());

  const bool fallback = options.nearest_type_fallback && program.NumTypes() > 0;
  std::vector<graph::ObjectId> stragglers;  // classes
  std::vector<bool> straggler(num_classes, false);
  for (size_t c = 0; c < num_classes; ++c) {
    if (!r.types.TypesOf(static_cast<graph::ObjectId>(c)).empty()) continue;
    if (fallback) {
      stragglers.push_back(static_cast<graph::ObjectId>(c));
      straggler[c] = true;
      r.num_fallback += q.size[c];
    } else {
      r.num_untyped += q.size[c];
    }
  }
  bool adjacent = false;
  for (graph::ObjectId c : stragglers) {
    for (const graph::HalfEdge& e : q.graph.OutEdges(c)) {
      if (e.other != q.AtomicNode() && straggler[e.other]) adjacent = true;
    }
  }

  if (!adjacent) {
    // Each straggler's neighbours keep their types through the fallback,
    // and every member of a class sees the same ones.
    if (!stragglers.empty()) {
      SCHEMEX_RETURN_IF_ERROR(
          AssignNearestTypes(program, q.graph, stragglers, &r.types, exec));
    }
  } else {
    r.per_object_fallback = true;
    TypeAssignment objects = LiftToObjects(q, r.types);
    std::vector<graph::ObjectId> straggler_objects;
    for (graph::ObjectId o = 0; o < q.class_of.size(); ++o) {
      if (q.class_of[o] != kInvalidType &&
          straggler[static_cast<size_t>(q.class_of[o])]) {
        straggler_objects.push_back(o);
      }
    }
    SCHEMEX_RETURN_IF_ERROR(
        AssignNearestTypes(program, g, straggler_objects, &objects, exec));
    bool split = false;
    for (graph::ObjectId o : straggler_objects) {
      const graph::ObjectId first =
          q.first[static_cast<size_t>(q.class_of[o])];
      if (objects.TypesOf(o) != objects.TypesOf(first)) {
        split = true;
        break;
      }
    }
    if (split) {
      r.defect = ComputeDefect(program, g, objects);
      r.objects = std::move(objects);
      return r;
    }
    for (graph::ObjectId c : stragglers) {
      for (TypeId t : objects.TypesOf(q.first[c])) r.types.Assign(c, t);
    }
  }
  r.defect = ComputeQuotientDefect(program, q, r.types);
  return r;
}

RecastResult MaterializeRecast(const Quotient& q, QuotientRecast r) {
  RecastResult out;
  out.num_exact = r.num_exact;
  out.num_fallback = r.num_fallback;
  out.num_untyped = r.num_untyped;
  if (r.objects.has_value()) {
    out.assignment = *std::move(r.objects);
  } else {
    out.assignment = LiftToObjects(q, r.types);
  }
  const size_t num_classes = q.NumClasses();
  std::vector<std::vector<TypeId>> class_gfp(num_classes);
  for (size_t t = 0; t < r.gfp.NumTypes(); ++t) {
    r.gfp.per_type[t].ForEach([&](size_t node) {
      if (node < num_classes) class_gfp[node].push_back(static_cast<TypeId>(t));
    });
  }
  out.gfp.per_type.assign(r.gfp.NumTypes(),
                          util::DenseBitset(q.class_of.size()));
  for (size_t o = 0; o < q.class_of.size(); ++o) {
    if (q.class_of[o] == kInvalidType) continue;
    for (TypeId t : class_gfp[static_cast<size_t>(q.class_of[o])]) {
      out.gfp.per_type[static_cast<size_t>(t)].Set(o);
    }
  }
  return out;
}

}  // namespace schemex::typing
