#include "typing/incremental.h"

#include <optional>

#include "typing/bit_signature.h"
#include "typing/recast.h"
#include "util/string_util.h"

namespace schemex::typing {

bool SatisfiesUnderAssignment(const TypeSignature& sig, graph::GraphView g,
                              const TypeAssignment& tau, graph::ObjectId o) {
  for (const TypedLink& l : sig.links()) {
    bool ok = false;
    if (l.dir == Direction::kOutgoing) {
      for (const graph::HalfEdge& e : g.OutEdges(o)) {
        if (e.label != l.label) continue;
        if (l.target == kAtomicType ? g.IsAtomic(e.other)
                                    : tau.Has(e.other, l.target)) {
          ok = true;
          break;
        }
      }
    } else {
      for (const graph::HalfEdge& e : g.InEdges(o)) {
        if (e.label != l.label) continue;
        if (tau.Has(e.other, l.target)) {
          ok = true;
          break;
        }
      }
    }
    if (!ok) return false;
  }
  return true;
}

util::StatusOr<std::vector<ArrivalTyping>> TypeArrivals(
    const TypingProgram& program, graph::GraphView g,
    std::span<const graph::ObjectId> arrivals, TypeAssignment* tau) {
  for (graph::ObjectId o : arrivals) {
    if (o >= g.NumObjects()) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "arrival %u out of range (n=%zu)", o, g.NumObjects()));
    }
  }
  tau->Resize(g.NumObjects());
  std::vector<ArrivalTyping> typed;
  if (program.NumTypes() == 0) return typed;

  // The bit kernel over the program is packed on the first misfit, then
  // reused: exact fits never probe distances. Links outside the program
  // universe (e.g. fresh labels on arrivals) ride in EncodeFrozen extras.
  std::optional<BitSignatureIndex> index;
  std::vector<BitSignature> type_encs;
  for (graph::ObjectId o : arrivals) {
    if (!g.IsComplex(o)) continue;
    ArrivalTyping a;
    a.id = o;
    for (size_t t = 0; t < program.NumTypes(); ++t) {
      const TypeId tid = static_cast<TypeId>(t);
      if (SatisfiesUnderAssignment(program.type(tid).signature, g, *tau, o)) {
        a.exact_types.push_back(tid);
      }
    }
    for (TypeId t : a.exact_types) tau->Assign(o, t);
    if (a.exact_types.empty()) {
      if (!index) {
        index.emplace(program);
        type_encs.reserve(program.NumTypes());
        for (const TypeDef& def : program.types()) {
          type_encs.push_back(index->EncodeFrozen(def.signature));
        }
      }
      a.fallback_type = NearestTypeIndexed(g, *tau, o, *index, type_encs,
                                           &a.fallback_distance);
      tau->Assign(o, a.fallback_type);
    }
    typed.push_back(std::move(a));
  }
  return typed;
}

bool RetypeRecommended(size_t num_arrivals, size_t num_fallback,
                       double misfit_fraction, size_t min_arrivals) {
  if (num_arrivals < min_arrivals) return false;
  return static_cast<double>(num_fallback) >
         misfit_fraction * static_cast<double>(num_arrivals);
}

}  // namespace schemex::typing
