#ifndef SCHEMEX_TESTS_GFP_ORACLE_H_
#define SCHEMEX_TESTS_GFP_ORACLE_H_

#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/graph_view.h"
#include "typing/gfp.h"
#include "typing/perfect_typing.h"
#include "typing/refine_internal.h"
#include "util/string_util.h"

namespace schemex::typing {

/// Test oracle for Stage 1 under `stage1: gfp`: the paper's §4.1
/// algorithm, literally.
///  1. build the candidate program Q_D with one type per complex object
///     whose rule is the object's local picture over candidate ids,
///  2. compute the greatest fixpoint M of Q_D (one extent per object, so
///     n^2 bits),
///  3. merge candidate types with equal extents (Remark 4.1), numbered by
///     first occurrence in object order, and assemble one rule per class.
/// PerfectTypingViaGfp (the same merge over one candidate per
/// bisimulation class) must reproduce it bit for bit.
inline util::StatusOr<PerfectTypingResult> CandidateGfpOracle(
    graph::GraphView g) {
  const size_t n = g.NumObjects();

  // Candidate ids: dense over complex objects; candidates double as type
  // targets in Q_D's rules, so map every object to its candidate id.
  std::vector<TypeId> candidate(n, kInvalidType);
  std::vector<graph::ObjectId> complex_objects;
  for (graph::ObjectId o = 0; o < n; ++o) {
    if (g.IsComplex(o)) {
      candidate[o] = static_cast<TypeId>(complex_objects.size());
      complex_objects.push_back(o);
    }
  }

  // Step 1: Q_D — one rule per complex object: its local picture.
  TypingProgram qd;
  for (graph::ObjectId o : complex_objects) {
    std::vector<TypedLink> links;
    for (const graph::HalfEdge& e : g.OutEdges(o)) {
      links.push_back(g.IsAtomic(e.other)
                          ? TypedLink::OutAtomic(e.label)
                          : TypedLink::Out(e.label, candidate[e.other]));
    }
    for (const graph::HalfEdge& e : g.InEdges(o)) {
      links.push_back(TypedLink::In(e.label, candidate[e.other]));
    }
    qd.AddType(util::StringPrintf("cand%u", o),
               TypeSignature::FromLinks(std::move(links)));
  }

  // Step 2: greatest fixpoint of Q_D.
  SCHEMEX_ASSIGN_OR_RETURN(Extents m, ComputeGfp(qd, g));

  // Step 3: group candidate types by extent equality. Hash and popcount
  // every extent once up front; within a hash bucket, candidates compare
  // popcounts before falling back to full word-level equality.
  const size_t num_cand = complex_objects.size();
  std::vector<uint64_t> extent_hash(num_cand);
  std::vector<size_t> extent_count(num_cand);
  for (size_t t = 0; t < num_cand; ++t) {
    extent_hash[t] = m.per_type[t].Hash();
    extent_count[t] = m.per_type[t].Count();
  }
  std::unordered_map<uint64_t, std::vector<size_t>> buckets;
  buckets.reserve(num_cand);
  std::vector<TypeId> class_of_candidate(num_cand, kInvalidType);
  size_t num_classes = 0;
  for (size_t t = 0; t < num_cand; ++t) {
    std::vector<size_t>& bucket = buckets[extent_hash[t]];
    TypeId found = kInvalidType;
    for (size_t other : bucket) {
      if (extent_count[other] == extent_count[t] &&
          m.per_type[other] == m.per_type[t]) {
        found = class_of_candidate[other];
        break;
      }
    }
    if (found == kInvalidType) {
      found = static_cast<TypeId>(num_classes++);
      bucket.push_back(t);
    }
    class_of_candidate[t] = found;
  }

  // Rewrite: class of each object = class of its candidate.
  std::vector<TypeId> class_of(n, kInvalidType);
  for (graph::ObjectId o : complex_objects) {
    class_of[o] = class_of_candidate[static_cast<size_t>(candidate[o])];
  }
  return internal::AssembleRefinementResult(g, class_of, num_classes, "type");
}

}  // namespace schemex::typing

#endif  // SCHEMEX_TESTS_GFP_ORACLE_H_
