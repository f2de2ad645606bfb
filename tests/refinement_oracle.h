#ifndef SCHEMEX_TESTS_REFINEMENT_ORACLE_H_
#define SCHEMEX_TESTS_REFINEMENT_ORACLE_H_

#include <map>
#include <utility>
#include <vector>

#include "graph/graph_view.h"
#include "typing/perfect_typing.h"
#include "typing/refine_internal.h"

namespace schemex::typing {

/// Test oracle for Stage-1 partition refinement: the textbook
/// bisimulation loop with one TypeSignature and one std::map node per
/// object per round. Start with one block of all complex objects and split
/// blocks by (previous block, local picture over previous blocks) until a
/// round stops adding blocks. Blocks are numbered by first occurrence in
/// object order, which is the numbering PerfectTypingViaHashRefinement and
/// IncrementalRefine must reproduce bit for bit.
inline util::StatusOr<PerfectTypingResult> MapRefinementOracle(
    graph::GraphView g) {
  const size_t n = g.NumObjects();
  std::vector<TypeId> block(n, kInvalidType);
  std::vector<graph::ObjectId> complex_objects;
  for (graph::ObjectId o = 0; o < n; ++o) {
    if (g.IsComplex(o)) {
      block[o] = 0;
      complex_objects.push_back(o);
    }
  }
  size_t num_blocks = complex_objects.empty() ? 0 : 1;

  auto picture = [&](graph::ObjectId o) {
    std::vector<TypedLink> links;
    for (const graph::HalfEdge& e : g.OutEdges(o)) {
      links.push_back(g.IsAtomic(e.other) ? TypedLink::OutAtomic(e.label)
                                          : TypedLink::Out(e.label,
                                                           block[e.other]));
    }
    for (const graph::HalfEdge& e : g.InEdges(o)) {
      links.push_back(TypedLink::In(e.label, block[e.other]));
    }
    return TypeSignature::FromLinks(std::move(links));
  };

  for (;;) {
    using Key = std::pair<TypeId, TypeSignature>;
    std::map<Key, TypeId> next_id;
    std::vector<TypeId> next_block(n, kInvalidType);
    for (graph::ObjectId o : complex_objects) {
      Key key{block[o], picture(o)};
      next_block[o] = next_id
                          .try_emplace(std::move(key),
                                       static_cast<TypeId>(next_id.size()))
                          .first->second;
    }
    const size_t next_count = next_id.size();
    block = std::move(next_block);
    if (next_count == num_blocks) break;
    num_blocks = next_count;
  }
  return internal::AssembleRefinementResult(g, block, num_blocks, "type");
}

}  // namespace schemex::typing

#endif  // SCHEMEX_TESTS_REFINEMENT_ORACLE_H_
