#include "query/query_index.h"

#include <utility>

namespace schemex::query {

QueryIndex::QueryIndex(const typing::TypingProgram& program,
                       const typing::TypeAssignment& assignment)
    : guide_(program, assignment), extent_off_(program.NumTypes() + 1, 0) {
  // Counting sort by type: objects are visited in ascending order, so
  // every extent comes out ascending.
  const size_t num_types = program.NumTypes();
  for (graph::ObjectId o = 0; o < assignment.NumObjects(); ++o) {
    for (typing::TypeId t : assignment.TypesOf(o)) {
      if (static_cast<size_t>(t) < num_types) {
        ++extent_off_[static_cast<size_t>(t) + 1];
      }
    }
  }
  for (size_t t = 0; t < num_types; ++t) extent_off_[t + 1] += extent_off_[t];
  extent_ids_.resize(extent_off_[num_types]);
  std::vector<uint32_t> fill(extent_off_.begin(), extent_off_.end() - 1);
  for (graph::ObjectId o = 0; o < assignment.NumObjects(); ++o) {
    for (typing::TypeId t : assignment.TypesOf(o)) {
      if (static_cast<size_t>(t) < num_types) {
        extent_ids_[fill[static_cast<size_t>(t)]++] = o;
      }
    }
  }
}

util::StatusOr<std::vector<graph::ObjectId>> QueryIndex::Evaluate(
    graph::GraphView g, const PathQuery& q, const CancelHook& check_cancel,
    QueryStats* stats) const {
  if (stats != nullptr) *stats = QueryStats{};
  SCHEMEX_ASSIGN_OR_RETURN(std::vector<typing::TypeId> start_types,
                           guide_.StartTypes(g, q, check_cancel));
  util::DenseBitset frontier(g.NumObjects());
  bool any = false;
  for (typing::TypeId t : start_types) {
    for (graph::ObjectId o : Extent(t)) frontier.Set(o);
    any = any || !Extent(t).empty();
  }
  if (!any) return std::vector<graph::ObjectId>{};
  return EvaluateFrom(g, q, std::move(frontier), check_cancel, stats);
}

size_t QueryIndex::MemoryUsage() const {
  return guide_.MemoryUsage() + extent_off_.capacity() * sizeof(uint32_t) +
         extent_ids_.capacity() * sizeof(graph::ObjectId);
}

}  // namespace schemex::query
