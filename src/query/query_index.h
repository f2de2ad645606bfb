#ifndef SCHEMEX_QUERY_QUERY_INDEX_H_
#define SCHEMEX_QUERY_QUERY_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph_view.h"
#include "query/path_query.h"
#include "query/schema_guide.h"
#include "typing/assignment.h"
#include "typing/typing_program.h"
#include "util/statusor.h"

namespace schemex::query {

/// The read index behind schema-guided queries, built once per published
/// workspace generation.
///
/// It holds the guide's schema edges (SchemaGuide::StartTypes decides
/// which types can start a query) and every type's extent as one CSR
/// array of ascending object ids. A guided query's start frontier is then
/// the union of its start types' extents: it costs what it selects, not a
/// scan of every object's type list (SchemaGuide::StartCandidates).
///
/// Immutable once built, so concurrent queries share one instance
/// without locking. It borrows `program` and `assignment`: both must
/// outlive the index and stay unchanged (the service keeps the index
/// beside the workspace generation it was built from).
class QueryIndex {
 public:
  QueryIndex(const typing::TypingProgram& program,
             const typing::TypeAssignment& assignment);

  QueryIndex(const QueryIndex&) = delete;
  QueryIndex& operator=(const QueryIndex&) = delete;

  /// Objects assigned to `t`, ascending.
  std::span<const graph::ObjectId> Extent(typing::TypeId t) const {
    const size_t i = static_cast<size_t>(t);
    return std::span<const graph::ObjectId>(extent_ids_)
        .subspan(extent_off_[i], extent_off_[i + 1] - extent_off_[i]);
  }

  /// Guided evaluation: the same result as SchemaGuide::Evaluate, and
  /// empty (not every complex object) when no type can start `q`.
  /// `check_cancel` is polled as EvaluateFrom and the cancellable
  /// StartTypes describe; its failure is returned verbatim.
  util::StatusOr<std::vector<graph::ObjectId>> Evaluate(
      graph::GraphView g, const PathQuery& q,
      const CancelHook& check_cancel = nullptr,
      QueryStats* stats = nullptr) const;

  /// Heap bytes of the extents and the schema edges.
  size_t MemoryUsage() const;

 private:
  SchemaGuide guide_;
  std::vector<uint32_t> extent_off_;          ///< NumTypes() + 1 offsets
  std::vector<graph::ObjectId> extent_ids_;  ///< extents, type by type
};

}  // namespace schemex::query

#endif  // SCHEMEX_QUERY_QUERY_INDEX_H_
