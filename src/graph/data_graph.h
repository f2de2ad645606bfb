#ifndef SCHEMEX_GRAPH_DATA_GRAPH_H_
#define SCHEMEX_GRAPH_DATA_GRAPH_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "graph/frozen_graph.h"
#include "graph/label.h"
#include "util/status.h"

namespace schemex::graph {

/// The paper's model of semistructured data: a labeled directed graph given
/// by relations link(From, To, Label) and atomic(Obj, Value), and the one
/// mutable representation of it.
///
/// A DataGraph sits over an optional shared, immutable FrozenGraph base.
/// Default-constructed, the base is empty and the graph is a plain
/// builder (generators, importers, tests). Constructed over a snapshot,
/// it is a mutation layer that never writes the base:
///  * objects appended after the base id space keep their kinds, values,
///    names and both adjacency rows in dense arrays indexed by
///    `id - base size`;
///  * a base object whose adjacency a mutation touches gets a
///    materialized copy of its row, looked up by id; untouched base
///    objects answer straight from the base CSR slices;
///  * the label table is a private copy (base labels keep their ids;
///    fresh labels extend it).
///
/// Invariants enforced by the mutating API (paper §2):
///  * atomic objects have no outgoing edges (link/atomic first projections
///    are disjoint);
///  * each atomic object has exactly one value (stored at creation);
///  * between any ordered pair of objects there is at most one edge with a
///    given label (duplicate AddEdge calls return AlreadyExists);
///  * adjacency rows are sorted by (label, other).
///
/// Both outgoing and incoming adjacency are indexed, since the typing
/// language describes objects by incoming as well as outgoing typed links.
///
/// A DataGraph is a value. A copy shares the base and copies only what was
/// appended or touched, which is how the service keeps per-generation
/// workspace snapshots cheap. Freeze() folds base and delta into a fresh
/// FrozenGraph.
class DataGraph {
 public:
  /// An empty graph over an empty base: a builder.
  DataGraph() = default;

  /// An empty delta over `base` (must be non-null).
  explicit DataGraph(std::shared_ptr<const FrozenGraph> base);

  // Copyable and movable; copies share the base and clone the delta.
  DataGraph(const DataGraph&) = default;
  DataGraph& operator=(const DataGraph&) = default;
  DataGraph(DataGraph&&) = default;
  DataGraph& operator=(DataGraph&&) = default;

  // -- Mutators ---------------------------------------------------------

  /// Adds a complex (interior) object and returns its id. `name` is a
  /// debugging/display name; it need not be unique and may be empty.
  ObjectId AddComplex(std::string_view name = "");

  /// Adds an atomic object carrying `value` and returns its id.
  ObjectId AddAtomic(std::string_view value, std::string_view name = "");

  /// Adds edge link(from, to, label). Fails with:
  ///  * InvalidArgument if either id is out of range,
  ///  * FailedPrecondition if `from` is atomic,
  ///  * AlreadyExists if the identical (from, to, label) edge exists.
  util::Status AddEdge(ObjectId from, ObjectId to, LabelId label);

  /// Convenience overload interning `label` by name.
  util::Status AddEdge(ObjectId from, ObjectId to, std::string_view label);

  /// Set-semantics insert for importers: a duplicate (from, to, label)
  /// edge collapses silently (AlreadyExists is the *expected* outcome on
  /// re-walked structures), while the real failure modes — ids out of
  /// range, atomic source — assert in debug builds. Use AddEdge when the
  /// caller can propagate a Status; use MergeEdge when duplicates are
  /// by-design benign.
  void MergeEdge(ObjectId from, ObjectId to, LabelId label);
  void MergeEdge(ObjectId from, ObjectId to, std::string_view label);

  /// Removes edge (from, to, label), base-resident or added, if present;
  /// returns NotFound otherwise (InvalidArgument when an id is out of
  /// range).
  util::Status RemoveEdge(ObjectId from, ObjectId to, LabelId label);

  /// Intern helper: id for `name`, creating it if needed.
  LabelId InternLabel(std::string_view name) { return labels_.Intern(name); }

  // -- Read surface (GraphView-compatible) ------------------------------

  size_t NumObjects() const { return base_objects_ + kind_.size(); }
  size_t NumComplexObjects() const { return num_complex_; }
  size_t NumAtomicObjects() const { return NumObjects() - num_complex_; }
  size_t NumEdges() const { return num_edges_; }

  bool IsAtomic(ObjectId o) const {
    return o < base_objects_ ? base_->IsAtomic(o)
                             : kind_[o - base_objects_] == Kind::kAtomic;
  }
  bool IsComplex(ObjectId o) const { return !IsAtomic(o); }

  /// Value of an atomic object (empty for complex objects). Views into
  /// the base arena or this graph's string store; they stay valid across
  /// later mutations for as long as this graph lives.
  std::string_view Value(ObjectId o) const {
    return o < base_objects_ ? base_->Value(o)
                             : std::string_view(value_[o - base_objects_]);
  }

  /// Display name given at creation (may be empty).
  std::string_view Name(ObjectId o) const {
    return o < base_objects_ ? base_->Name(o)
                             : std::string_view(name_[o - base_objects_]);
  }

  /// Outgoing half-edges of `o`, sorted by (label, other).
  std::span<const HalfEdge> OutEdges(ObjectId o) const {
    if (o >= base_objects_) return out_[o - base_objects_];
    auto it = touched_out_.find(o);
    return it != touched_out_.end() ? std::span<const HalfEdge>(it->second)
                                     : base_->OutEdges(o);
  }

  /// Incoming half-edges of `o`, sorted by (label, other).
  std::span<const HalfEdge> InEdges(ObjectId o) const {
    if (o >= base_objects_) return in_[o - base_objects_];
    auto it = touched_in_.find(o);
    return it != touched_in_.end() ? std::span<const HalfEdge>(it->second)
                                   : base_->InEdges(o);
  }

  /// The label interner shared by all edges of this graph.
  const LabelInterner& labels() const { return labels_; }
  LabelInterner& labels() { return labels_; }

  /// True iff the exact edge exists.
  bool HasEdge(ObjectId from, ObjectId to, LabelId label) const;

  /// Checks the adjacency invariants (ValidateAdjacency in
  /// graph/graph_view.h) and that the label table still extends the
  /// base's. Used by tests and after bulk perturbation.
  util::Status Validate() const;

  /// Approximate heap bytes held by this graph outside its base (appended
  /// objects, touched rows, strings, label table); the shared base is
  /// reported by base()->MemoryUsage(). Comparable to
  /// FrozenGraph::MemoryUsage().
  size_t MemoryUsage() const;

  // -- Delta introspection ----------------------------------------------

  /// The immutable snapshot this graph layers over; null for a builder.
  const std::shared_ptr<const FrozenGraph>& base() const { return base_; }

  size_t NumAddedObjects() const { return kind_.size(); }

  /// Cumulative successful link inserts / deletes (op counts, not net:
  /// adding and then removing an edge counts once on each side).
  size_t NumAddedLinks() const { return links_added_; }
  size_t NumDeletedLinks() const { return links_deleted_; }

  /// Sorted, deduplicated ids of every complex object whose local
  /// picture any mutation may have changed: complex endpoints in the base
  /// of inserted and deleted links, plus every added complex object. This
  /// is the dirty-set seed for incremental Stage 1; it is conservative —
  /// an edge added and later removed still reports its endpoints.
  std::vector<ObjectId> TouchedComplexObjects() const;

 private:
  enum class Kind : uint8_t { kComplex, kAtomic };

  util::Status CheckIds(ObjectId from, ObjectId to) const;

  /// The writable row of `o`: its dense row when `o` was added, else its
  /// touched copy, seeded from the base CSR slice on first touch.
  std::vector<HalfEdge>& MutableOutRow(ObjectId o);
  std::vector<HalfEdge>& MutableInRow(ObjectId o);

  /// Logs `o` when it is a complex base object; added complex objects are
  /// touched by definition.
  void Touch(ObjectId o);

  std::shared_ptr<const FrozenGraph> base_;  // null for a builder
  size_t base_objects_ = 0;                  // base_->NumObjects(), cached
  LabelInterner labels_;

  // Added objects, parallel arrays indexed by (id - base_objects_). The
  // deques give the stored strings stable addresses, so the views
  // Value()/Name() hand out survive later appends.
  std::vector<Kind> kind_;
  std::deque<std::string> value_;  // "" for complex
  std::deque<std::string> name_;
  std::vector<std::vector<HalfEdge>> out_;
  std::vector<std::vector<HalfEdge>> in_;

  // Materialized rows of touched base objects. Only ever looked up by
  // id, never iterated for ordered output.
  std::unordered_map<ObjectId, std::vector<HalfEdge>> touched_out_;
  std::unordered_map<ObjectId, std::vector<HalfEdge>> touched_in_;

  std::vector<ObjectId> touched_log_;  // complex base endpoints, append order
  size_t num_complex_ = 0;
  size_t num_edges_ = 0;
  size_t links_added_ = 0;
  size_t links_deleted_ = 0;
};

}  // namespace schemex::graph

#endif  // SCHEMEX_GRAPH_DATA_GRAPH_H_
