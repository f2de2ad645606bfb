#ifndef SCHEMEX_GRAPH_FROZEN_GRAPH_H_
#define SCHEMEX_GRAPH_FROZEN_GRAPH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/label.h"
#include "util/status.h"
#include "util/statusor.h"

namespace schemex::graph {

/// Dense integer id of an object (node). Complex and atomic objects share
/// one id space.
using ObjectId = uint32_t;

inline constexpr ObjectId kInvalidObject = static_cast<ObjectId>(-1);

/// One labeled, directed half-edge as seen from some object: the label plus
/// the object at the other end.
struct HalfEdge {
  LabelId label;
  ObjectId other;

  friend bool operator==(const HalfEdge&, const HalfEdge&) = default;
  friend auto operator<=>(const HalfEdge&, const HalfEdge&) = default;
};

class DataGraph;

/// An immutable, cache-friendly snapshot of a graph: the CSR form every
/// DataGraph folds into with Freeze(), and the base a DataGraph layers
/// its mutations over.
///
/// Layout: both adjacency directions are CSR (one offset array plus one
/// flat HalfEdge array each), so an algorithm that scans objects in id
/// order walks a single contiguous edge array instead of chasing one
/// heap allocation per object. Values and display names live in a single
/// character arena addressed by a shared offset table, so a frozen graph
/// performs no per-object string allocations and Value()/Name() return
/// views into the arena.
///
/// Every array is accessed through a read-only view that points into one
/// of two kinds of backing storage, held alive by `backing_`:
///  * heap arrays built by the DataGraph constructor (Freeze()), whether
///    the DataGraph was built from nothing or layered over another
///    snapshot, or
///  * an mmap-ed snapshot file (snapshot::Map()), where the on-disk
///    layout *is* the CSR and nothing is copied at load time.
/// The read API is identical either way; algorithms cannot tell (and do
/// not care) whether the kernel pages the arrays in on demand.
///
/// FrozenGraph is deliberately non-copyable: snapshots are shared via
/// shared_ptr<const FrozenGraph> (see Freeze()), and every instance
/// carries a process-unique id() so sharing is observable — two
/// workspace generations holding the same graph report the same id.
///
/// The read API is DataGraph's; GraphView (graph/graph_view.h) abstracts
/// over both.
class FrozenGraph {
 public:
  FrozenGraph() = default;

  /// Builds the snapshot by reading `g` object by object. O(objects +
  /// edges + value bytes); a layered `g` answers untouched base objects
  /// from its base's CSR slices.
  explicit FrozenGraph(const DataGraph& g);

  // Immutable snapshots are shared, not copied.
  FrozenGraph(const FrozenGraph&) = delete;
  FrozenGraph& operator=(const FrozenGraph&) = delete;
  FrozenGraph(FrozenGraph&&) = default;
  FrozenGraph& operator=(FrozenGraph&&) = default;

  size_t NumObjects() const { return num_objects_; }
  size_t NumComplexObjects() const { return num_complex_; }
  size_t NumAtomicObjects() const { return num_objects_ - num_complex_; }
  size_t NumEdges() const { return num_edges_; }

  bool IsAtomic(ObjectId o) const {
    return (atomic_words_[o >> 6] >> (o & 63)) & 1ULL;
  }
  bool IsComplex(ObjectId o) const { return !IsAtomic(o); }

  /// Value of an atomic object (empty for complex objects); a view into
  /// the arena, valid as long as the FrozenGraph lives.
  std::string_view Value(ObjectId o) const {
    return ArenaSlice(2 * static_cast<size_t>(o));
  }

  /// Display name given at creation (may be empty); arena-backed view.
  std::string_view Name(ObjectId o) const {
    return ArenaSlice(2 * static_cast<size_t>(o) + 1);
  }

  /// Outgoing half-edges of `o`, sorted by (label, other). A slice of the
  /// flat CSR edge array.
  std::span<const HalfEdge> OutEdges(ObjectId o) const {
    return out_edges_.subspan(out_off_[o], out_off_[o + 1] - out_off_[o]);
  }

  /// Incoming half-edges of `o`, sorted by (label, other).
  std::span<const HalfEdge> InEdges(ObjectId o) const {
    return in_edges_.subspan(in_off_[o], in_off_[o + 1] - in_off_[o]);
  }

  const LabelInterner& labels() const { return labels_; }

  /// True iff the exact edge exists (binary search in the CSR row).
  bool HasEdge(ObjectId from, ObjectId to, LabelId label) const;

  /// Checks the CSR layout (array sizes, offset monotonicity and
  /// terminators), then the adjacency invariants every graph shares
  /// (ValidateAdjacency in graph/graph_view.h).
  util::Status Validate() const;

  /// Heap bytes held by this snapshot (CSR arrays + arena + label table).
  /// File-backed bytes of a mapped graph are reported by MappedBytes(),
  /// not here: the kernel pages them in on demand and may evict them.
  size_t MemoryUsage() const;

  /// Bytes of this graph backed by a mapped snapshot file (0 for graphs
  /// frozen with Freeze()).
  size_t MappedBytes() const { return mapped_bytes_; }

  /// Process-unique identity token, assigned at construction and never
  /// reused. Exposed by the service so tests (and operators) can verify
  /// that workspace generations share one graph instead of copying it.
  uint64_t id() const { return id_; }

  /// Read-only views of the raw CSR arrays — the seam the snapshot layer
  /// (src/snapshot/) serializes verbatim. Spans are valid as long as the
  /// FrozenGraph lives.
  ///
  /// Invariants (established by the constructor, demanded by
  /// FromExternal): offsets are monotone with out_off.size() ==
  /// num_objects+1, out_off.back() == out_edges.size(), text_off.size()
  /// == 2*num_objects+1, text_off.back() == arena.size(),
  /// atomic_words.size() == ceil(num_objects/64) with zero tail bits.
  struct Parts {
    std::span<const uint64_t> out_off;        // OWNER: source graph backing_
    std::span<const uint64_t> in_off;         // OWNER: source graph backing_
    std::span<const uint64_t> text_off;       // OWNER: source graph backing_
    std::span<const uint64_t> atomic_words;   // OWNER: source graph backing_
    std::span<const HalfEdge> out_edges;      // OWNER: source graph backing_
    std::span<const HalfEdge> in_edges;       // OWNER: source graph backing_
    std::string_view arena;                   // OWNER: source graph backing_
  };
  Parts parts() const;

  /// Externally assembled CSR arrays (the snapshot loader's input). The
  /// views must stay valid for as long as `backing` is alive; the
  /// constructed graph holds `backing` and therefore the mapping (or the
  /// decoded arenas) through its shared_ptr control block.
  struct External {
    size_t num_objects = 0;
    size_t num_complex = 0;
    size_t num_edges = 0;
    Parts views;
    LabelInterner labels;
    std::shared_ptr<const void> backing;
    size_t owned_bytes = 0;   ///< heap bytes inside `backing` (decoded sections)
    size_t mapped_bytes = 0;  ///< file-backed bytes referenced by the views
  };

  /// Assembles a FrozenGraph around external arrays after structural
  /// validation: view sizes against the counts, offset monotonicity, and
  /// terminator/array-length agreement — O(objects), no per-edge work.
  /// Per-edge endpoint/label bounds are NOT checked here (callers wanting
  /// that run Validate() or the snapshot loader's edge-bounds pass).
  /// Returns InvalidArgument describing the first violated invariant.
  static util::StatusOr<FrozenGraph> FromExternal(External parts);

 private:
  std::string_view ArenaSlice(size_t slot) const {
    return arena_.substr(text_off_[slot], text_off_[slot + 1] - text_off_[slot]);
  }

  /// Heap arrays backing a graph built by Freeze().
  struct OwnedArrays;

  LabelInterner labels_;
  size_t num_objects_ = 0;
  size_t num_complex_ = 0;
  size_t num_edges_ = 0;

  // Read-only views into `backing_` (owned heap arrays or a mapped
  // snapshot). atomic_words_ is a dense bitset, one bit per object,
  // 64 objects per word, tail bits zero.
  std::span<const uint64_t> out_off_;       // OWNER: backing_
  std::span<const uint64_t> in_off_;        // OWNER: backing_
  std::span<const uint64_t> text_off_;      // OWNER: backing_
  std::span<const uint64_t> atomic_words_;  // OWNER: backing_
  std::span<const HalfEdge> out_edges_;     // OWNER: backing_
  std::span<const HalfEdge> in_edges_;      // OWNER: backing_
  std::string_view arena_;                  // OWNER: backing_

  std::shared_ptr<const void> backing_;
  size_t owned_bytes_ = 0;
  size_t mapped_bytes_ = 0;

  uint64_t id_ = 0;
};

/// Folds `g` (built from nothing, or a base plus its delta) into a
/// shareable immutable snapshot. The only fold: a snapshot's bytes
/// depend only on what `g` reads, not on how `g` came to hold it.
std::shared_ptr<const FrozenGraph> Freeze(const DataGraph& g);

}  // namespace schemex::graph

#endif  // SCHEMEX_GRAPH_FROZEN_GRAPH_H_
