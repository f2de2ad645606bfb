#ifndef SCHEMEX_CATALOG_WORKSPACE_H_
#define SCHEMEX_CATALOG_WORKSPACE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/data_graph.h"
#include "graph/frozen_graph.h"
#include "graph/graph_view.h"
#include "typing/assignment.h"
#include "typing/typing_program.h"
#include "util/statusor.h"

// Forward-declared so the catalog does not link against the extraction
// pipeline: the workspace only stores the cache opaquely (shared_ptr of
// an incomplete type is well-formed); the service layer, which already
// depends on extract, is the only producer/consumer.
namespace schemex::extract {
struct ExtractionCache;
}  // namespace schemex::extract

namespace schemex::catalog {

/// One apply_delta batch, recorded so a later re_extract knows which
/// objects' neighbourhoods the accumulated deltas touched. Cleared when
/// an extraction installs a fresh cache (the partition then reflects the
/// mutated graph, so the log is spent).
struct MutationRecord {
  uint64_t generation = 0;
  /// Complex objects whose local picture the batch changed (edge
  /// endpoints and new complex objects), sorted and deduplicated.
  std::vector<graph::ObjectId> touched_complex;
  size_t objects_added = 0;
  size_t links_added = 0;
  size_t links_deleted = 0;
};

/// A persisted extraction workspace: the database, the extracted schema,
/// and the object-to-types assignment. Everything a downstream consumer
/// (query layer, incremental typer, report generator) needs to resume.
///
/// The database is an immutable FrozenGraph held by shared_ptr: freezing
/// happens once at load/import time, and every later generation of the
/// workspace (re-extract, type-commit) shares the same snapshot instead
/// of copying the graph, so swapping a workspace generation costs
/// O(schema), not O(graph).
struct Workspace {
  std::shared_ptr<const graph::FrozenGraph> graph;
  typing::TypingProgram program;     ///< may be empty (no schema yet)
  typing::TypeAssignment assignment; ///< may be empty

  /// Unfolded mutations layered over `graph`, or null when the workspace
  /// is exactly its frozen snapshot. When set, overlay->base() == graph
  /// and every read (queries, typing, extraction) goes through View().
  std::shared_ptr<const graph::DataGraph> overlay;

  /// Monotone mutation counter: 0 for a freshly loaded/imported
  /// workspace, +1 per applied delta batch. Survives compaction (the
  /// graph changes identity; the history does not).
  uint64_t generation = 0;

  /// apply_delta batches since the last extraction, oldest first.
  std::vector<MutationRecord> mutation_log;

  /// Stage-1/Stage-2 state left behind by the last extraction, seed of
  /// incremental re-extraction. Null until an extract succeeds. Opaque
  /// here; produced and consumed by the service layer.
  std::shared_ptr<const extract::ExtractionCache> extraction_cache;

  /// Online-typing tallies since the last extraction: complex objects
  /// that arrived via apply_delta, and how many of them fit an existing
  /// type exactly. Feeds typing::RetypeRecommended.
  size_t delta_arrivals = 0;
  size_t delta_exact = 0;

  /// Freezes `g` and installs it as this workspace's database.
  void SetGraph(const graph::DataGraph& g) { graph = graph::Freeze(g); }

  /// The graph as readers must see it: the overlay when one is set,
  /// otherwise the frozen snapshot.
  graph::GraphView View() const {
    return overlay ? graph::GraphView(*overlay) : graph::GraphView(*graph);
  }

  /// Checks mutual consistency: graph present, overlay (if any) layered
  /// over this graph, assignment sized to the view, type ids within the
  /// program, program labels within the view's table.
  util::Status Validate() const;
};

/// Directory layout written by SaveWorkspace:
///   <dir>/graph.sxg        graph text format (graph/graph_io.h)
///   <dir>/schema.dl        datalog text (typing/program_io.h)
///   <dir>/assignment.tsv   "<object-id>\t<type-id>[,<type-id>...]" rows
///   <dir>/snapshot.bin     binary graph snapshot (docs/snapshot.md)
/// The directory is created if missing; existing files are overwritten.
///
/// Each file goes through util::WriteFileAtomic ("<file>.tmp", then a
/// rename), so every file a concurrent LoadWorkspace opens is whole, and
/// a failed save removes its tmp file and leaves the file it was
/// replacing as it was. The four renames are not one commit: a reader
/// between them, or a save that fails or crashes partway, can leave
/// files from two generations side by side, and LoadWorkspace may load
/// that mix without error (Validate() catches only mismatched sizes and
/// out-of-range ids) until a manifest commits a save as one generation.
///
/// A workspace carrying an overlay is folded first (graph::Freeze of the
/// overlay) so the files on disk always describe one self-contained
/// graph; the caller's workspace is not modified.
util::Status SaveWorkspace(const Workspace& ws, const std::string& dir);

/// The assignment.tsv text SaveWorkspace writes: one
/// "<object-id>\t<type-id>[,<type-id>...]" row per typed object, in
/// object order, with each object's type ids ascending. Untyped objects
/// have no row.
std::string AssignmentToTsv(const typing::TypeAssignment& tau);

/// How LoadWorkspace obtained the graph, for callers that surface it
/// (the service's load_workspace response, the snapshot CLI).
struct LoadInfo {
  /// True when the graph came from mapping <dir>/snapshot.bin.
  bool from_snapshot = false;
  /// Why the snapshot path was not taken: NotFound when there is no
  /// snapshot.bin, the Map/parse error when one exists but was rejected
  /// (corruption, stale label table). OK iff from_snapshot.
  util::Status snapshot_status = util::Status::OK();
};

/// Loads a workspace saved by SaveWorkspace. Missing schema/assignment
/// files load as empty (a graph-only workspace is valid); a missing
/// graph is an error.
///
/// Prefers <dir>/snapshot.bin: the graph is mapped zero-copy (no
/// per-edge parsing) and the schema is parsed against the snapshot's
/// own label table. If the snapshot is absent, corrupt, or older than a
/// schema that now references labels it lacks, the text path
/// (graph.sxg, frozen once after the schema is parsed) is used instead
/// and the reason is reported via `info`. If the text path fails too,
/// its status is returned with the snapshot's rejection appended to the
/// message. Parse errors from either path name the offending file and
/// line.
util::StatusOr<Workspace> LoadWorkspace(const std::string& dir,
                                        LoadInfo* info = nullptr);

}  // namespace schemex::catalog

#endif  // SCHEMEX_CATALOG_WORKSPACE_H_
