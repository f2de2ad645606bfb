#ifndef SCHEMEX_SERVICE_REQUEST_H_
#define SCHEMEX_SERVICE_REQUEST_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "json/json.h"
#include "util/status.h"
#include "util/statusor.h"

namespace schemex::service {

/// The service verbs. Wire names are the snake_case strings accepted in a
/// request's "verb" field ("load_workspace", "extract", ...).
enum class Verb {
  kLoadWorkspace,
  kExtract,
  kType,
  kQuery,
  kStats,
  kListWorkspaces,
  kApplyDelta,
  kReExtract,
};

std::string_view VerbToString(Verb v);
util::StatusOr<Verb> VerbFromString(std::string_view s);

/// load_workspace: read a SaveWorkspace directory into the cache.
struct LoadWorkspaceParams {
  std::string name;  ///< cache key; replaces any existing entry
  std::string dir;   ///< directory previously written by SaveWorkspace
};

/// extract: run the paper's three-stage method on a cached workspace and
/// install the resulting program + assignment back into the cache.
struct ExtractParams {
  std::string workspace;
  /// Target number of types (the paper's k). 0 = pick k automatically by
  /// the §8 knee rule over a sensitivity sweep.
  uint64_t k = 0;
  /// Knee tolerance when k == 0: accept the smallest k whose defect is
  /// within `epsilon` of the best in range (extract/knee.h).
  double epsilon = 1.25;
  /// Knee search range cap when k == 0; must be >= 1 then. It also
  /// bounds the sweep: only k <= max_types are recast. 0 with k == 0 is
  /// InvalidArgument: an uncapped sweep includes the perfect typing at
  /// defect 0, so the knee would always pick it. Fixed-k requests
  /// ignore the field.
  uint64_t max_types = 20;
  bool decompose_roles = false;
  /// Stage-1 algorithm: "refinement" (default) or "gfp".
  std::string stage1 = "refinement";
  /// When non-empty, also persist the updated workspace here (atomic
  /// SaveWorkspace), so a restarted server can load_workspace it back.
  std::string save_dir;
};

/// type: apply a typing program to a cached workspace's graph via the
/// greatest fixpoint (typing/gfp.h) and report the extents.
struct TypeParams {
  std::string workspace;
  /// Datalog text of the program to apply; empty = the workspace's own
  /// program (error if the workspace has none).
  std::string program;
  /// Install the GFP extents as the workspace's assignment (and the
  /// parsed program as its program, when `program` was given).
  bool commit = false;
};

/// query: evaluate a path query (query/path_query.h) on a cached
/// workspace, optionally pruned by the schema guide.
struct QueryParams {
  std::string workspace;
  std::string query;
  /// Prune start candidates through the workspace's schema (ignored when
  /// the workspace has no program).
  bool use_guide = true;
  /// Maximum number of result object names echoed back (the count field
  /// is always exact).
  uint64_t limit = 100;
};

/// One mutation inside an apply_delta batch. `op` selects which of the
/// remaining fields are read:
///   "add_object": kind ("complex" | "atomic"), name, value (atomic only).
///                 The new object's id is the view's NumObjects at the
///                 time the op applies, so ops later in the same batch
///                 can reference it (first new id = current object count,
///                 echoed back in the response's new_ids).
///   "add_link":   from, to, label (label is interned if new).
///   "del_link":   from, to, label (label must exist, as must the edge).
struct DeltaOp {
  std::string op;
  std::string kind = "complex";
  std::string name;
  std::string value;
  uint64_t from = 0;
  uint64_t to = 0;
  std::string label;
};

/// apply_delta: mutate a cached workspace through a DataGraph layered over
/// its frozen snapshot (created on first use, extended thereafter),
/// online-typing new complex objects against the current program. The
/// frozen snapshot is never touched.
struct ApplyDeltaParams {
  std::string workspace;
  std::vector<DeltaOp> ops;
  /// Fold the overlay into a fresh FrozenGraph (graph::Freeze) after
  /// applying the batch; bounds overlay growth at the cost of one pass
  /// over the graph.
  bool compact = false;
};

/// re_extract: incremental re-extraction of a mutated workspace, seeded
/// from the extraction cache the last extract left behind (error if none).
struct ReExtractParams {
  std::string workspace;
  /// Target number of types; 0 = reuse the cached run's k.
  uint64_t k = 0;
  std::string save_dir;
  /// Dirty-set fallback threshold for incremental Stage 1 (fraction of
  /// complex objects; exceeding it falls back to a cold refinement).
  double max_dirty_fraction = 0.25;
};

/// One parsed request. Only the params struct matching `verb` is
/// meaningful; the others stay default-initialized.
struct Request {
  int64_t id = 0;
  Verb verb = Verb::kStats;
  /// Per-request wall-clock budget in seconds; 0 = server default.
  double timeout_s = 0;

  LoadWorkspaceParams load;
  ExtractParams extract;
  TypeParams type;
  QueryParams query;
  ApplyDeltaParams apply_delta;
  ReExtractParams re_extract;
};

/// Wire format:
///   {"id": 7, "verb": "query", "timeout_s": 2.5,
///    "params": {"workspace": "dbg", "query": "project.name"}}
/// Unknown fields are ignored; a missing "params" is an empty object.
/// Fields a verb no longer takes (extract's and re_extract's old
/// "parallelism") are unknown fields, so old clients keep working.
util::StatusOr<Request> ParseRequest(const json::Value& v);

/// Parse a newline-delimited-JSON request line (malformed JSON or a
/// non-object yields ParseError, never a crash).
util::StatusOr<Request> ParseRequestJson(std::string_view line);

/// A response: either `status` is OK and `result` holds the verb-specific
/// payload, or `status` carries the error (result ignored).
struct Response {
  int64_t id = 0;
  util::Status status;
  json::Value result;
};

/// Wire format (one line, no trailing newline):
///   {"id": 7, "ok": true, "result": {...}}
///   {"id": 7, "ok": false, "error": {"code": "NotFound", "message": "..."}}
std::string SerializeResponse(const Response& r);

/// Convenience builders for integer-preserving JSON numbers.
json::Value JsonInt(int64_t n);
json::Value JsonUint(uint64_t n);

}  // namespace schemex::service

#endif  // SCHEMEX_SERVICE_REQUEST_H_
