#ifndef SCHEMEX_QUERY_PATH_QUERY_H_
#define SCHEMEX_QUERY_PATH_QUERY_H_

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph_view.h"
#include "util/bitset.h"
#include "util/statusor.h"

namespace schemex::query {

/// A tiny path-expression language over the paper's data model — the
/// kind of query the paper's introduction wants a schema for ("query
/// formulation is facilitated by ... using existing structure"):
///
///   author.name                follow `author` then `name`
///   *.name                     any one label, then `name`
///   author.%                   `author` then zero-or-more labels
///   [name="Gates"].email       filter the start set by an atomic value,
///                              then follow `email`
///   member[dept="cs"].phone    traverse, keep targets whose `dept` is cs
///
/// Steps are separated by '.'; a step is a label, '*' (exactly one edge,
/// any label), '%' (zero or more edges), or a bare filter. Any step may
/// carry a `[attr="value"]` filter: after traversal, only objects with
/// an `attr` edge to an atomic holding exactly `value` survive. A query
/// evaluates from a set of start objects (default: every complex object)
/// to the set of objects reachable along a matching path.
struct ValueFilter {
  std::string attr;
  std::string value;

  friend bool operator==(const ValueFilter&, const ValueFilter&) = default;
};

struct PathStep {
  enum class Kind { kLabel, kAnyOne, kAnyStar, kFilterOnly };
  Kind kind = Kind::kLabel;
  std::string label;  // kLabel only
  std::optional<ValueFilter> filter;

  friend bool operator==(const PathStep&, const PathStep&) = default;
};

struct PathQuery {
  std::vector<PathStep> steps;
};

/// Parses the dotted syntax. Fails on empty steps or empty input.
util::StatusOr<PathQuery> ParsePathQuery(std::string_view text);

/// Evaluation counters, for the bench comparing evaluators.
/// `edges_scanned` counts only the edges of the stepped (or filtered)
/// label's run in each adjacency row, plus full rows for `*` and `%`.
struct QueryStats {
  size_t edges_scanned = 0;
  size_t objects_visited = 0;
};

/// Cooperative cancellation hook (null = never cancel); a non-OK status
/// aborts the evaluation and is returned verbatim.
using CancelHook = std::function<util::Status()>;

/// How often (in pops) a `%` closure polls its CancelHook. Every step
/// boundary polls too.
inline constexpr size_t kQueryCancelPollInterval = 4096;

/// Every complex object of `g`: the start frontier of an unguided query.
util::DenseBitset AllComplexObjects(graph::GraphView g);

/// The step loop behind every evaluator: advances `frontier` (sized
/// g.NumObjects()) through `q`'s steps and returns the sorted set of end
/// objects. Label steps and `[attr="v"]` filters walk only the label's
/// run of each adjacency row, found with lower_bound (every GraphView
/// backing keeps rows sorted by (label, other)); `*` and `%` walk full
/// rows. `check_cancel` is polled between steps and every
/// kQueryCancelPollInterval pops inside a `%` closure.
util::StatusOr<std::vector<graph::ObjectId>> EvaluateFrom(
    graph::GraphView g, const PathQuery& q, util::DenseBitset frontier,
    const CancelHook& check_cancel, QueryStats* stats = nullptr);

/// Evaluates `q` starting from `starts` (all complex objects when empty),
/// returning the sorted set of reachable end objects. Never cancels.
std::vector<graph::ObjectId> EvaluatePathQuery(
    graph::GraphView g, const PathQuery& q,
    const std::vector<graph::ObjectId>& starts = {},
    QueryStats* stats = nullptr);

}  // namespace schemex::query

#endif  // SCHEMEX_QUERY_PATH_QUERY_H_
