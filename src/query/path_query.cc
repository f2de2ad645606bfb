#include "query/path_query.h"

#include <algorithm>
#include <span>

#include "util/string_util.h"

namespace schemex::query {

namespace {

/// Splits the query on '.' outside of [...] filters and quotes.
util::StatusOr<std::vector<std::string>> SplitSteps(std::string_view text) {
  std::vector<std::string> steps;
  std::string cur;
  bool in_brackets = false, in_quotes = false;
  for (char c : text) {
    if (in_quotes) {
      cur += c;
      if (c == '"') in_quotes = false;
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        cur += c;
        break;
      case '[':
        if (in_brackets) return util::Status::ParseError("nested '['");
        in_brackets = true;
        cur += c;
        break;
      case ']':
        if (!in_brackets) return util::Status::ParseError("stray ']'");
        in_brackets = false;
        cur += c;
        break;
      case '.':
        if (in_brackets) {
          cur += c;
        } else {
          steps.push_back(std::move(cur));
          cur.clear();
        }
        break;
      default:
        cur += c;
    }
  }
  if (in_quotes) return util::Status::ParseError("unterminated quote");
  if (in_brackets) return util::Status::ParseError("unterminated '['");
  steps.push_back(std::move(cur));
  return steps;
}

/// Parses the optional trailing [attr="value"] of one step; returns the
/// step text without it.
util::StatusOr<std::string_view> SplitFilter(
    std::string_view step_text, std::optional<ValueFilter>* filter) {
  size_t open = step_text.find('[');
  if (open == std::string_view::npos) return step_text;
  if (step_text.back() != ']') {
    return util::Status::ParseError("malformed filter");
  }
  std::string_view body = step_text.substr(open + 1,
                                           step_text.size() - open - 2);
  size_t eq = body.find('=');
  if (eq == std::string_view::npos) {
    return util::Status::ParseError("filter needs attr=\"value\"");
  }
  std::string_view attr = util::Trim(body.substr(0, eq));
  std::string_view value = util::Trim(body.substr(eq + 1));
  if (attr.empty() || value.size() < 2 || value.front() != '"' ||
      value.back() != '"') {
    return util::Status::ParseError("filter value must be quoted");
  }
  *filter = ValueFilter{std::string(attr),
                        std::string(value.substr(1, value.size() - 2))};
  return step_text.substr(0, open);
}

}  // namespace

util::StatusOr<PathQuery> ParsePathQuery(std::string_view text) {
  PathQuery q;
  if (util::Trim(text).empty()) {
    return util::Status::ParseError("empty query");
  }
  SCHEMEX_ASSIGN_OR_RETURN(std::vector<std::string> raw_steps,
                           SplitSteps(text));
  for (const std::string& tok : raw_steps) {
    std::string_view t = util::Trim(tok);
    if (t.empty()) return util::Status::ParseError("empty step");
    PathStep step;
    SCHEMEX_ASSIGN_OR_RETURN(std::string_view head,
                             SplitFilter(t, &step.filter));
    head = util::Trim(head);
    if (head.empty()) {
      if (!step.filter.has_value()) {
        return util::Status::ParseError("empty step");
      }
      step.kind = PathStep::Kind::kFilterOnly;
    } else if (head == "*") {
      step.kind = PathStep::Kind::kAnyOne;
    } else if (head == "%") {
      step.kind = PathStep::Kind::kAnyStar;
    } else {
      step.kind = PathStep::Kind::kLabel;
      step.label = std::string(head);
    }
    q.steps.push_back(std::move(step));
  }
  return q;
}

namespace {

util::Status Poll(const CancelHook& check_cancel) {
  return check_cancel ? check_cancel() : util::Status::OK();
}

/// The run of `row` carrying label `l`. Rows are sorted by (label,
/// other), so the run starts at the lower bound and ends at the first
/// edge with another label.
std::span<const graph::HalfEdge> LabelRun(std::span<const graph::HalfEdge> row,
                                          graph::LabelId l) {
  auto lo = std::lower_bound(
      row.begin(), row.end(), l,
      [](const graph::HalfEdge& e, graph::LabelId want) {
        return e.label < want;
      });
  auto hi = lo;
  while (hi != row.end() && hi->label == l) ++hi;
  return {lo, hi};
}

/// Advances `frontier` through one step; `%` computes a reachability
/// closure that includes the frontier itself.
util::Status Advance(graph::GraphView g, const PathStep& step,
                     const CancelHook& check_cancel,
                     util::DenseBitset* frontier, QueryStats* stats) {
  switch (step.kind) {
    case PathStep::Kind::kFilterOnly:
      return util::Status::OK();  // the filter is applied by the caller
    case PathStep::Kind::kLabel:
    case PathStep::Kind::kAnyOne: {
      const bool any = step.kind == PathStep::Kind::kAnyOne;
      const graph::LabelId l =
          any ? graph::kInvalidLabel : g.labels().Find(step.label);
      util::DenseBitset next(g.NumObjects());
      if (any || l != graph::kInvalidLabel) {  // absent label: empty
        frontier->ForEach([&](size_t o) {
          ++stats->objects_visited;
          auto row = g.OutEdges(static_cast<graph::ObjectId>(o));
          for (const graph::HalfEdge& e : any ? row : LabelRun(row, l)) {
            ++stats->edges_scanned;
            next.Set(e.other);
          }
        });
      }
      *frontier = std::move(next);
      return util::Status::OK();
    }
    case PathStep::Kind::kAnyStar: {
      util::DenseBitset& seen = *frontier;
      std::vector<graph::ObjectId> work;
      seen.ForEach(
          [&](size_t o) { work.push_back(static_cast<graph::ObjectId>(o)); });
      for (size_t pops = 1; !work.empty(); ++pops) {
        if (pops % kQueryCancelPollInterval == 0) {
          SCHEMEX_RETURN_IF_ERROR(Poll(check_cancel));
        }
        graph::ObjectId o = work.back();
        work.pop_back();
        ++stats->objects_visited;
        for (const graph::HalfEdge& e : g.OutEdges(o)) {
          ++stats->edges_scanned;
          if (!seen.Test(e.other)) {
            seen.Set(e.other);
            work.push_back(e.other);
          }
        }
      }
      return util::Status::OK();
    }
  }
  return util::Status::OK();
}

/// Keeps the complex objects of `frontier` with an `attr` edge to an
/// atomic holding exactly the filter's value.
void ApplyFilter(graph::GraphView g, const ValueFilter& filter,
                 util::DenseBitset* frontier, QueryStats* stats) {
  const graph::LabelId attr = g.labels().Find(filter.attr);
  util::DenseBitset kept(g.NumObjects());
  if (attr != graph::kInvalidLabel) {
    frontier->ForEach([&](size_t o) {
      ++stats->objects_visited;
      if (g.IsAtomic(static_cast<graph::ObjectId>(o))) return;
      for (const graph::HalfEdge& e :
           LabelRun(g.OutEdges(static_cast<graph::ObjectId>(o)), attr)) {
        ++stats->edges_scanned;
        if (g.IsAtomic(e.other) && g.Value(e.other) == filter.value) {
          kept.Set(o);
          return;
        }
      }
    });
  }
  *frontier = std::move(kept);
}

}  // namespace

util::DenseBitset AllComplexObjects(graph::GraphView g) {
  util::DenseBitset out(g.NumObjects());
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    if (g.IsComplex(o)) out.Set(o);
  }
  return out;
}

util::StatusOr<std::vector<graph::ObjectId>> EvaluateFrom(
    graph::GraphView g, const PathQuery& q, util::DenseBitset frontier,
    const CancelHook& check_cancel, QueryStats* stats) {
  QueryStats local;
  QueryStats* s = stats != nullptr ? stats : &local;
  *s = QueryStats{};
  for (const PathStep& step : q.steps) {
    SCHEMEX_RETURN_IF_ERROR(Poll(check_cancel));
    SCHEMEX_RETURN_IF_ERROR(Advance(g, step, check_cancel, &frontier, s));
    if (step.filter.has_value()) ApplyFilter(g, *step.filter, &frontier, s);
    if (frontier.None()) break;
  }
  std::vector<graph::ObjectId> out;
  frontier.ForEach(
      [&](size_t o) { out.push_back(static_cast<graph::ObjectId>(o)); });
  return out;
}

std::vector<graph::ObjectId> EvaluatePathQuery(
    graph::GraphView g, const PathQuery& q,
    const std::vector<graph::ObjectId>& starts, QueryStats* stats) {
  util::DenseBitset frontier = starts.empty()
                                  ? AllComplexObjects(g)
                                  : util::DenseBitset(g.NumObjects());
  for (graph::ObjectId o : starts) frontier.Set(o);
  // No hook, so the loop cannot fail.
  return EvaluateFrom(g, q, std::move(frontier), nullptr, stats).value();
}

}  // namespace schemex::query
