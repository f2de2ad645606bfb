#include "service/server.h"

#include <algorithm>
#include <atomic>
#include <future>
#include <mutex>
#include <optional>
#include <set>
#include <string_view>
#include <utility>

#include "extract/extractor.h"
#include "extract/incremental_extract.h"
#include "extract/knee.h"
#include "graph/data_graph.h"
#include "query/path_query.h"
#include "query/query_index.h"
#include "snapshot/mapped_file.h"
#include "typing/defect.h"
#include "typing/gfp.h"
#include "typing/incremental.h"
#include "typing/program_io.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace schemex::service {

namespace {

using json::Value;

double SecondsSince(std::chrono::steady_clock::time_point t0,
                    std::chrono::steady_clock::time_point now) {
  return std::chrono::duration<double>(now - t0).count();
}

/// Cumulative online-typing tallies since the last extraction, including
/// the §6 "re-extract now?" recommendation.
Value MisfitFields(const catalog::Workspace& ws) {
  const size_t fallback = ws.delta_arrivals - ws.delta_exact;
  std::map<std::string, Value> m;
  m["arrivals"] = JsonUint(ws.delta_arrivals);
  m["exact"] = JsonUint(ws.delta_exact);
  m["fallback"] = JsonUint(fallback);
  m["misfit_fraction"] = Value::Number(
      ws.delta_arrivals == 0
          ? 0.0
          : static_cast<double>(fallback) /
                static_cast<double>(ws.delta_arrivals));
  m["retype_recommended"] =
      Value::Bool(typing::RetypeRecommended(ws.delta_arrivals, fallback));
  return Value::Object(std::move(m));
}

std::map<std::string, Value> WorkspaceSummaryFields(
    const std::string& name, const catalog::Workspace& ws) {
  // Counts reflect the workspace as readers see it — overlay included.
  graph::GraphView view = ws.View();
  std::map<std::string, Value> f;
  f["name"] = Value::String(name);
  f["objects"] = JsonUint(view.NumObjects());
  f["complex_objects"] = JsonUint(view.NumComplexObjects());
  f["atomic_objects"] = JsonUint(view.NumAtomicObjects());
  f["edges"] = JsonUint(view.NumEdges());
  f["num_types"] = JsonUint(ws.program.NumTypes());
  f["typed_objects"] = JsonUint(ws.assignment.NumTypedObjects());
  // Identity + footprint of the frozen snapshot. Two generations of the
  // same workspace report the same graph_id when (and only when) they
  // share the same FrozenGraph instance.
  f["graph_id"] = JsonUint(ws.graph->id());
  f["graph_bytes"] = JsonUint(ws.graph->MemoryUsage());
  f["generation"] = JsonUint(ws.generation);
  if (ws.overlay != nullptr) {
    std::map<std::string, Value> d;
    d["added_objects"] = JsonUint(ws.overlay->NumAddedObjects());
    d["added_links"] = JsonUint(ws.overlay->NumAddedLinks());
    d["deleted_links"] = JsonUint(ws.overlay->NumDeletedLinks());
    d["touched_complex"] =
        JsonUint(ws.overlay->TouchedComplexObjects().size());
    d["overlay_bytes"] = JsonUint(ws.overlay->MemoryUsage());
    f["overlay"] = Value::Object(std::move(d));
  }
  f["retype_recommended"] = Value::Bool(typing::RetypeRecommended(
      ws.delta_arrivals, ws.delta_arrivals - ws.delta_exact));
  return f;
}

Value WorkspaceSummary(const std::string& name, const catalog::Workspace& ws) {
  return Value::Object(WorkspaceSummaryFields(name, ws));
}

/// The response fields extract and re_extract share: type counts, the
/// defect, recast tallies with how Stage 3 ran, and per-stage wall time,
/// plus the knee sweep (`sweep` set: auto-k) and the save (`save_ms`
/// set). The times also feed the per-stage histograms (extract.stage1,
/// ..., extract.sweep, extract.save) that `stats` reports.
void AddExtractionFields(const extract::ExtractionResult& result,
                         const extract::KneeExtraction* sweep,
                         std::optional<double> save_ms,
                         MetricsRegistry* metrics,
                         std::map<std::string, Value>* f) {
  (*f)["num_perfect_types"] = JsonUint(result.num_perfect_types);
  (*f)["num_final_types"] = JsonUint(result.num_final_types);
  {
    std::map<std::string, Value> d;
    d["excess"] = JsonUint(result.defect.excess);
    d["deficit"] = JsonUint(result.defect.deficit);
    d["defect"] = JsonUint(result.defect.defect());
    (*f)["defect"] = Value::Object(std::move(d));
  }
  {
    std::map<std::string, Value> r;
    r["exact"] = JsonUint(result.recast.num_exact);
    r["fallback"] = JsonUint(result.recast.num_fallback);
    r["untyped"] = JsonUint(result.recast.num_untyped);
    r["classes"] = JsonUint(result.quotient_classes);
    r["triples"] = JsonUint(result.quotient_triples);
    r["per_object_fallback"] = Value::Bool(result.per_object_fallback);
    (*f)["recast"] = Value::Object(std::move(r));
  }
  const extract::StageTimings& t = result.timings;
  std::map<std::string, Value> tf;
  tf["stage1_ms"] = Value::Number(t.stage1_ms);
  tf["cluster_ms"] = Value::Number(t.cluster_ms);
  tf["recast_ms"] = Value::Number(t.recast_ms);
  tf["total_ms"] = Value::Number(t.total_ms);
  if (sweep != nullptr) {
    tf["sweep_ms"] = Value::Number(t.sweep_ms);
    (*f)["sweep_points"] = JsonUint(sweep->points.size());
    (*f)["sweep_per_object_points"] = JsonUint(sweep->per_object_points);
    metrics->Record("extract.sweep", t.sweep_ms, /*ok=*/true,
                    /*timeout=*/false);
  }
  if (save_ms.has_value()) {
    tf["save_ms"] = Value::Number(*save_ms);
    metrics->Record("extract.save", *save_ms, /*ok=*/true,
                    /*timeout=*/false);
  }
  (*f)["timings"] = Value::Object(std::move(tf));
  metrics->Record("extract.stage1", t.stage1_ms, /*ok=*/true,
                  /*timeout=*/false);
  metrics->Record("extract.cluster", t.cluster_ms, /*ok=*/true,
                  /*timeout=*/false);
  metrics->Record("extract.recast", t.recast_ms, /*ok=*/true,
                  /*timeout=*/false);
}

/// The generation extract and re_extract commit over `current`: the
/// schema and assignment of `result` (run with `opt`) over the shared
/// graph, so the swap is O(schema); the cache a later re_extract starts
/// from; and a spent mutation log. With `save_dir` set it is saved there,
/// taking `*save_ms`.
util::StatusOr<catalog::Workspace> CommitExtraction(
    const catalog::Workspace& current, const extract::ExtractionResult& result,
    const extract::ExtractorOptions& opt, const std::string& save_dir,
    std::optional<double>* save_ms) {
  catalog::Workspace next = current;
  next.program = result.final_program;
  next.assignment = result.recast.assignment;
  next.extraction_cache = std::make_shared<const extract::ExtractionCache>(
      extract::MakeExtractionCache(result, opt));
  next.mutation_log.clear();
  next.delta_arrivals = 0;
  next.delta_exact = 0;
  SCHEMEX_RETURN_IF_ERROR(next.Validate());
  if (!save_dir.empty()) {
    util::WallTimer save_timer;
    SCHEMEX_RETURN_IF_ERROR(catalog::SaveWorkspace(next, save_dir));
    *save_ms = save_timer.ElapsedMillis();
  }
  return next;
}

constexpr auto kNoDeadline = std::chrono::steady_clock::time_point::max();

/// The instant a request that started at `start` with a budget of
/// `timeout_s` seconds must be answered by. No budget (0) and a budget
/// too long for the nanosecond steady clock to represent past `start`
/// both mean kNoDeadline; the one-second margin absorbs the rounding of
/// double seconds to nanoseconds.
std::chrono::steady_clock::time_point DeadlineAfter(
    std::chrono::steady_clock::time_point start, double timeout_s) {
  const double headroom_s =
      std::chrono::duration<double>(kNoDeadline - start).count() - 1.0;
  if (timeout_s <= 0 || timeout_s >= headroom_s) return kNoDeadline;
  return start +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(timeout_s));
}

/// Turns an absolute deadline into a cooperative-cancellation hook for
/// the extract pipeline or the query step loop (`what` names it in the
/// error); kNoDeadline disables polling entirely.
std::function<util::Status()> DeadlineHook(
    std::chrono::steady_clock::time_point deadline, const char* what) {
  if (deadline == kNoDeadline) return nullptr;
  return [deadline, what]() -> util::Status {
    auto now = std::chrono::steady_clock::now();
    if (now < deadline) return util::Status::OK();
    return util::Status::DeadlineExceeded(util::StringPrintf(
        "%s exceeded its budget (%.3fs past the deadline)", what,
        std::chrono::duration<double>(now - deadline).count()));
  };
}

}  // namespace

/// The index lives beside the workspace and not inside
/// catalog::Workspace, so the copy a writer makes to build the next
/// generation never carries a stale index.
struct Server::Generation {
  explicit Generation(catalog::Workspace w) : ws(std::move(w)) {}

  const catalog::Workspace ws;
  mutable std::once_flag index_once;
  /// Set once under index_once; borrows ws.program and ws.assignment.
  mutable std::unique_ptr<const query::QueryIndex> index;
};

Server::Server(const ServerOptions& options)
    : options_(options),
      pool_(std::make_unique<util::ThreadPool>(options.num_threads)) {}

Server::~Server() { pool_->Shutdown(); }

double Server::EffectiveTimeout(const Request& req) const {
  return req.timeout_s > 0 ? req.timeout_s : options_.default_timeout_s;
}

Response Server::Execute(const Request& req, Clock::time_point arrival,
                         double timeout_s) {
  Response resp;
  resp.id = req.id;
  const double queued_s = SecondsSince(arrival, Clock::now());
  if (timeout_s > 0 && queued_s > timeout_s) {
    resp.status = util::Status::DeadlineExceeded(util::StringPrintf(
        "request spent %.3fs queued, budget %.3fs", queued_s, timeout_s));
    return resp;
  }
  auto result = Dispatch(req, DeadlineAfter(arrival, timeout_s));
  if (result.ok()) {
    resp.result = *std::move(result);
  } else {
    resp.status = result.status();
  }
  return resp;
}

void Server::RecordOutcome(const Request& req, double latency_ms,
                           const util::Status& status) {
  metrics_.Record(std::string(VerbToString(req.verb)), latency_ms,
                  status.ok(),
                  status.code() == util::StatusCode::kDeadlineExceeded);
}

void Server::HandleAsync(Request req, std::function<void(Response)> done) {
  const Clock::time_point arrival = Clock::now();
  const double timeout_s = EffectiveTimeout(req);
  pool_->Submit([this, req = std::move(req), done = std::move(done), arrival,
                 timeout_s]() {
    Response resp = Execute(req, arrival, timeout_s);
    RecordOutcome(req, SecondsSince(arrival, Clock::now()) * 1e3,
                  resp.status);
    done(resp);
  });
}

Response Server::Handle(const Request& req) {
  const Clock::time_point arrival = Clock::now();
  const double timeout_s = EffectiveTimeout(req);

  // `delivered` decides who reports the outcome: normally the worker; on
  // a wait-timeout the caller wins the flag, reports DeadlineExceeded,
  // and the worker's late result is discarded (it must not double-count
  // metrics for a request the client already gave up on).
  struct SyncState {
    std::promise<Response> promise;
    std::atomic<bool> delivered{false};
  };
  auto state = std::make_shared<SyncState>();
  std::future<Response> future = state->promise.get_future();

  pool_->Submit([this, req, state, arrival, timeout_s]() {
    Response resp = Execute(req, arrival, timeout_s);
    bool expected = false;
    if (state->delivered.compare_exchange_strong(expected, true)) {
      RecordOutcome(req, SecondsSince(arrival, Clock::now()) * 1e3,
                    resp.status);
      state->promise.set_value(std::move(resp));
    }
  });

  const Clock::time_point deadline = DeadlineAfter(arrival, timeout_s);
  if (deadline != kNoDeadline) {
    if (future.wait_until(deadline) == std::future_status::timeout) {
      bool expected = false;
      if (state->delivered.compare_exchange_strong(expected, true)) {
        Response resp;
        resp.id = req.id;
        resp.status = util::Status::DeadlineExceeded(util::StringPrintf(
            "request exceeded its %.3fs budget (worker still running; "
            "result discarded)",
            timeout_s));
        RecordOutcome(req, timeout_s * 1e3, resp.status);
        return resp;
      }
      // The worker delivered in the race window; fall through and take
      // its response.
    }
  }
  return future.get();
}

std::string Server::HandleJsonLine(const std::string& line) {
  auto req = ParseRequestJson(line);
  if (!req.ok()) {
    Response resp;
    resp.status = req.status();
    metrics_.Record("invalid", 0.0, /*ok=*/false, /*timeout=*/false);
    return SerializeResponse(resp);
  }
  return SerializeResponse(Handle(*req));
}

util::Status Server::InstallWorkspace(const std::string& name,
                                      catalog::Workspace ws) {
  if (name.empty()) {
    return util::Status::InvalidArgument("workspace name must be non-empty");
  }
  SCHEMEX_RETURN_IF_ERROR(ws.Validate());
  PutWorkspace(name, std::move(ws));
  return util::Status::OK();
}

std::vector<std::string> Server::WorkspaceNames() const {
  util::ReaderMutexLock lock(cache_mu_);
  std::vector<std::string> names;
  names.reserve(cache_.size());
  for (const auto& [name, gen] : cache_) names.push_back(name);
  return names;
}

util::StatusOr<Server::GenerationPtr> Server::GetGeneration(
    const std::string& name) const {
  util::ReaderMutexLock lock(cache_mu_);
  auto it = cache_.find(name);
  if (it == cache_.end()) {
    return util::Status::NotFound("no workspace named \"" + name +
                                  "\" (load_workspace first)");
  }
  return it->second;
}

util::StatusOr<Server::WorkspacePtr> Server::GetWorkspace(
    const std::string& name) const {
  SCHEMEX_ASSIGN_OR_RETURN(GenerationPtr gen, GetGeneration(name));
  const catalog::Workspace* ws = &gen->ws;
  return WorkspacePtr(std::move(gen), ws);
}

const query::QueryIndex& Server::IndexFor(const Generation& gen) {
  std::call_once(gen.index_once, [&] {
    util::WallTimer timer;
    gen.index = std::make_unique<const query::QueryIndex>(gen.ws.program,
                                                          gen.ws.assignment);
    metrics_.AddCounter("query.index_builds", 1);
    metrics_.AddCounter("query.index_build_us",
                        static_cast<int64_t>(timer.ElapsedSeconds() * 1e6));
  });
  return *gen.index;
}

void Server::PutWorkspace(const std::string& name, catalog::Workspace ws) {
  auto snapshot = std::make_shared<const Generation>(std::move(ws));
  {
    util::WriterMutexLock lock(cache_mu_);
    cache_[name].swap(snapshot);
  }
  // `snapshot` now holds the replaced generation. If this was its last
  // reference, freeing it (assignment, extraction cache, query index,
  // possibly the old graph and its mapping) happens here, off the lock
  // every query takes.
}

util::StatusOr<json::Value> Server::Dispatch(const Request& req,
                                             Clock::time_point deadline) {
  switch (req.verb) {
    case Verb::kLoadWorkspace:
      return HandleLoadWorkspace(req.load);
    case Verb::kExtract:
      return HandleExtract(req.extract, deadline);
    case Verb::kType:
      return HandleType(req.type);
    case Verb::kQuery:
      return HandleQuery(req.query, deadline);
    case Verb::kStats:
      return HandleStats();
    case Verb::kListWorkspaces:
      return HandleListWorkspaces();
    case Verb::kApplyDelta:
      return HandleApplyDelta(req.apply_delta);
    case Verb::kReExtract:
      return HandleReExtract(req.re_extract, deadline);
  }
  return util::Status::Internal("unhandled verb");
}

util::StatusOr<json::Value> Server::HandleLoadWorkspace(
    const LoadWorkspaceParams& p) {
  if (p.name.empty()) {
    return util::Status::InvalidArgument("workspace name must be non-empty");
  }
  catalog::LoadInfo load_info;
  SCHEMEX_ASSIGN_OR_RETURN(catalog::Workspace ws,
                           catalog::LoadWorkspace(p.dir, &load_info));
  metrics_.AddCounter(load_info.from_snapshot ? "workspace.load_snapshot"
                                              : "workspace.load_text",
                      1);
  std::map<std::string, Value> f = WorkspaceSummaryFields(p.name, ws);
  // Surface how the graph was obtained, and — when a snapshot existed
  // but was rejected — why the load fell back to the text files.
  f["source"] =
      Value::String(load_info.from_snapshot ? "snapshot" : "text");
  if (!load_info.from_snapshot &&
      load_info.snapshot_status.code() != util::StatusCode::kNotFound) {
    f["snapshot_error"] =
        Value::String(load_info.snapshot_status.ToString());
  }
  PutWorkspace(p.name, std::move(ws));
  return Value::Object(std::move(f));
}

util::StatusOr<json::Value> Server::HandleExtract(const ExtractParams& p,
                                                  Clock::time_point deadline) {
  SCHEMEX_ASSIGN_OR_RETURN(WorkspacePtr snapshot, GetWorkspace(p.workspace));
  graph::GraphView g = snapshot->View();

  extract::ExtractorOptions opt;
  opt.stage1 = p.stage1 == "gfp"
                   ? extract::ExtractorOptions::Stage1Algorithm::kGfp
                   : extract::ExtractorOptions::Stage1Algorithm::kRefinement;
  opt.decompose_roles = p.decompose_roles;
  opt.check_cancel = DeadlineHook(deadline, "extract pipeline");

  // k == 0 = automatic: one pass sweeps k <= max_types, takes the §8 knee
  // within the epsilon tolerance and finishes the knee's extraction.
  const bool auto_k = p.k == 0;
  if (auto_k && p.max_types == 0) {
    return util::Status::InvalidArgument(
        "k 0 with max_types 0 would always return the unclustered Stage-1 "
        "typing: an uncapped sweep includes k = n at defect 0, so the knee "
        "tolerance admits only defect-0 points; set max_types >= 1 or a "
        "fixed k");
  }
  extract::KneeExtraction run;  // points and knee stay empty at fixed k
  if (auto_k) {
    SCHEMEX_ASSIGN_OR_RETURN(
        run, extract::ExtractAtKnee(
                 g, opt,
                 {.max_types = static_cast<size_t>(p.max_types),
                  .tolerance = p.epsilon}));
    opt.target_num_types = run.knee.k;  // 0: empty sweep, perfect typing
  } else {
    opt.target_num_types = static_cast<size_t>(p.k);
    SCHEMEX_ASSIGN_OR_RETURN(run.result, extract::SchemaExtractor(opt).Run(g));
  }
  std::optional<double> save_ms;
  SCHEMEX_ASSIGN_OR_RETURN(
      catalog::Workspace next,
      CommitExtraction(*snapshot, run.result, opt, p.save_dir, &save_ms));

  std::map<std::string, Value> f;
  f["workspace"] = Value::String(p.workspace);
  f["k"] = JsonUint(opt.target_num_types);
  f["auto_k"] = Value::Bool(auto_k);
  AddExtractionFields(run.result, auto_k ? &run : nullptr, save_ms,
                      &metrics_, &f);
  if (!p.save_dir.empty()) f["saved_to"] = Value::String(p.save_dir);

  PutWorkspace(p.workspace, std::move(next));
  return Value::Object(std::move(f));
}

util::StatusOr<json::Value> Server::HandleType(const TypeParams& p) {
  SCHEMEX_ASSIGN_OR_RETURN(WorkspacePtr snapshot, GetWorkspace(p.workspace));
  graph::GraphView g = snapshot->View();

  // Parse against a copy of the graph's interner: existing labels keep
  // their ids; labels unknown to the graph get fresh out-of-table ids and
  // simply never match an edge. The shared snapshot is never mutated.
  typing::TypingProgram program;
  bool inline_program = !p.program.empty();
  if (inline_program) {
    graph::LabelInterner labels = g.labels();
    SCHEMEX_ASSIGN_OR_RETURN(program,
                             typing::ReadTypingProgram(p.program, &labels));
  } else {
    if (snapshot->program.NumTypes() == 0) {
      return util::Status::FailedPrecondition(
          "workspace has no schema; pass \"program\" or run extract");
    }
    program = snapshot->program;
  }

  typing::GfpStats gfp_stats;
  SCHEMEX_ASSIGN_OR_RETURN(typing::Extents extents,
                           typing::ComputeGfp(program, g, &gfp_stats));

  std::vector<Value> types;
  size_t nonempty = 0;
  for (size_t t = 0; t < extents.NumTypes(); ++t) {
    size_t count = extents.per_type[t].Count();
    if (count > 0) ++nonempty;
    std::map<std::string, Value> tf;
    tf["name"] = Value::String(program.type(static_cast<typing::TypeId>(t)).name);
    tf["extent"] = JsonUint(count);
    types.push_back(Value::Object(std::move(tf)));
  }

  std::map<std::string, Value> f;
  f["workspace"] = Value::String(p.workspace);
  f["num_types"] = JsonUint(program.NumTypes());
  f["nonempty_extents"] = JsonUint(nonempty);
  f["types"] = Value::Array(std::move(types));
  {
    std::map<std::string, Value> s;
    s["initial_candidates"] = JsonUint(gfp_stats.initial_candidates);
    s["rechecks"] = JsonUint(gfp_stats.rechecks);
    s["removed"] = JsonUint(gfp_stats.removed);
    f["gfp"] = Value::Object(std::move(s));
  }
  f["committed"] = Value::Bool(p.commit);

  if (p.commit) {
    // Shared graph/overlay; commit swaps only the schema + assignment
    // (the extraction cache and mutation log describe the graph, which
    // this verb never changes, so they carry over).
    catalog::Workspace next = *snapshot;
    next.program = std::move(program);
    next.assignment = typing::ExtentsToAssignment(extents);
    // An inline program may reference labels outside the graph's table;
    // Validate rejects that, so a bad commit fails before the swap.
    SCHEMEX_RETURN_IF_ERROR(next.Validate());
    PutWorkspace(p.workspace, std::move(next));
  }
  return Value::Object(std::move(f));
}

util::StatusOr<json::Value> Server::HandleQuery(const QueryParams& p,
                                                Clock::time_point deadline) {
  SCHEMEX_ASSIGN_OR_RETURN(GenerationPtr gen, GetGeneration(p.workspace));
  const catalog::Workspace& ws = gen->ws;
  graph::GraphView g = ws.View();

  SCHEMEX_ASSIGN_OR_RETURN(query::PathQuery q,
                           query::ParsePathQuery(p.query));

  const query::CancelHook check_cancel = DeadlineHook(deadline, "query");
  query::QueryStats qstats;
  std::vector<graph::ObjectId> results;
  const bool guided = p.use_guide && ws.program.NumTypes() > 0;
  if (guided) {
    // `gen` keeps the index and the program/assignment it borrows alive
    // for the whole evaluation.
    SCHEMEX_ASSIGN_OR_RETURN(
        results, IndexFor(*gen).Evaluate(g, q, check_cancel, &qstats));
  } else {
    SCHEMEX_ASSIGN_OR_RETURN(
        results, query::EvaluateFrom(g, q, query::AllComplexObjects(g),
                                     check_cancel, &qstats));
  }

  std::vector<Value> objects;
  const size_t limit = static_cast<size_t>(p.limit);
  objects.reserve(std::min(results.size(), limit));
  for (size_t i = 0; i < results.size() && i < limit; ++i) {
    graph::ObjectId o = results[i];
    std::string_view name = g.Name(o);
    std::map<std::string, Value> of;
    of["id"] = JsonUint(o);
    of["name"] = Value::String(
        name.empty() ? util::StringPrintf("_o%u", o) : std::string(name));
    if (g.IsAtomic(o)) of["value"] = Value::String(std::string(g.Value(o)));
    objects.push_back(Value::Object(std::move(of)));
  }

  std::map<std::string, Value> f;
  f["workspace"] = Value::String(p.workspace);
  f["count"] = JsonUint(results.size());
  f["guided"] = Value::Bool(guided);
  f["objects"] = Value::Array(std::move(objects));
  {
    std::map<std::string, Value> s;
    s["edges_scanned"] = JsonUint(qstats.edges_scanned);
    s["objects_visited"] = JsonUint(qstats.objects_visited);
    f["stats"] = Value::Object(std::move(s));
  }
  return Value::Object(std::move(f));
}

util::StatusOr<json::Value> Server::HandleStats() {
  std::vector<Value> verbs;
  for (const VerbStats& s : metrics_.Snapshot()) {
    verbs.push_back(s.ToJson());
  }
  // Frozen graphs are shared across workspace generations (and possibly
  // across workspaces), so account each distinct instance once.
  size_t graph_bytes = 0;
  std::set<uint64_t> seen_graphs;
  std::vector<Value> delta_rows;
  {
    util::ReaderMutexLock lock(cache_mu_);
    for (const auto& [name, gen] : cache_) {
      const catalog::Workspace* ws = &gen->ws;
      if (ws->graph && seen_graphs.insert(ws->graph->id()).second) {
        graph_bytes += ws->graph->MemoryUsage();
      }
      // Per-workspace mutation state, including the §6 "re-extract now?"
      // signal, for workspaces with any delta activity.
      if (ws->generation > 0 || ws->overlay != nullptr ||
          !ws->mutation_log.empty()) {
        std::map<std::string, Value> r;
        r["workspace"] = Value::String(name);
        r["generation"] = JsonUint(ws->generation);
        r["pending_batches"] = JsonUint(ws->mutation_log.size());
        r["overlay"] = Value::Bool(ws->overlay != nullptr);
        r["misfit"] = MisfitFields(*ws);
        delta_rows.push_back(Value::Object(std::move(r)));
      }
    }
  }
  std::map<std::string, Value> f;
  f["verbs"] = Value::Array(std::move(verbs));
  if (!delta_rows.empty()) f["delta"] = Value::Array(std::move(delta_rows));
  // Transport-level counters (tcp.* when the TCP front end is attached).
  {
    std::map<std::string, Value> c;
    for (const auto& [name, value] : metrics_.CounterSnapshot()) {
      c[name] = JsonInt(value);
    }
    if (!c.empty()) f["counters"] = Value::Object(std::move(c));
  }
  f["workspaces"] = JsonUint(WorkspaceNames().size());
  f["distinct_graphs"] = JsonUint(seen_graphs.size());
  f["graph_bytes"] = JsonUint(graph_bytes);
  // Snapshot-backed graphs: bytes are file-backed (demand-paged), not
  // heap, so they are reported separately from graph_bytes.
  f["mapped_snapshots"] = JsonUint(snapshot::LiveMappings().size());
  f["mapped_bytes"] = JsonUint(snapshot::LiveMappedBytes());
  f["threads"] = JsonUint(pool_->num_threads());
  f["queue_depth"] = JsonUint(pool_->QueueDepth());
  return Value::Object(std::move(f));
}

util::StatusOr<json::Value> Server::HandleListWorkspaces() {
  std::vector<std::pair<std::string, GenerationPtr>> entries;
  {
    util::ReaderMutexLock lock(cache_mu_);
    entries.assign(cache_.begin(), cache_.end());
  }
  std::vector<Value> out;
  out.reserve(entries.size());
  for (const auto& [name, gen] : entries) {
    out.push_back(WorkspaceSummary(name, gen->ws));
  }
  std::map<std::string, Value> f;
  f["workspaces"] = Value::Array(std::move(out));
  return Value::Object(std::move(f));
}

util::StatusOr<json::Value> Server::HandleApplyDelta(const ApplyDeltaParams& p) {
  SCHEMEX_ASSIGN_OR_RETURN(WorkspacePtr snapshot, GetWorkspace(p.workspace));

  // Mutate a private copy of the overlay (or a fresh one over the frozen
  // snapshot): the cached workspace stays untouched until the final swap,
  // so an op failing mid-batch leaves no trace.
  auto overlay = snapshot->overlay
                     ? std::make_shared<graph::DataGraph>(*snapshot->overlay)
                     : std::make_shared<graph::DataGraph>(snapshot->graph);

  std::vector<graph::ObjectId> new_ids;
  std::vector<graph::ObjectId> batch_touched;
  size_t objects_added = 0, links_added = 0, links_deleted = 0;
  auto touch = [&](graph::ObjectId id) {
    if (overlay->IsComplex(id)) batch_touched.push_back(id);
  };
  for (size_t i = 0; i < p.ops.size(); ++i) {
    const DeltaOp& op = p.ops[i];
    util::Status s;
    if (op.op == "add_object") {
      graph::ObjectId id = op.kind == "atomic"
                               ? overlay->AddAtomic(op.value, op.name)
                               : overlay->AddComplex(op.name);
      new_ids.push_back(id);
      ++objects_added;
      if (op.kind != "atomic") batch_touched.push_back(id);
    } else if (op.from >= overlay->NumObjects() ||
               op.to >= overlay->NumObjects()) {
      // Range-check the request's 64-bit ids before narrowing them to
      // ObjectId, so 2^32 cannot wrap around to object 0.
      s = util::Status::InvalidArgument(util::StringPrintf(
          "object id out of range (from=%llu, to=%llu, n=%zu)",
          static_cast<unsigned long long>(op.from),
          static_cast<unsigned long long>(op.to), overlay->NumObjects()));
    } else {
      const auto from = static_cast<graph::ObjectId>(op.from);
      const auto to = static_cast<graph::ObjectId>(op.to);
      if (op.op == "add_link") {
        s = overlay->AddEdge(from, to, std::string_view(op.label));
        if (s.ok()) ++links_added;
      } else {  // del_link (parse guarantees the op set)
        graph::LabelId label = overlay->labels().Find(op.label);
        s = label == graph::kInvalidLabel
                ? util::Status::NotFound("unknown label \"" + op.label + "\"")
                : overlay->RemoveEdge(from, to, label);
        if (s.ok()) ++links_deleted;
      }
      if (s.ok()) {
        touch(from);
        touch(to);
      }
    }
    if (!s.ok()) {
      return util::Status(
          s.code(), util::StringPrintf("ops[%zu]: ", i) + s.message());
    }
  }
  std::sort(batch_touched.begin(), batch_touched.end());
  batch_touched.erase(std::unique(batch_touched.begin(), batch_touched.end()),
                      batch_touched.end());

  // Online typing (§6) of the new objects against the workspace schema
  // (a workspace without an assignment has no schema to type against).
  // Counters feed the retype recommendation.
  typing::TypeAssignment tau = snapshot->assignment;
  size_t arrivals = 0, exact = 0;
  if (tau.NumObjects() != 0) {
    SCHEMEX_ASSIGN_OR_RETURN(
        std::vector<typing::ArrivalTyping> typed,
        typing::TypeArrivals(snapshot->program, graph::GraphView(*overlay),
                             new_ids, &tau));
    arrivals = typed.size();
    for (const typing::ArrivalTyping& a : typed) {
      if (!a.exact_types.empty()) ++exact;
    }
  }

  catalog::Workspace next = *snapshot;
  next.assignment = std::move(tau);
  next.generation = snapshot->generation + 1;
  if (p.compact) {
    next.graph = graph::Freeze(*overlay);
    next.overlay = nullptr;
  } else {
    next.overlay = overlay;
  }
  catalog::MutationRecord rec;
  rec.generation = next.generation;
  rec.touched_complex = batch_touched;
  rec.objects_added = objects_added;
  rec.links_added = links_added;
  rec.links_deleted = links_deleted;
  next.mutation_log.push_back(std::move(rec));
  next.delta_arrivals += arrivals;
  next.delta_exact += exact;
  SCHEMEX_RETURN_IF_ERROR(next.Validate());

  metrics_.AddCounter("delta.batches", 1);
  metrics_.AddCounter("delta.objects_added",
                      static_cast<int64_t>(objects_added));
  metrics_.AddCounter("delta.links_added", static_cast<int64_t>(links_added));
  metrics_.AddCounter("delta.links_deleted",
                      static_cast<int64_t>(links_deleted));
  if (p.compact) metrics_.AddCounter("delta.compactions", 1);

  std::map<std::string, Value> f;
  f["workspace"] = Value::String(p.workspace);
  f["generation"] = JsonUint(next.generation);
  {
    std::vector<Value> ids;
    ids.reserve(new_ids.size());
    for (graph::ObjectId id : new_ids) ids.push_back(JsonUint(id));
    f["new_ids"] = Value::Array(std::move(ids));
  }
  f["objects_added"] = JsonUint(objects_added);
  f["links_added"] = JsonUint(links_added);
  f["links_deleted"] = JsonUint(links_deleted);
  f["touched_complex"] = JsonUint(batch_touched.size());
  f["compacted"] = Value::Bool(p.compact);
  f["misfit"] = MisfitFields(next);

  PutWorkspace(p.workspace, std::move(next));
  return Value::Object(std::move(f));
}

util::StatusOr<json::Value> Server::HandleReExtract(
    const ReExtractParams& p, Clock::time_point deadline) {
  SCHEMEX_ASSIGN_OR_RETURN(WorkspacePtr snapshot, GetWorkspace(p.workspace));
  if (snapshot->extraction_cache == nullptr) {
    return util::Status::FailedPrecondition(
        "workspace \"" + p.workspace +
        "\" has no extraction cache; run extract first");
  }
  const extract::ExtractionCache& cache = *snapshot->extraction_cache;
  graph::GraphView g = snapshot->View();

  // Dirty seed: every complex object any batch since the last extraction
  // touched. The log (not the overlay's cumulative set) is what matters —
  // a compacted workspace has no overlay but still owes these objects a
  // re-check, and an extract resets the log.
  std::vector<graph::ObjectId> touched;
  for (const catalog::MutationRecord& r : snapshot->mutation_log) {
    touched.insert(touched.end(), r.touched_complex.begin(),
                   r.touched_complex.end());
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  extract::IncrementalOptions inc;
  inc.max_dirty_fraction = p.max_dirty_fraction;
  extract::ReExtractStats rstats;
  SCHEMEX_ASSIGN_OR_RETURN(
      extract::ExtractionResult result,
      extract::ReExtract(g, cache, touched, static_cast<size_t>(p.k),
                         DeadlineHook(deadline, "extract pipeline"), inc,
                         &rstats));
  // The options the run replayed, for the fresh cache.
  extract::ExtractorOptions opt = cache.options;
  if (p.k != 0) opt.target_num_types = static_cast<size_t>(p.k);
  std::optional<double> save_ms;
  SCHEMEX_ASSIGN_OR_RETURN(
      catalog::Workspace next,
      CommitExtraction(*snapshot, result, opt, p.save_dir, &save_ms));

  metrics_.AddCounter("delta.re_extracts", 1);
  if (rstats.incremental_stage1) {
    metrics_.AddCounter("delta.incremental_stage1", 1);
  }
  if (rstats.stage2_reused) metrics_.AddCounter("delta.stage2_reused", 1);

  std::map<std::string, Value> f;
  f["workspace"] = Value::String(p.workspace);
  f["k"] = JsonUint(opt.target_num_types);
  f["generation"] = JsonUint(next.generation);
  AddExtractionFields(result, /*sweep=*/nullptr, save_ms,
                      &metrics_, &f);
  {
    std::map<std::string, Value> i;
    i["stage1_incremental"] = Value::Bool(rstats.incremental_stage1);
    if (!rstats.stage1_fallback_reason.empty()) {
      i["stage1_fallback_reason"] =
          Value::String(rstats.stage1_fallback_reason);
    }
    i["dirty_seed"] = JsonUint(rstats.dirty_seed);
    i["dirty_peak"] = JsonUint(rstats.dirty_peak);
    i["rounds"] = JsonUint(rstats.rounds);
    i["stage2_reused"] = Value::Bool(rstats.stage2_reused);
    f["incremental"] = Value::Object(std::move(i));
  }
  if (!p.save_dir.empty()) f["saved_to"] = Value::String(p.save_dir);

  PutWorkspace(p.workspace, std::move(next));
  return Value::Object(std::move(f));
}

}  // namespace schemex::service
