// The traced run: the workload cycle replayed in-process, verb by verb,
// through the same public library calls the server makes, with a span
// around each call into a layer. Spans never reach into the library:
// the three stage spans inside SchemaExtractor::Run / ReExtract are laid
// out from the StageTimings those functions measure themselves.
//
// Cycles alternate tracing off and on; the headline op's duration on
// both sides gives the tracing overhead.

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <thread>

#include "bench.h"
#include "catalog/workspace.h"
#include "cluster/greedy.h"
#include "extract/extractor.h"
#include "extract/incremental_extract.h"
#include "extract/knee.h"
#include "json/json.h"
#include "query/path_query.h"
#include "query/schema_guide.h"
#include "snapshot/snapshot.h"
#include "typing/incremental.h"
#include "typing/perfect_typing.h"
#include "typing/recast.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

using json::Value;
using Clock = std::chrono::steady_clock;

/// Reader queries replayed after each writer cycle.
constexpr size_t kReplayQueries = 60;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// In-memory span recorder. A span has a name, start, end, the span that
/// caused it, and the op (request) it belongs to. Disabled, it records
/// nothing and reads no clock.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
    uint32_t op = 0;
  };

  bool enabled = false;

  /// Starts a new op (request); its root span is the next Begin.
  void NextOp() { ++op_; }

  int32_t Begin(const char* name) {
    if (!enabled) return -1;
    const int32_t idx = static_cast<int32_t>(spans_.size());
    spans_.push_back({name, NowNs(), 0, stack_.empty() ? -1 : stack_.back(),
                      op_});
    stack_.push_back(idx);
    return idx;
  }

  void End(int32_t idx) {
    if (idx < 0) return;
    spans_[static_cast<size_t>(idx)].end_ns = NowNs();
    stack_.pop_back();
  }

  /// Child spans of the open span `parent` whose durations the library
  /// measured itself, laid out back to back from the parent's start.
  void AddMeasured(int32_t parent,
                   std::initializer_list<std::pair<const char*, double>> ms) {
    if (parent < 0) return;
    int64_t at = spans_[static_cast<size_t>(parent)].start_ns;
    for (const auto& [name, dur_ms] : ms) {
      const int64_t end = at + static_cast<int64_t>(dur_ms * 1e6);
      spans_.push_back({name, at, end, parent, op_});
      at = end;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span: duration minus the part its children cover.
  std::vector<int64_t> SelfNs() const {
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
      }
    }
    return self;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
  uint32_t op_ = 0;
};

class Scope {
 public:
  Scope(Tracer& t, const char* name) : t_(t), idx_(t.Begin(name)) {}
  ~Scope() { t_.End(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int32_t index() const { return idx_; }

 private:
  Tracer& t_;
  int32_t idx_;
};

std::string RootName(OpKind kind) { return std::string("op.") + OpKindName(kind); }

/// Counters gathered at the layer boundaries of traced cycles.
struct Counters {
  std::vector<double> stage1_types, merges, fallback_ratio, overlay_bytes,
      bytes_per_edge, start_ratio, dirty_peak;
  double edges_scanned = 0, results = 0;
  double re_extracts = 0, stage1_fallbacks = 0;
  double swap_reuse = 0, swaps = 0, grow_reuse = 0, grows = 0;
};

/// The server's auto parallelism rule (extract::internal::
/// ResolveParallelism), for the direct ClusterTypes probe.
size_t AutoThreads(size_t num_complex) {
  size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
  return std::min(hw, std::max<size_t>(1, num_complex / 4096));
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) bytes += e.file_size(ec);
  }
  return bytes;
}

/// A server without a socket: the verb handlers of service/server.cc,
/// restated over the same public calls, each wrapped in a span.
class Replayer {
 public:
  explicit Replayer(Tracer& tr) : tr_(tr) {}

  Counters counters;

  util::Status Do(const Op& op, const std::string& line) {
    tr_.NextOp();
    const std::string root = RootName(op.kind);
    Scope s(tr_, root.c_str());
    service::Request req;
    {
      Scope p(tr_, "json.parse");
      SCHEMEX_ASSIGN_OR_RETURN(req, service::ParseRequestJson(line));
    }
    service::Response resp;
    resp.id = req.id;
    switch (req.verb) {
      case service::Verb::kLoadWorkspace: {
        SCHEMEX_ASSIGN_OR_RETURN(resp.result, Load(req.load));
        break;
      }
      case service::Verb::kExtract: {
        SCHEMEX_ASSIGN_OR_RETURN(resp.result, Extract(req.extract, op.kind));
        break;
      }
      case service::Verb::kQuery: {
        SCHEMEX_ASSIGN_OR_RETURN(resp.result, Query(req.query));
        break;
      }
      case service::Verb::kApplyDelta: {
        SCHEMEX_ASSIGN_OR_RETURN(resp.result, ApplyDelta(req.apply_delta));
        break;
      }
      case service::Verb::kReExtract: {
        SCHEMEX_ASSIGN_OR_RETURN(resp.result,
                                 ReExtract(req.re_extract, op.kind));
        break;
      }
      default:
        return util::Status::InvalidArgument("verb not replayed");
    }
    Scope ser(tr_, "json.serialize");
    const std::string wire_line = service::SerializeResponse(resp);
    return wire_line.empty() ? util::Status::Internal("empty response")
                             : util::Status::OK();
  }

  /// snapshot::Map alone, the zero-copy half of LoadWorkspace.
  util::Status ProbeMap(const Tenant& t) {
    tr_.NextOp();
    Scope root(tr_, "probe.snapshot_map");
    Scope s(tr_, "snapshot.map");
    return snapshot::Map(t.dir + "/snapshot.bin").status();
  }

  /// ClusterTypes with record_snapshots down to k=1 — the Stage-2 half
  /// of SensitivitySweep — over the workspace's current graph.
  util::Status ProbeSweep(const Tenant& t) {
    SCHEMEX_ASSIGN_OR_RETURN(auto ws, Get(t.name));
    graph::GraphView g = ws->View();
    typing::ExecOptions exec;
    exec.num_threads = AutoThreads(g.NumComplexObjects());
    SCHEMEX_ASSIGN_OR_RETURN(typing::PerfectTypingResult pt,
                             typing::PerfectTypingViaHashRefinement(g, exec));
    cluster::ClusteringOptions copt;
    copt.target_num_types = 1;
    copt.record_snapshots = true;
    tr_.NextOp();
    Scope root(tr_, "probe.cluster_sweep");
    Scope s(tr_, "cluster.sweep");
    return cluster::ClusterTypes(pt.program, pt.weight, copt, exec).status();
  }

  /// Share of complex objects a guided query starts from.
  util::Status ProbeStartCandidates(const Tenant& t, int query) {
    SCHEMEX_ASSIGN_OR_RETURN(auto ws, Get(t.name));
    if (ws->program.NumTypes() == 0) return util::Status::OK();
    SCHEMEX_ASSIGN_OR_RETURN(
        query::PathQuery q,
        query::ParsePathQuery(t.queries[static_cast<size_t>(query)]));
    graph::GraphView g = ws->View();
    query::SchemaGuide guide(ws->program, ws->assignment);
    counters.start_ratio.push_back(
        static_cast<double>(guide.StartCandidates(g, q).size()) /
        static_cast<double>(std::max<size_t>(1, g.NumComplexObjects())));
    return util::Status::OK();
  }

 private:
  using WorkspacePtr = std::shared_ptr<const catalog::Workspace>;

  util::StatusOr<WorkspacePtr> Get(const std::string& name) const {
    auto it = cache_.find(name);
    if (it == cache_.end()) return util::Status::NotFound(name);
    return it->second;
  }

  util::StatusOr<Value> Load(const service::LoadWorkspaceParams& p) {
    catalog::LoadInfo info;
    catalog::Workspace ws;
    {
      Scope s(tr_, "catalog.load");
      SCHEMEX_ASSIGN_OR_RETURN(ws, catalog::LoadWorkspace(p.dir, &info));
    }
    if (!info.from_snapshot) {
      return util::Status::Internal("load did not take the snapshot path");
    }
    std::map<std::string, Value> f;
    f["workspace"] = Value::String(p.name);
    f["objects"] = service::JsonUint(ws.graph->NumObjects());
    f["source"] = Value::String("snapshot");
    cache_[p.name] = std::make_shared<const catalog::Workspace>(std::move(ws));
    return Value::Object(std::move(f));
  }

  /// The extraction response body the server builds.
  static std::map<std::string, Value> ResultFields(
      const std::string& ws, size_t k, const extract::ExtractionResult& r) {
    std::map<std::string, Value> f;
    f["workspace"] = Value::String(ws);
    f["k"] = service::JsonUint(k);
    f["num_perfect_types"] = service::JsonUint(r.num_perfect_types);
    f["num_final_types"] = service::JsonUint(r.num_final_types);
    std::map<std::string, Value> d;
    d["excess"] = service::JsonUint(r.defect.excess);
    d["deficit"] = service::JsonUint(r.defect.deficit);
    d["defect"] = service::JsonUint(r.defect.defect());
    f["defect"] = Value::Object(std::move(d));
    std::map<std::string, Value> rc;
    rc["exact"] = service::JsonUint(r.recast.num_exact);
    rc["fallback"] = service::JsonUint(r.recast.num_fallback);
    rc["untyped"] = service::JsonUint(r.recast.num_untyped);
    f["recast"] = Value::Object(std::move(rc));
    std::map<std::string, Value> t;
    t["stage1_ms"] = Value::Number(r.timings.stage1_ms);
    t["cluster_ms"] = Value::Number(r.timings.cluster_ms);
    t["recast_ms"] = Value::Number(r.timings.recast_ms);
    t["total_ms"] = Value::Number(r.timings.total_ms);
    f["timings"] = Value::Object(std::move(t));
    return f;
  }

  void CountExtraction(const extract::ExtractionResult& r) {
    if (!tr_.enabled) return;
    counters.stage1_types.push_back(static_cast<double>(r.num_perfect_types));
    counters.merges.push_back(static_cast<double>(r.clustering.steps.size()));
    const double typed =
        static_cast<double>(r.recast.num_exact + r.recast.num_fallback);
    counters.fallback_ratio.push_back(
        typed > 0 ? static_cast<double>(r.recast.num_fallback) / typed : 0);
  }

  /// Installs an extraction as the workspace's next generation, as the
  /// server does after extract and re_extract.
  util::Status Install(const std::string& name, const WorkspacePtr& snap,
                       const extract::ExtractionResult& result,
                       const extract::ExtractorOptions& opt,
                       const std::string& save_dir) {
    catalog::Workspace next;
    {
      Scope s(tr_, "catalog.workspace_copy");
      next = *snap;
      next.program = result.final_program;
      next.assignment = result.recast.assignment;
    }
    {
      Scope s(tr_, "extract.cache_build");
      next.extraction_cache = std::make_shared<const extract::ExtractionCache>(
          extract::MakeExtractionCache(result, opt));
    }
    next.mutation_log.clear();
    next.delta_arrivals = 0;
    next.delta_exact = 0;
    {
      Scope s(tr_, "catalog.validate");
      SCHEMEX_RETURN_IF_ERROR(next.Validate());
    }
    if (!save_dir.empty()) {
      {
        Scope s(tr_, "catalog.save");
        SCHEMEX_RETURN_IF_ERROR(catalog::SaveWorkspace(next, save_dir));
      }
      if (tr_.enabled) {
        counters.bytes_per_edge.push_back(
            static_cast<double>(DirBytes(save_dir)) /
            static_cast<double>(std::max<size_t>(1, next.View().NumEdges())));
      }
    }
    cache_[name] = std::make_shared<const catalog::Workspace>(std::move(next));
    return util::Status::OK();
  }

  util::StatusOr<Value> Extract(const service::ExtractParams& p, OpKind kind) {
    SCHEMEX_ASSIGN_OR_RETURN(WorkspacePtr snap, Get(p.workspace));
    graph::GraphView g = snap->View();
    extract::ExtractorOptions opt;
    size_t chosen_k = static_cast<size_t>(p.k);
    if (chosen_k == 0) {
      extract::KneeOptions knee;
      knee.max_types = static_cast<size_t>(p.max_types);
      knee.tolerance = p.epsilon;
      std::vector<extract::SensitivityPoint> sweep;
      {
        Scope s(tr_, "extract.sweep");
        SCHEMEX_ASSIGN_OR_RETURN(sweep, extract::SensitivitySweep(g, opt));
      }
      chosen_k = extract::FindKnee(sweep, knee).k;
    }
    opt.target_num_types = chosen_k;
    extract::ExtractionResult result;
    {
      Scope s(tr_, "extract.run");
      SCHEMEX_ASSIGN_OR_RETURN(result, extract::SchemaExtractor(opt).Run(g));
      tr_.AddMeasured(s.index(), {{"typing.stage1", result.timings.stage1_ms},
                                  {"cluster.greedy", result.timings.cluster_ms},
                                  {"typing.recast", result.timings.recast_ms}});
    }
    if (kind == OpKind::kExtract) CountExtraction(result);
    SCHEMEX_RETURN_IF_ERROR(Install(p.workspace, snap, result, opt, p.save_dir));
    std::map<std::string, Value> f = ResultFields(p.workspace, chosen_k, result);
    f["auto_k"] = Value::Bool(p.k == 0);
    return Value::Object(std::move(f));
  }

  util::StatusOr<Value> ReExtract(const service::ReExtractParams& p,
                                  OpKind kind) {
    SCHEMEX_ASSIGN_OR_RETURN(WorkspacePtr snap, Get(p.workspace));
    if (snap->extraction_cache == nullptr) {
      return util::Status::FailedPrecondition("no extraction cache");
    }
    const extract::ExtractionCache& cache = *snap->extraction_cache;
    std::vector<graph::ObjectId> touched;
    for (const catalog::MutationRecord& r : snap->mutation_log) {
      touched.insert(touched.end(), r.touched_complex.begin(),
                     r.touched_complex.end());
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    extract::IncrementalOptions inc;
    inc.max_dirty_fraction = p.max_dirty_fraction;
    extract::ReExtractStats st;
    extract::ExtractionResult result;
    {
      Scope s(tr_, "extract.re_extract");
      SCHEMEX_ASSIGN_OR_RETURN(
          result, extract::ReExtract(snap->View(), cache, touched,
                                     static_cast<size_t>(p.k), 0, nullptr,
                                     inc, &st));
      tr_.AddMeasured(s.index(), {{"typing.stage1", result.timings.stage1_ms},
                                  {"cluster.greedy", result.timings.cluster_ms},
                                  {"typing.recast", result.timings.recast_ms}});
    }
    const size_t chosen_k =
        p.k != 0 ? static_cast<size_t>(p.k) : cache.chosen_k;
    if (tr_.enabled) {
      counters.re_extracts += 1;
      counters.stage1_fallbacks += st.incremental_stage1 ? 0 : 1;
      counters.dirty_peak.push_back(static_cast<double>(st.dirty_peak));
      if (kind == OpKind::kReExtractSwap) {
        counters.swaps += 1;
        counters.swap_reuse += st.stage2_reused ? 1 : 0;
      } else {
        counters.grows += 1;
        counters.grow_reuse += st.stage2_reused ? 1 : 0;
      }
    }
    extract::ExtractorOptions opt;
    opt.stage1 = cache.options.stage1;
    opt.decompose_roles = cache.options.decompose_roles;
    opt.psi = cache.options.psi;
    opt.enable_empty_type = cache.options.enable_empty_type;
    opt.recast = cache.options.recast;
    opt.target_num_types = chosen_k;
    SCHEMEX_RETURN_IF_ERROR(Install(p.workspace, snap, result, opt, p.save_dir));
    std::map<std::string, Value> f = ResultFields(p.workspace, chosen_k, result);
    std::map<std::string, Value> i;
    i["stage1_incremental"] = Value::Bool(st.incremental_stage1);
    i["dirty_seed"] = service::JsonUint(st.dirty_seed);
    i["dirty_peak"] = service::JsonUint(st.dirty_peak);
    i["rounds"] = service::JsonUint(st.rounds);
    i["stage2_reused"] = Value::Bool(st.stage2_reused);
    f["incremental"] = Value::Object(std::move(i));
    return Value::Object(std::move(f));
  }

  util::StatusOr<Value> Query(const service::QueryParams& p) {
    SCHEMEX_ASSIGN_OR_RETURN(WorkspacePtr snap, Get(p.workspace));
    graph::GraphView g = snap->View();
    query::PathQuery q;
    {
      Scope s(tr_, "query.parse");
      SCHEMEX_ASSIGN_OR_RETURN(q, query::ParsePathQuery(p.query));
    }
    query::QueryStats qstats;
    std::vector<graph::ObjectId> results;
    if (p.use_guide && snap->program.NumTypes() > 0) {
      std::optional<query::SchemaGuide> guide;
      {
        Scope s(tr_, "query.guide_build");
        guide.emplace(snap->program, snap->assignment);
      }
      Scope s(tr_, "query.eval");
      results = guide->Evaluate(g, q, &qstats);
    } else {
      Scope s(tr_, "query.eval");
      results = query::EvaluatePathQuery(g, q, {}, &qstats);
    }
    if (tr_.enabled) {
      counters.edges_scanned += static_cast<double>(qstats.edges_scanned);
      counters.results += static_cast<double>(results.size());
    }
    std::vector<Value> objects;
    for (size_t i = 0; i < results.size() && i < p.limit; ++i) {
      graph::ObjectId o = results[i];
      std::string_view name = g.Name(o);
      std::map<std::string, Value> of;
      of["id"] = service::JsonUint(o);
      of["name"] = Value::String(name.empty()
                                     ? util::StringPrintf("_o%u", o)
                                     : std::string(name));
      if (g.IsAtomic(o)) of["value"] = Value::String(std::string(g.Value(o)));
      objects.push_back(Value::Object(std::move(of)));
    }
    std::map<std::string, Value> f;
    f["workspace"] = Value::String(p.workspace);
    f["count"] = service::JsonUint(results.size());
    f["objects"] = Value::Array(std::move(objects));
    return Value::Object(std::move(f));
  }

  util::StatusOr<Value> ApplyDelta(const service::ApplyDeltaParams& p) {
    SCHEMEX_ASSIGN_OR_RETURN(WorkspacePtr snap, Get(p.workspace));
    std::shared_ptr<graph::DeltaOverlay> overlay;
    {
      Scope s(tr_, "graph.overlay_copy");
      overlay = snap->overlay
                    ? std::make_shared<graph::DeltaOverlay>(*snap->overlay)
                    : std::make_shared<graph::DeltaOverlay>(snap->graph);
    }
    std::vector<graph::ObjectId> new_ids, touched;
    catalog::MutationRecord rec;
    {
      Scope s(tr_, "graph.apply_batch");
      auto touch = [&](uint64_t id) {
        if (id < overlay->NumObjects() &&
            overlay->IsComplex(static_cast<graph::ObjectId>(id))) {
          touched.push_back(static_cast<graph::ObjectId>(id));
        }
      };
      for (const service::DeltaOp& op : p.ops) {
        util::Status st;
        if (op.op == "add_object") {
          graph::ObjectId id = op.kind == "atomic"
                                   ? overlay->AddAtomic(op.value, op.name)
                                   : overlay->AddComplex(op.name);
          new_ids.push_back(id);
          ++rec.objects_added;
          if (op.kind != "atomic") touched.push_back(id);
        } else if (op.op == "add_link") {
          st = overlay->AddEdge(static_cast<graph::ObjectId>(op.from),
                                static_cast<graph::ObjectId>(op.to),
                                std::string_view(op.label));
          ++rec.links_added;
        } else {
          graph::LabelId label = overlay->labels().Find(op.label);
          st = label == graph::kInvalidLabel
                   ? util::Status::NotFound(op.label)
                   : overlay->RemoveEdge(static_cast<graph::ObjectId>(op.from),
                                         static_cast<graph::ObjectId>(op.to),
                                         label);
          ++rec.links_deleted;
        }
        SCHEMEX_RETURN_IF_ERROR(st);
        if (op.op != "add_object") {
          touch(op.from);
          touch(op.to);
        }
      }
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()),
                    touched.end());
    }
    graph::GraphView view(*overlay);
    typing::TypeAssignment tau = snap->assignment;
    size_t arrivals = 0, exact = 0;
    {
      // §6 online typing of the arrivals, as apply_delta does.
      Scope s(tr_, "typing.online");
      if (tau.NumObjects() != 0) tau.Resize(view.NumObjects());
      if (snap->program.NumTypes() > 0 && tau.NumObjects() != 0) {
        for (graph::ObjectId id : new_ids) {
          if (view.IsAtomic(id)) continue;
          ++arrivals;
          bool fits = false;
          for (size_t t = 0; t < snap->program.NumTypes(); ++t) {
            typing::TypeId tid = static_cast<typing::TypeId>(t);
            if (typing::SatisfiesUnderAssignment(
                    snap->program.type(tid).signature, view, tau, id)) {
              tau.Assign(id, tid);
              fits = true;
            }
          }
          if (fits) {
            ++exact;
            continue;
          }
          typing::TypeId nearest =
              typing::NearestType(snap->program, view, tau, id);
          if (nearest != typing::kInvalidType) tau.Assign(id, nearest);
        }
      }
    }
    catalog::Workspace next;
    {
      Scope s(tr_, "catalog.workspace_copy");
      next = *snap;
      next.assignment = std::move(tau);
    }
    next.generation = snap->generation + 1;
    next.overlay = overlay;
    rec.generation = next.generation;
    rec.touched_complex = touched;
    next.mutation_log.push_back(std::move(rec));
    next.delta_arrivals += arrivals;
    next.delta_exact += exact;
    {
      Scope s(tr_, "catalog.validate");
      SCHEMEX_RETURN_IF_ERROR(next.Validate());
    }
    if (tr_.enabled) {
      counters.overlay_bytes.push_back(
          static_cast<double>(overlay->MemoryUsage()));
    }
    std::map<std::string, Value> f;
    f["workspace"] = Value::String(p.workspace);
    f["generation"] = service::JsonUint(next.generation);
    std::vector<Value> ids;
    for (graph::ObjectId id : new_ids) ids.push_back(service::JsonUint(id));
    f["new_ids"] = Value::Array(std::move(ids));
    f["touched_complex"] = service::JsonUint(touched.size());
    cache_[p.workspace] =
        std::make_shared<const catalog::Workspace>(std::move(next));
    return Value::Object(std::move(f));
  }

  Tracer& tr_;
  std::map<std::string, WorkspacePtr> cache_;
};

/// Durations (and self times) of spans, grouped by name and by the kind
/// of their op's root span.
class SpanIndex {
 public:
  explicit SpanIndex(const Tracer& tr) {
    const auto& spans = tr.spans();
    const std::vector<int64_t> self = tr.SelfNs();
    std::vector<std::string> root_of(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      const int32_t p = spans[i].parent;
      root_of[i] = p < 0 ? spans[i].name : root_of[static_cast<size_t>(p)];
      const double ms = static_cast<double>(spans[i].end_ns -
                                            spans[i].start_ns) / 1e6;
      dur_[{root_of[i], spans[i].name}].push_back(ms);
      self_[{root_of[i], spans[i].name}].push_back(
          static_cast<double>(self[i]) / 1e6);
    }
  }

  /// Durations (ms) of `name` spans under roots of the given kinds;
  /// empty `roots` means any root.
  std::vector<double> Dur(const std::string& name,
                          const std::vector<std::string>& roots = {}) const {
    return Collect(dur_, name, roots);
  }
  std::vector<double> Self(const std::string& name,
                           const std::vector<std::string>& roots = {}) const {
    return Collect(self_, name, roots);
  }

 private:
  using Map = std::map<std::pair<std::string, std::string>,
                       std::vector<double>>;
  static std::vector<double> Collect(const Map& m, const std::string& name,
                                     const std::vector<std::string>& roots) {
    std::vector<double> out;
    for (const auto& [key, v] : m) {
      if (key.second != name) continue;
      if (!roots.empty() &&
          std::find(roots.begin(), roots.end(), key.first) == roots.end()) {
        continue;
      }
      out.insert(out.end(), v.begin(), v.end());
    }
    return out;
  }
  Map dur_;
  Map self_;
};

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double Max(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

util::Status WriteSpans(const Tracer& tr, const std::string& path) {
  std::ofstream out(path);
  if (!out) return util::Status::Internal("cannot write " + path);
  const std::vector<int64_t> self = tr.SelfNs();
  const auto& spans = tr.spans();
  const int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  out << "{\"spans\":[\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    out << util::StringPrintf(
        "{\"id\":%zu,\"op\":%u,\"parent\":%d,\"name\":\"%s\","
        "\"start_us\":%.3f,\"end_us\":%.3f,\"self_us\":%.3f}%s\n",
        i, s.op, s.parent, s.name.c_str(),
        static_cast<double>(s.start_ns - t0) / 1e3,
        static_cast<double>(s.end_ns - t0) / 1e3,
        static_cast<double>(self[i]) / 1e3,
        i + 1 < spans.size() ? "," : "");
  }
  out << "]}\n";
  return out.good() ? util::Status::OK()
                    : util::Status::Internal("short write to " + path);
}

}  // namespace

ReplayResult RunReplay(const Workload& w, const std::vector<Tenant>& tenants,
                       double seconds, const std::string& spans_path) {
  ReplayResult res;
  Tracer tr;
  Replayer rp(tr);
  std::vector<double> headline_on, headline_off;
  bool warmup = true;
  std::vector<bool> probed_query(
      tenants.empty() ? 0 : tenants[0].queries.size() * tenants.size(), false);
  auto run = [&](const Op& op, int64_t id) -> util::Status {
    const Tenant& t = tenants[static_cast<size_t>(op.tenant)];
    const std::string line = RequestLine(id, op, t);
    const int64_t start = NowNs();
    SCHEMEX_RETURN_IF_ERROR(rp.Do(op, line));
    const double ms = static_cast<double>(NowNs() - start) / 1e6;
    if (op.kind == w.headline && !warmup) {
      (tr.enabled ? headline_on : headline_off).push_back(ms);
    }
    ++res.ops;
    if (!tr.enabled) return util::Status::OK();
    if (op.kind == OpKind::kLoad) return rp.ProbeMap(t);
    if (op.kind == OpKind::kAutoExtract) return rp.ProbeSweep(t);
    if (op.kind == OpKind::kQuery) {
      const size_t slot = static_cast<size_t>(op.tenant) * t.queries.size() +
                          static_cast<size_t>(op.query);
      if (slot < probed_query.size() && !probed_query[slot]) {
        probed_query[slot] = true;
        return rp.ProbeStartCandidates(t, op.query);
      }
    }
    return util::Status::OK();
  };

  const auto start = Clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  int64_t id = 0;
  const size_t reader_tenant = ReaderTenant(w);
  auto fail = [&](const std::string& what, const util::Status& s) {
    res.ok = false;
    res.error = what + ": " + s.ToString();
    return res;
  };
  if (!w.query_tenant.name.empty()) {
    // The wire run's set-up saved the query tenant with its schema.
    Op load;
    load.tenant = static_cast<int>(reader_tenant);
    if (util::Status s = run(load, ++id); !s.ok()) return fail("load", s);
  }
  // Cycle 0 warms caches and is not counted; then tracing alternates on
  // (odd cycles) and off (even cycles).
  for (size_t c = 0; c < 3 || elapsed() < seconds; ++c) {
    tr.enabled = c % 2 == 1;
    warmup = c == 0;
    for (const Op& op : w.cycle) {
      if (util::Status s = run(op, ++id); !s.ok()) {
        return fail(OpKindName(op.kind), s);
      }
    }
    // The readers' queries of one cycle, issued after the writer's.
    for (size_t i = 0; i < kReplayQueries; ++i) {
      Op q;
      q.kind = OpKind::kQuery;
      q.tenant = static_cast<int>(reader_tenant);
      q.query =
          static_cast<int>((i * 7) % tenants[reader_tenant].queries.size());
      if (util::Status s = run(q, ++id); !s.ok()) return fail("query", s);
    }
  }
  if (util::Status s = WriteSpans(tr, spans_path); !s.ok()) {
    return fail("spans", s);
  }

  const SpanIndex idx(tr);
  const Counters& c = rp.counters;
  const std::vector<std::string> extract_roots = {RootName(OpKind::kExtract)};
  const std::vector<std::string> re_roots = {
      RootName(OpKind::kReExtractSwap), RootName(OpKind::kReExtractGrow)};
  const std::vector<std::string> apply_roots = {RootName(OpKind::kApplySwap),
                                                RootName(OpKind::kApplyGrow)};
  auto add = [&](const char* name, double value, const char* unit) {
    res.layers.push_back({name, Metric{value, unit}});
  };
  auto us = [](std::vector<double> ms) {
    for (double& x : ms) x *= 1e3;
    return ms;
  };
  const double input_types = Median(c.stage1_types);
  add("cluster.greedy_ms", Median(idx.Dur("cluster.greedy", extract_roots)),
      "ms");
  add("cluster.input_types", input_types, "count");
  add("cluster.merges", Median(c.merges), "count");
  add("cluster.matrix_bytes", 4.0 * input_types * input_types, "bytes");
  add("cluster.sweep_ms", Median(idx.Dur("cluster.sweep")), "ms");
  add("cluster.extract_share",
      Sum(idx.Self("cluster.greedy", extract_roots)) /
          std::max(1e-9, Sum(idx.Dur(extract_roots[0]))),
      "ratio");
  add("extract.sweep_ms", Median(idx.Dur("extract.sweep")), "ms");
  add("typing.stage1_ms", Median(idx.Dur("typing.stage1", extract_roots)),
      "ms");
  add("typing.stage1_types", input_types, "count");
  add("typing.recast_ms", Median(idx.Dur("typing.recast", extract_roots)),
      "ms");
  add("typing.recast_fallback_ratio", Median(c.fallback_ratio), "ratio");
  add("extract.run_ms", Median(idx.Dur("extract.run", extract_roots)), "ms");
  add("extract.orchestration_ms",
      Median(idx.Self("extract.run", extract_roots)), "ms");
  add("extract.cache_build_ms",
      Median(idx.Dur("extract.cache_build", extract_roots)), "ms");
  add("extract.re_extract_ms", Median(idx.Dur("extract.re_extract", re_roots)),
      "ms");
  add("typing.dirty_peak", Max(c.dirty_peak), "count");
  add("typing.stage1_fallback_ratio",
      c.re_extracts > 0 ? c.stage1_fallbacks / c.re_extracts : 0, "ratio");
  add("cluster.stage2_reuse_ratio_swap",
      c.swaps > 0 ? c.swap_reuse / c.swaps : 0, "ratio");
  add("cluster.stage2_reuse_ratio_grow",
      c.grows > 0 ? c.grow_reuse / c.grows : 0, "ratio");
  add("graph.overlay_copy_us",
      Median(us(idx.Dur("graph.overlay_copy", apply_roots))), "us");
  add("graph.apply_batch_us",
      Median(us(idx.Dur("graph.apply_batch", apply_roots))), "us");
  add("graph.overlay_bytes", Max(c.overlay_bytes), "bytes");
  add("catalog.workspace_copy_ms", Median(idx.Dur("catalog.workspace_copy")),
      "ms");
  add("catalog.load_ms", Median(idx.Dur("catalog.load")), "ms");
  add("snapshot.map_ms", Median(idx.Dur("snapshot.map")), "ms");
  add("catalog.save_ms", Median(idx.Dur("catalog.save")), "ms");
  add("catalog.bytes_written_per_edge", Median(c.bytes_per_edge), "B/edge");
  add("query.eval_us", Median(us(idx.Dur("query.eval"))), "us");
  add("query.edges_per_result",
      c.results > 0 ? c.edges_scanned / c.results : 0, "ratio");
  add("query.start_candidates_ratio", Median(c.start_ratio), "ratio");
  add("json.parse_us", Median(us(idx.Dur("json.parse"))), "us");
  add("json.serialize_us", Median(us(idx.Dur("json.serialize"))), "us");
  const double off = Median(headline_off), on = Median(headline_on);
  add("trace.headline_off_ms", off, "ms");
  add("trace.headline_on_ms", on, "ms");
  add("trace.overhead_ratio", off > 0 ? on / off : 0, "ratio");
  return res;
}

}  // namespace perfbench
