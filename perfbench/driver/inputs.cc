// Workload definitions, seeded input generation (graphs, queries, delta
// batches), request lines, and the cold reference extractions every
// response is checked against.

#include <algorithm>
#include <random>
#include <set>

#include "bench.h"
#include "catalog/workspace.h"
#include "extract/extractor.h"
#include "extract/knee.h"
#include "gen/dbg.h"
#include "gen/spec.h"
#include "gen/table1.h"
#include "json/json.h"
#include "query/path_query.h"
#include "query/schema_guide.h"
#include "typing/perfect_typing.h"
#include "util/string_util.h"

namespace perfbench {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kLoad: return "load";
    case OpKind::kExtract: return "extract";
    case OpKind::kAutoExtract: return "auto_extract";
    case OpKind::kExtractSave: return "extract_save";
    case OpKind::kQuery: return "query";
    case OpKind::kApplySwap: return "apply_swap";
    case OpKind::kApplyGrow: return "apply_grow";
    case OpKind::kReExtractSwap: return "re_extract_swap";
    case OpKind::kReExtractGrow: return "re_extract_grow";
  }
  return "unknown";
}

namespace {

/// Distinct queries generated per tenant; readers walk this list.
constexpr size_t kQueriesPerTenant = 64;
/// Type-preserving swaps in a swap batch (4 ops each).
constexpr size_t kSwapsPerBatch = 8;
/// Partition-changing edits in a grow batch, per edit class.
constexpr size_t kGrowEdits = 4;

Op MakeOp(OpKind kind, int tenant, uint64_t k = 0, int state = kBase) {
  Op op;
  op.kind = kind;
  op.tenant = tenant;
  op.k = k;
  op.state = state;
  return op;
}

/// A load_workspace that resets a second, smaller tenant.
Op UntimedLoad(int tenant) {
  Op op = MakeOp(OpKind::kLoad, tenant);
  op.timed = false;
  return op;
}

/// The delta half of a cycle on `tenant`: swap batch, re_extract, grow
/// batch, re_extract.
void AppendDeltas(int tenant, std::vector<Op>* cycle) {
  cycle->push_back(MakeOp(OpKind::kApplySwap, tenant, 0, kSwapped));
  cycle->push_back(MakeOp(OpKind::kReExtractSwap, tenant, 0, kSwapped));
  cycle->push_back(MakeOp(OpKind::kApplyGrow, tenant, 0, kGrown));
  cycle->push_back(MakeOp(OpKind::kReExtractGrow, tenant, 0, kGrown));
}

std::vector<Workload> BuildWorkloads() {
  std::vector<Workload> out;
  {
    // Stage 2 (cluster) dominates: ~850 Stage-1 types at x10, and the
    // knee sweep (one recast per k) at x2. The small ops ride on x2. A
    // reader queries a static x10 copy extracted at k=6.
    Workload w;
    w.name = "dbg_extract";
    w.tenants = {{"dbg10", true, 10, false, 0}, {"dbg2", true, 2, true, 0}};
    w.writers = 3;
    w.readers = 1;
    w.query_tenant = {"dbg10q", true, 10, false, 6};
    w.cycle.push_back(MakeOp(OpKind::kLoad, 0));
    w.cycle.push_back(MakeOp(OpKind::kExtract, 0, 6));
    w.cycle.push_back(UntimedLoad(1));
    w.cycle.push_back(MakeOp(OpKind::kAutoExtract, 1, 0));
    AppendDeltas(1, &w.cycle);
    w.cycle.push_back(MakeOp(OpKind::kExtractSave, 1, 6, kGrown));
    w.headline = OpKind::kExtract;
    out.push_back(std::move(w));
  }
  {
    // Few types over a large graph: Stage 1, recast, snapshot map,
    // catalog write and query evaluation carry the time; Stage 2 is
    // bypassed. The knee sweep (one recast per k) runs on a x10 copy. A
    // reader queries a static x100 copy extracted at k=10.
    Workload w;
    w.name = "wide_catalog";
    w.tenants = {{"db1", false, 100, true, 0}, {"db1s", false, 10, false, 0}};
    w.writers = 3;
    w.readers = 1;
    w.query_tenant = {"db1q", false, 100, false, 10};
    w.cycle.push_back(MakeOp(OpKind::kLoad, 0));
    w.cycle.push_back(MakeOp(OpKind::kExtract, 0, 10));
    w.cycle.push_back(MakeOp(OpKind::kExtractSave, 0, 10));
    AppendDeltas(0, &w.cycle);
    w.cycle.push_back(UntimedLoad(1));
    w.cycle.push_back(MakeOp(OpKind::kAutoExtract, 1, 0));
    w.headline = OpKind::kExtract;
    out.push_back(std::move(w));
  }
  {
    // Reads beside writes on one shared workspace: two query
    // connections while a third mutates and re-extracts it (and runs
    // the knee sweep on a second, x2 tenant). A third reader would put
    // more runnable threads than vCPUs on the box, and the query tail
    // would then measure the host's CPU steal more than the server.
    Workload w;
    w.name = "serve_mixed";
    w.tenants = {{"dbg5", true, 5, true, 6}, {"dbg2", true, 2, false, 0}};
    w.cycle.push_back(MakeOp(OpKind::kLoad, 0));
    w.cycle.push_back(MakeOp(OpKind::kExtract, 0, 6));
    AppendDeltas(0, &w.cycle);
    w.cycle.push_back(MakeOp(OpKind::kExtractSave, 0, 6, kGrown));
    w.cycle.push_back(UntimedLoad(1));
    w.cycle.push_back(MakeOp(OpKind::kAutoExtract, 1, 0));
    w.readers = 2;
    w.headline = OpKind::kQuery;
    out.push_back(std::move(w));
  }
  return out;
}

/// Applies `ops` with the service's apply_delta semantics: add_object
/// takes the next id, links name their label.
util::Status ApplyOps(graph::DeltaOverlay& ov,
                      const std::vector<service::DeltaOp>& ops) {
  for (const service::DeltaOp& op : ops) {
    util::Status s;
    if (op.op == "add_object") {
      if (op.kind == "atomic") {
        ov.AddAtomic(op.value, op.name);
      } else {
        ov.AddComplex(op.name);
      }
    } else if (op.op == "add_link") {
      s = ov.AddEdge(static_cast<graph::ObjectId>(op.from),
                     static_cast<graph::ObjectId>(op.to),
                     std::string_view(op.label));
    } else {
      graph::LabelId label = ov.labels().Find(op.label);
      s = label == graph::kInvalidLabel
              ? util::Status::NotFound("unknown label " + op.label)
              : ov.RemoveEdge(static_cast<graph::ObjectId>(op.from),
                              static_cast<graph::ObjectId>(op.to), label);
    }
    if (!s.ok()) return s;
  }
  return util::Status::OK();
}

service::DeltaOp LinkOp(const char* kind, graph::ObjectId from,
                        graph::ObjectId to, std::string label) {
  service::DeltaOp op;
  op.op = kind;
  op.from = from;
  op.to = to;
  op.label = std::move(label);
  return op;
}

/// Type-preserving swaps: a, b in one Stage-1 block exchange the targets
/// of same-label links whose targets are interchangeable (both atomic,
/// or both complex in one block). Every local picture is unchanged.
std::vector<service::DeltaOp> SwapBatch(const graph::FrozenGraph& g,
                                        const typing::PerfectTypingResult& pt,
                                        std::mt19937_64& rng) {
  std::vector<std::vector<graph::ObjectId>> blocks(pt.program.NumTypes());
  for (graph::ObjectId o = 0; o < pt.home.size(); ++o) {
    if (pt.home[o] != typing::kInvalidType) blocks[pt.home[o]].push_back(o);
  }
  std::vector<size_t> order(blocks.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  std::set<graph::ObjectId> used;
  std::vector<service::DeltaOp> ops;
  auto home = [&](graph::ObjectId o) { return pt.home[o]; };
  for (size_t bi : order) {
    const auto& members = blocks[bi];
    for (size_t i = 0; i + 1 < members.size(); i += 2) {
      if (ops.size() >= 4 * kSwapsPerBatch) return ops;
      graph::ObjectId a = members[i], b = members[i + 1];
      if (used.count(a) || used.count(b)) continue;
      bool swapped = false;
      for (const graph::HalfEdge& ea : g.OutEdges(a)) {
        if (swapped) break;
        graph::ObjectId x = ea.other;
        if (x == a || x == b || used.count(x)) continue;
        for (const graph::HalfEdge& eb : g.OutEdges(b)) {
          graph::ObjectId y = eb.other;
          if (eb.label != ea.label || y == x || y == a || y == b ||
              used.count(y)) {
            continue;
          }
          bool interchangeable =
              (g.IsAtomic(x) && g.IsAtomic(y)) ||
              (g.IsComplex(x) && g.IsComplex(y) && home(x) == home(y));
          if (!interchangeable || g.HasEdge(a, y, ea.label) ||
              g.HasEdge(b, x, ea.label)) {
            continue;
          }
          const std::string& label = g.labels().Name(ea.label);
          ops.push_back(LinkOp("del_link", a, x, label));
          ops.push_back(LinkOp("del_link", b, y, label));
          ops.push_back(LinkOp("add_link", a, y, label));
          ops.push_back(LinkOp("add_link", b, x, label));
          // Atomic targets are shared by many objects; only complex
          // ones are reserved so no later swap re-touches them.
          for (graph::ObjectId o : {a, b, x, y}) {
            if (g.IsComplex(o)) used.insert(o);
          }
          swapped = true;
          break;
        }
      }
    }
  }
  return ops;
}

/// Partition-changing edits on `ov` (the swapped state): new complex
/// objects with a fresh attribute referenced from existing objects, new
/// links under existing labels, and deleted links. Every op is applied
/// to `ov` as it is generated, so the batch is valid by construction.
std::vector<service::DeltaOp> GrowBatch(graph::DeltaOverlay& ov,
                                        std::mt19937_64& rng) {
  std::vector<graph::ObjectId> complexes;
  for (graph::ObjectId o = 0; o < ov.NumObjects(); ++o) {
    if (ov.IsComplex(o)) complexes.push_back(o);
  }
  auto pick = [&](const std::vector<graph::ObjectId>& v) {
    return v[static_cast<size_t>(rng() % v.size())];
  };
  std::vector<service::DeltaOp> ops;
  auto keep = [&](service::DeltaOp op) {
    if (ApplyOps(ov, {op}).ok()) ops.push_back(std::move(op));
  };
  for (size_t i = 0; i < kGrowEdits; ++i) {
    graph::ObjectId c = static_cast<graph::ObjectId>(ov.NumObjects());
    service::DeltaOp obj;
    obj.op = "add_object";
    obj.kind = "complex";
    obj.name = util::StringPrintf("grown_%zu", i);
    keep(obj);
    service::DeltaOp atom;
    atom.op = "add_object";
    atom.kind = "atomic";
    atom.value = util::StringPrintf("note_%zu", i);
    keep(atom);
    keep(LinkOp("add_link", c, c + 1, "note"));
    keep(LinkOp("add_link", pick(complexes), c, "grown_ref"));
  }
  for (size_t i = 0; i < kGrowEdits; ++i) {
    graph::ObjectId from = pick(complexes);
    auto out = ov.OutEdges(from);
    if (out.empty()) continue;
    const graph::HalfEdge e = out[static_cast<size_t>(rng() % out.size())];
    keep(LinkOp("add_link", pick(complexes), e.other,
                ov.labels().Name(e.label)));
  }
  for (size_t i = 0; i < kGrowEdits; ++i) {
    graph::ObjectId from = pick(complexes);
    auto out = ov.OutEdges(from);
    if (out.empty()) continue;
    const graph::HalfEdge e = out[static_cast<size_t>(rng() % out.size())];
    keep(LinkOp("del_link", from, e.other, ov.labels().Name(e.label)));
  }
  return ops;
}

/// Path queries from random walks, so every query has a match: one or
/// two labels, with a leading `*` in a quarter of them and an
/// atomic-value filter in another quarter. The shapes rotate rather
/// than being drawn, so every seed gets the same mix of costs.
std::vector<std::string> MakeQueries(const graph::FrozenGraph& g,
                                     std::mt19937_64& rng) {
  std::vector<graph::ObjectId> starts;
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    if (g.IsComplex(o) && !g.OutEdges(o).empty()) starts.push_back(o);
  }
  std::vector<std::string> out;
  while (out.size() < kQueriesPerTenant && !starts.empty()) {
    graph::ObjectId o = starts[static_cast<size_t>(rng() % starts.size())];
    auto edges = g.OutEdges(o);
    const graph::HalfEdge e1 = edges[static_cast<size_t>(rng() % edges.size())];
    std::string q = g.labels().Name(e1.label);
    const size_t shape = out.size() % 4;
    if (shape == 1) {
      q = "*";
    } else if (shape == 2 && g.IsAtomic(e1.other)) {
      // [label="value"] keeps the start objects holding that value.
      std::string value(g.Value(e1.other));
      if (value.find('"') != std::string::npos) continue;
      q = "[" + q + "=\"" + value + "\"]";
      const graph::HalfEdge e2 =
          edges[static_cast<size_t>(rng() % edges.size())];
      q += "." + g.labels().Name(e2.label);
    }
    if (g.IsComplex(e1.other) && !g.OutEdges(e1.other).empty()) {
      auto next = g.OutEdges(e1.other);
      q += "." + g.labels().Name(
                     next[static_cast<size_t>(rng() % next.size())].label);
    }
    if (shape == 2 && q.front() != '[') continue;  // needs an atomic edge
    if (query::ParsePathQuery(q).ok()) out.push_back(std::move(q));
  }
  return out;
}

std::string Quote(const std::string& s) {
  return json::Serialize(json::Value::String(s));
}

std::string OpsJson(const std::vector<service::DeltaOp>& ops) {
  std::string out = "[";
  for (size_t i = 0; i < ops.size(); ++i) {
    const service::DeltaOp& op = ops[i];
    if (i > 0) out += ",";
    if (op.op == "add_object") {
      out += "{\"op\":\"add_object\",\"kind\":\"" + op.kind + "\"";
      if (!op.name.empty()) out += ",\"name\":" + Quote(op.name);
      if (op.kind == "atomic") out += ",\"value\":" + Quote(op.value);
      out += "}";
    } else {
      out += util::StringPrintf(
          "{\"op\":\"%s\",\"from\":%llu,\"to\":%llu,\"label\":",
          op.op.c_str(), static_cast<unsigned long long>(op.from),
          static_cast<unsigned long long>(op.to));
      out += Quote(op.label) + "}";
    }
  }
  return out + "]";
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = BuildWorkloads();
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

size_t ReaderTenant(const Workload& w) {
  return w.query_tenant.name.empty() ? 0 : w.writers * w.tenants.size();
}

const TenantSpec& SpecOf(const Workload& w, size_t index) {
  const size_t per_writer = w.writers * w.tenants.size();
  return index < per_writer ? w.tenants[index % w.tenants.size()]
                            : w.query_tenant;
}

namespace {

/// Generates one tenant (the `index`-th of its workload) and saves its
/// graph-only workspace.
util::StatusOr<Tenant> MakeTenant(const TenantSpec& spec,
                                  const std::string& name, uint64_t seed,
                                  size_t index, const std::string& workdir) {
  std::mt19937_64 rng(seed * 1000003u + index);
  gen::DatasetSpec ds = spec.dbg ? gen::DbgSpec()
                                 : gen::Table1Datasets().front().spec;
  for (gen::TypeSpec& ts : ds.types) ts.count *= spec.scale;
  SCHEMEX_ASSIGN_OR_RETURN(graph::DataGraph dg, gen::Generate(ds, rng()));

  Tenant t;
  t.name = name;
  t.dir = workdir + "/" + t.name;
  t.save_dir = workdir + "/" + t.name + "_saved";
  t.graph = graph::Freeze(dg);
  SCHEMEX_ASSIGN_OR_RETURN(
      typing::PerfectTypingResult pt,
      typing::PerfectTypingViaHashRefinement(graph::GraphView(*t.graph)));
  t.stage1_types = pt.program.NumTypes();
  t.queries = MakeQueries(*t.graph, rng);
  if (t.queries.empty()) {
    return util::Status::Internal("no queries for tenant " + t.name);
  }
  if (spec.deltas) {
    t.swap_ops = SwapBatch(*t.graph, pt, rng);
    if (t.swap_ops.empty()) {
      return util::Status::Internal("no type-preserving swap in " + t.name);
    }
    auto base = std::make_shared<graph::DeltaOverlay>(t.graph);
    auto swapped = std::make_shared<graph::DeltaOverlay>(*base);
    SCHEMEX_RETURN_IF_ERROR(ApplyOps(*swapped, t.swap_ops));
    auto grown = std::make_shared<graph::DeltaOverlay>(*swapped);
    t.grow_ops = GrowBatch(*grown, rng);
    t.states = {base, swapped, grown};
  }
  catalog::Workspace ws;
  ws.graph = t.graph;
  SCHEMEX_RETURN_IF_ERROR(catalog::SaveWorkspace(ws, t.dir));
  return t;
}

}  // namespace

util::StatusOr<std::vector<Tenant>> MakeInputs(const Workload& w,
                                               uint64_t seed,
                                               const std::string& workdir) {
  std::vector<Tenant> tenants;
  const size_t count = w.writers * w.tenants.size() +
                       (w.query_tenant.name.empty() ? 0 : 1);
  for (size_t i = 0; i < count; ++i) {
    const TenantSpec& spec = SpecOf(w, i);
    const bool shared = w.writers == 1 || &spec == &w.query_tenant;
    const std::string name =
        shared ? spec.name
               : spec.name + "_" + std::to_string(i / w.tenants.size());
    SCHEMEX_ASSIGN_OR_RETURN(Tenant t,
                             MakeTenant(spec, name, seed, i, workdir));
    tenants.push_back(std::move(t));
  }
  return tenants;
}

std::string RequestLine(int64_t id, const Op& op, const Tenant& t) {
  const std::string head =
      util::StringPrintf("{\"id\":%lld,\"verb\":", static_cast<long long>(id));
  const std::string ws = "\"workspace\":" + Quote(t.name);
  switch (op.kind) {
    case OpKind::kLoad:
      return head + "\"load_workspace\",\"params\":{\"name\":" +
             Quote(t.name) + ",\"dir\":" + Quote(t.dir) + "}}";
    case OpKind::kExtract:
    case OpKind::kAutoExtract:
      return head + "\"extract\",\"params\":{" + ws +
             util::StringPrintf(",\"k\":%llu}}",
                                static_cast<unsigned long long>(op.k));
    case OpKind::kExtractSave:
      return head + "\"extract\",\"params\":{" + ws +
             util::StringPrintf(",\"k\":%llu",
                                static_cast<unsigned long long>(op.k)) +
             ",\"save_dir\":" + Quote(t.save_dir) + "}}";
    case OpKind::kQuery:
      return head + "\"query\",\"params\":{" + ws +
             ",\"query\":" + Quote(t.queries[static_cast<size_t>(op.query)]) +
             ",\"limit\":20}}";
    case OpKind::kApplySwap:
      return head + "\"apply_delta\",\"params\":{" + ws +
             ",\"ops\":" + OpsJson(t.swap_ops) + "}}";
    case OpKind::kApplyGrow:
      return head + "\"apply_delta\",\"params\":{" + ws +
             ",\"ops\":" + OpsJson(t.grow_ops) + "}}";
    case OpKind::kReExtractSwap:
    case OpKind::kReExtractGrow:
      return head + "\"re_extract\",\"params\":{" + ws + "}}";
  }
  return head + "\"stats\"}";
}

graph::GraphView StateView(const Tenant& t, int state) {
  if (state == kBase || t.states.empty()) return graph::GraphView(*t.graph);
  return graph::GraphView(*t.states[static_cast<size_t>(state)]);
}

util::StatusOr<const Reference*> References::Get(int tenant, int state,
                                                 uint64_t k) {
  auto key = std::make_tuple(tenant, state, k);
  auto it = refs_.find(key);
  if (it != refs_.end()) return it->second.get();

  graph::GraphView g = StateView((*tenants_)[static_cast<size_t>(tenant)],
                                 state);
  extract::ExtractorOptions opt;
  size_t target = static_cast<size_t>(k);
  if (k == 0) {
    // The service's automatic k: the knee of a full sensitivity sweep
    // under the request defaults (service::ExtractParams).
    service::ExtractParams defaults;
    extract::KneeOptions knee;
    knee.max_types = static_cast<size_t>(defaults.max_types);
    knee.tolerance = defaults.epsilon;
    SCHEMEX_ASSIGN_OR_RETURN(std::vector<extract::SensitivityPoint> sweep,
                             extract::SensitivitySweep(g, opt));
    target = extract::FindKnee(sweep, knee).k;
  }
  opt.target_num_types = target;
  SCHEMEX_ASSIGN_OR_RETURN(extract::ExtractionResult r,
                           extract::SchemaExtractor(opt).Run(g));
  auto ref = std::make_unique<Reference>();
  ref->k = target;
  ref->num_final_types = r.num_final_types;
  ref->excess = r.defect.excess;
  ref->deficit = r.defect.deficit;
  ref->exact = r.recast.num_exact;
  ref->fallback = r.recast.num_fallback;
  ref->program = std::move(r.final_program);
  ref->assignment = std::move(r.recast.assignment);
  const Reference* out = ref.get();
  refs_[key] = std::move(ref);
  return out;
}

util::StatusOr<uint64_t> References::QueryCount(int tenant, int state,
                                                uint64_t k, int query) {
  auto key = std::make_tuple(tenant, state, k, query);
  auto it = counts_.find(key);
  if (it != counts_.end()) return it->second;
  SCHEMEX_ASSIGN_OR_RETURN(const Reference* ref, Get(tenant, state, k));
  const Tenant& t = (*tenants_)[static_cast<size_t>(tenant)];
  SCHEMEX_ASSIGN_OR_RETURN(
      query::PathQuery q,
      query::ParsePathQuery(t.queries[static_cast<size_t>(query)]));
  query::SchemaGuide guide(ref->program, ref->assignment);
  uint64_t n = guide.Evaluate(StateView(t, state), q).size();
  counts_[key] = n;
  return n;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(p * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

}  // namespace perfbench
