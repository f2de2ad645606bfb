// Schema-guided query pruning — quantifying the paper's §1 motivation
// ("performance is greatly improved by taking advantage of the existing
// structure").
//
// Default mode: for a battery of path queries over a scaled-up DBG-style
// database, compares full evaluation against SchemaGuide-pruned
// evaluation under (a) the minimal perfect typing (pruning provably
// exact: zero excess) and (b) the 6-type approximate typing (pruning may
// under-report through excess edges; recall is measured).
//
// --json: what a guided query costs on the serving path, before and
// after the per-generation query::QueryIndex. Datasets are Table-1 DB1
// x100 extracted at k = 10 (perfbench's wide_catalog query tenant) and
// DBG x20 at k = 6. Queries are random walks in perfbench's shapes:
// `label` (one or two labels), `star` (`*` then a label), `filter`
// (`[l="v"]` then a label), and `mix` (all of them in perfbench's 2:1:1
// rotation). Variants, one row each per (dataset, shape):
//   before      the old server path: a SchemaGuide per query, the
//               StartCandidates scan of every object's types, and steps
//               that walk whole adjacency rows (tests/query_oracle.h)
//   label_runs  SchemaGuide::Evaluate: the same scan, steps through label
//               runs only
//   after       QueryIndex::Evaluate on a prebuilt index: start frontier
//               from the start types' extents, steps through label runs
// Each row gives the median and quartiles of `runs` timed passes over
// the shape's queries (us per query), scanned edges and results per
// query. An `index` row per dataset gives the build time (median and
// quartiles) and bytes. Every row carries hardware_concurrency. The run
// exits 1 if any variant's result differs from another's.
//
// Flags:
//   --json        the rows above, one JSON object per line
//   --smoke       DB1 x5 and DBG x2, fewer queries and runs (CI-sized;
//                 `ctest -L bench-smoke`)

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "extract/extractor.h"
#include "gen/dbg.h"
#include "gen/spec.h"
#include "gen/table1.h"
#include "graph/frozen_graph.h"
#include "query/path_query.h"
#include "query/query_index.h"
#include "query/schema_guide.h"
#include "tests/query_oracle.h"
#include "typing/perfect_typing.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace {

using namespace schemex;  // NOLINT

graph::DataGraph MakeBigDbg() {
  gen::DatasetSpec spec = gen::DbgSpec();
  for (auto& t : spec.types) t.count *= 20;  // ~9k objects
  auto g = gen::Generate(spec, 77);
  return std::move(g).value();
}

int RunTable() {
  graph::DataGraph g = MakeBigDbg();
  std::cout << util::StringPrintf(
      "== Schema-guided path queries (DBG x20: %zu objects, %zu links) ==\n",
      g.NumObjects(), g.NumEdges());

  // Perfect typing: exact pruning.
  auto stage1 = typing::PerfectTypingViaHashRefinement(g);
  typing::TypeAssignment perfect_tau(g.NumObjects());
  for (size_t o = 0; o < stage1->home.size(); ++o) {
    if (stage1->home[o] != typing::kInvalidType) {
      perfect_tau.Assign(static_cast<graph::ObjectId>(o), stage1->home[o]);
    }
  }
  query::SchemaGuide perfect_guide(stage1->program, perfect_tau);

  // Approximate typing: 6 types.
  extract::ExtractorOptions opt;
  opt.target_num_types = 6;
  auto approx = extract::SchemaExtractor(opt).Run(g);
  query::SchemaGuide approx_guide(approx->final_program,
                                  approx->recast.assignment);

  util::TablePrinter table;
  table.SetHeader({"query", "results", "visited (full)",
                   "visited (perfect)", "visited (approx)", "speedup",
                   "approx recall"});
  for (const char* text :
       {"author.name", "advisor.email", "birthday.month", "degree.school",
        "project_member.advisor.name", "author.publication.name",
        "postscript", "nickname"}) {
    auto q = query::ParsePathQuery(text);
    query::QueryStats full_s, perf_s, approx_s;
    auto full = query::EvaluatePathQuery(g, *q, {}, &full_s);
    auto perf = perfect_guide.Evaluate(g, *q, &perf_s);
    auto appr = approx_guide.Evaluate(g, *q, &approx_s);
    if (perf != full) {
      std::cerr << "BUG: perfect-typing pruning changed the result of "
                << text << "\n";
      return 1;
    }
    size_t hit = 0;
    for (graph::ObjectId o : appr) {
      hit += std::binary_search(full.begin(), full.end(), o) ? 1 : 0;
    }
    double recall = full.empty() ? 1.0
                                 : static_cast<double>(hit) /
                                       static_cast<double>(full.size());
    table.AddRow(
        {text, util::StringPrintf("%zu", full.size()),
         util::StringPrintf("%zu", full_s.objects_visited),
         util::StringPrintf("%zu", perf_s.objects_visited),
         util::StringPrintf("%zu", approx_s.objects_visited),
         util::StringPrintf("%.1fx", perf_s.objects_visited == 0
                                         ? 0.0
                                         : static_cast<double>(
                                               full_s.objects_visited) /
                                               static_cast<double>(
                                                   perf_s.objects_visited)),
         util::StringPrintf("%.0f%%", 100.0 * recall)});
  }
  table.Print(std::cout);
  std::cout << "\nReading: pruning with the (zero-excess) perfect typing "
               "is exact and skips most of the\ndatabase; the compact "
               "approximate schema prunes further at the cost of recall "
               "through\nexcess edges — the defect/size trade-off again, "
               "now on the query path.\n";
  return 0;
}

/// The value at quantile q of ascending `v`, interpolating linearly.
double Quantile(const std::vector<double>& v, double q) {
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

struct Spread {
  double median = 0, q1 = 0, q3 = 0;
};

Spread SpreadOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return {Quantile(v, 0.5), Quantile(v, 0.25), Quantile(v, 0.75)};
}

/// A guided-query dataset: a generated graph and an extraction's schema.
struct Dataset {
  const char* name;  ///< "db1" or "dbg"
  int scale;
  uint64_t k;
};

struct Shape {
  std::string name;
  std::vector<query::PathQuery> queries;
};

/// Random-walk queries in perfbench's shapes, so every query matches
/// something: `label` is one or two labels, `star` is `*` then the
/// walk's next label, `filter` keeps the start objects holding a value
/// and then steps one label.
std::vector<Shape> MakeShapes(const graph::FrozenGraph& g, size_t per_shape,
                              uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<graph::ObjectId> starts;
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    if (g.IsComplex(o) && !g.OutEdges(o).empty()) starts.push_back(o);
  }
  std::vector<Shape> shapes = {{"label", {}}, {"star", {}}, {"filter", {}}};
  auto name = [&](graph::LabelId l) { return g.labels().Name(l); };
  for (size_t guard = 0; guard < 1000 * per_shape; ++guard) {
    bool full = true;
    for (const Shape& s : shapes) full = full && s.queries.size() >= per_shape;
    if (full || starts.empty()) break;
    graph::ObjectId o = starts[rng() % starts.size()];
    auto edges = g.OutEdges(o);
    const graph::HalfEdge e1 = edges[rng() % edges.size()];
    std::string next;
    if (g.IsComplex(e1.other) && !g.OutEdges(e1.other).empty()) {
      auto row = g.OutEdges(e1.other);
      next = "." + std::string(name(row[rng() % row.size()].label));
    }
    const size_t shape = rng() % 3;
    std::string text;
    if (shape == 0) {
      text = std::string(name(e1.label)) + next;
    } else if (shape == 1) {
      text = "*" + next;
    } else {
      if (!g.IsAtomic(e1.other)) continue;
      std::string value(g.Value(e1.other));
      if (value.find('"') != std::string::npos) continue;
      const graph::HalfEdge e2 = edges[rng() % edges.size()];
      text = "[" + std::string(name(e1.label)) + "=\"" + value + "\"]." +
             std::string(name(e2.label));
    }
    if (shapes[shape].queries.size() >= per_shape) continue;
    auto q = query::ParsePathQuery(text);
    if (q.ok()) shapes[shape].queries.push_back(std::move(q).value());
  }
  // perfbench's rotation: label, star, filter, label.
  Shape mix{"mix", {}};
  for (size_t i = 0; i < per_shape; ++i) {
    const Shape& from = shapes[i % 4 == 3 ? 0 : i % 4];
    if (i < from.queries.size()) mix.queries.push_back(from.queries[i]);
  }
  shapes.push_back(std::move(mix));
  return shapes;
}

constexpr const char* kVariants[] = {"before", "label_runs", "after"};

int RunJson(bool smoke) {
  const std::vector<Dataset> datasets =
      smoke ? std::vector<Dataset>{{"db1", 5, 10}, {"dbg", 2, 6}}
            : std::vector<Dataset>{{"db1", 100, 10}, {"dbg", 20, 6}};
  const size_t per_shape = smoke ? 8 : 32;
  const int runs = smoke ? 3 : 11;
  const unsigned cores = std::thread::hardware_concurrency();
  bool identical = true;

  for (const Dataset& ds : datasets) {
    const bool dbg = std::strcmp(ds.name, "dbg") == 0;
    gen::DatasetSpec spec =
        dbg ? gen::DbgSpec() : gen::Table1Datasets().front().spec;
    for (auto& t : spec.types) t.count *= static_cast<size_t>(ds.scale);
    auto dg = gen::Generate(spec, 4242);
    if (!dg.ok()) return 1;
    std::shared_ptr<const graph::FrozenGraph> frozen = graph::Freeze(*dg);
    const graph::GraphView g(*frozen);
    extract::ExtractorOptions opt;
    opt.target_num_types = ds.k;
    auto r = extract::SchemaExtractor(opt).Run(g);
    if (!r.ok()) return 1;
    const typing::TypingProgram& program = r->final_program;
    const typing::TypeAssignment& tau = r->recast.assignment;

    const std::string head = util::StringPrintf(
        "{\"bench\":\"query\",\"dataset\":\"%s\",\"scale\":%d,\"k\":%llu,"
        "\"objects\":%zu,\"edges\":%zu,\"num_types\":%zu,",
        ds.name, ds.scale, static_cast<unsigned long long>(ds.k),
        g.NumObjects(), g.NumEdges(), program.NumTypes());

    // The index: built once per generation on the serving path.
    std::vector<double> build_us;
    size_t index_bytes = 0;
    for (int i = 0; i < runs; ++i) {
      util::WallTimer t;
      query::QueryIndex built(program, tau);
      build_us.push_back(t.ElapsedSeconds() * 1e6);
      index_bytes = built.MemoryUsage();
    }
    const Spread build = SpreadOf(build_us);
    std::printf(
        "%s\"variant\":\"index\",\"runs\":%d,\"build_us_median\":%.1f,"
        "\"build_us_q1\":%.1f,\"build_us_q3\":%.1f,\"index_bytes\":%zu,"
        "\"typed_objects\":%zu,\"hardware_concurrency\":%u}\n",
        head.c_str(), runs, build.median, build.q1, build.q3, index_bytes,
        tau.NumTypedObjects(), cores);
    const query::QueryIndex index(program, tau);

    auto evaluate = [&](size_t variant, const query::PathQuery& q,
                        query::QueryStats* stats) {
      if (variant == 2) return index.Evaluate(g, q, nullptr, stats).value();
      query::SchemaGuide guide(program, tau);  // per query, as served
      if (variant == 1) return guide.Evaluate(g, q, stats);
      std::vector<graph::ObjectId> starts = guide.StartCandidates(g, q);
      if (starts.empty()) {
        *stats = query::QueryStats{};
        return std::vector<graph::ObjectId>{};
      }
      return test::OracleEvaluatePathQuery(g, q, starts, stats);
    };

    for (const Shape& shape : MakeShapes(*frozen, per_shape, 99)) {
      if (shape.queries.empty()) continue;
      const double n = static_cast<double>(shape.queries.size());
      // Every variant must return the same sets; tally edges and results.
      double edges[3] = {0, 0, 0}, results = 0;
      for (const query::PathQuery& q : shape.queries) {
        std::vector<graph::ObjectId> want;
        for (size_t v = 0; v < 3; ++v) {
          query::QueryStats stats;
          std::vector<graph::ObjectId> got = evaluate(v, q, &stats);
          edges[v] += static_cast<double>(stats.edges_scanned);
          if (v == 0) {
            want = std::move(got);
            results += static_cast<double>(want.size());
          } else if (got != want) {
            std::fprintf(stderr, "%s x%d %s: %s differs from before\n",
                         ds.name, ds.scale, shape.name.c_str(),
                         kVariants[v]);
            identical = false;
          }
        }
      }
      // Timed passes, variants interleaved so drift hits all of them.
      std::vector<double> us[3];
      for (int run = 0; run < runs; ++run) {
        for (size_t v = 0; v < 3; ++v) {
          util::WallTimer t;
          size_t sink = 0;
          for (const query::PathQuery& q : shape.queries) {
            query::QueryStats stats;
            sink += evaluate(v, q, &stats).size();
          }
          us[v].push_back(t.ElapsedSeconds() * 1e6 / n);
          if (sink == static_cast<size_t>(-1)) std::abort();
        }
      }
      for (size_t v = 0; v < 3; ++v) {
        const Spread s = SpreadOf(us[v]);
        std::printf(
            "%s\"variant\":\"%s\",\"shape\":\"%s\",\"queries\":%zu,"
            "\"runs\":%d,\"us_median\":%.2f,\"us_q1\":%.2f,\"us_q3\":%.2f,"
            "\"edges_per_query\":%.1f,\"results_per_query\":%.1f,"
            "\"hardware_concurrency\":%u}\n",
            head.c_str(), kVariants[v], shape.name.c_str(),
            shape.queries.size(), runs, s.median, s.q1, s.q3, edges[v] / n,
            results / n, cores);
      }
    }
  }
  if (!identical) {
    std::fprintf(stderr, "bench_query: variants disagree\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--json [--smoke]]\n", argv[0]);
      return 2;
    }
  }
  return json ? RunJson(smoke) : RunTable();
}
