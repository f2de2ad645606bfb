// Stage 3 on the Stage-1 quotient against the per-object oracle. At every
// sweep point and for every committed extraction, typing::RecastQuotient
// (and the pipeline built on it) must equal typing::Recast +
// typing::ComputeDefect over the lifted homes: excess, deficit, the
// assignment, the GFP extents, the final homes and the three counts.
// Inputs: Table-1 DB1-DB8, DBG seeds 42/1/2/3 at x1/x2/x5, DB1 x10 and
// property_test's random graphs, each under both Stage-1 engines, roles
// on/off, the empty type on/off, GFP types on/off and the fallback
// on/off; plus hand-built graphs for the paths the corpus reaches rarely.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cluster/greedy.h"
#include "extract/extractor.h"
#include "extract/knee.h"
#include "gen/dbg.h"
#include "gen/random_graph.h"
#include "gen/spec.h"
#include "gen/table1.h"
#include "graph/data_graph.h"
#include "tests/test_util.h"
#include "typing/defect.h"
#include "typing/perfect_typing.h"
#include "typing/quotient.h"
#include "typing/recast.h"
#include "typing/roles.h"

namespace schemex {
namespace {

using typing::TypeId;
using Homes = std::vector<std::vector<TypeId>>;

/// One point of the options grid.
struct Config {
  bool gfp = false;
  bool roles = false;
  bool empty_type = true;
  bool add_gfp_types = true;
  bool fallback = true;

  std::string Name() const {
    return std::string(gfp ? "gfp" : "refinement") +
           (roles ? "/roles" : "") + (empty_type ? "/empty" : "") +
           (add_gfp_types ? "/gfp_types" : "") +
           (fallback ? "/fallback" : "");
  }

  extract::ExtractorOptions Options(size_t k = 0) const {
    extract::ExtractorOptions opt;
    opt.stage1 = gfp ? extract::ExtractorOptions::Stage1Algorithm::kGfp
                     : extract::ExtractorOptions::Stage1Algorithm::kRefinement;
    opt.decompose_roles = roles;
    opt.enable_empty_type = empty_type;
    opt.recast.add_gfp_types = add_gfp_types;
    opt.recast.nearest_type_fallback = fallback;
    opt.target_num_types = k;
    return opt;
  }
};

std::vector<Config> AllConfigs() {
  std::vector<Config> out;
  for (int bits = 0; bits < 32; ++bits) {
    out.push_back(Config{(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0,
                         (bits & 8) != 0, (bits & 16) != 0});
  }
  return out;
}

/// The per-object pair the class-level path must reproduce.
struct Oracle {
  typing::RecastResult recast;
  typing::DefectReport defect;
};

Oracle RunOracle(const typing::TypingProgram& program, graph::GraphView g,
                 const Homes& homes, const typing::RecastOptions& ro) {
  Oracle out;
  auto recast = typing::Recast(program, g, homes, ro);
  EXPECT_TRUE(recast.ok()) << recast.status().ToString();
  if (!recast.ok()) return out;
  out.recast = *std::move(recast);
  out.defect = typing::ComputeDefect(program, g, out.recast.assignment);
  return out;
}

/// Per-object home sets through a type map, the way the pipeline mapped
/// them before Stage 3 ran on classes.
Homes MapHomes(const Homes& homes, const std::vector<TypeId>& map) {
  Homes out(homes.size());
  for (size_t o = 0; o < homes.size(); ++o) {
    for (TypeId t : homes[o]) {
      TypeId m = map[static_cast<size_t>(t)];
      if (m != cluster::kEmptyType) out[o].push_back(m);
    }
    std::sort(out[o].begin(), out[o].end());
    out[o].erase(std::unique(out[o].begin(), out[o].end()), out[o].end());
  }
  return out;
}

void ExpectMatches(const typing::RecastResult& got, size_t excess,
                   size_t deficit, const Oracle& want,
                   const std::string& where) {
  EXPECT_EQ(excess, want.defect.excess) << where;
  EXPECT_EQ(deficit, want.defect.deficit) << where;
  EXPECT_EQ(got.num_exact, want.recast.num_exact) << where;
  EXPECT_EQ(got.num_fallback, want.recast.num_fallback) << where;
  EXPECT_EQ(got.num_untyped, want.recast.num_untyped) << where;
  EXPECT_TRUE(got.assignment == want.recast.assignment) << where;
  EXPECT_TRUE(got.gfp == want.recast.gfp) << where;
}

/// Stage 3 of `program` over per-object `homes` (a function of q's
/// class) both ways. Returns the class-level result.
typing::QuotientRecast CheckProgram(const typing::TypingProgram& program,
                                    graph::GraphView g,
                                    const typing::Quotient& q,
                                    const Homes& homes,
                                    const typing::RecastOptions& ro,
                                    const std::string& where) {
  Homes class_homes(q.NumClasses());
  for (size_t c = 0; c < q.NumClasses(); ++c) {
    class_homes[c] = homes[q.first[c]];
  }
  for (size_t o = 0; o < homes.size(); ++o) {
    if (q.class_of[o] != typing::kInvalidType) {
      EXPECT_EQ(homes[o], class_homes[static_cast<size_t>(q.class_of[o])])
          << where << ": homes are not a function of the class";
    }
  }
  auto r = typing::RecastQuotient(program, g, q, class_homes, ro);
  EXPECT_TRUE(r.ok()) << where << ": " << r.status().ToString();
  if (!r.ok()) return {};
  const Oracle want = RunOracle(program, g, homes, ro);
  ExpectMatches(typing::MaterializeRecast(q, *r), r->defect.excess,
                r->defect.deficit, want, where);
  return *std::move(r);
}

/// Stage 1, the roles pass and the quotient as the pipeline runs them,
/// but with the homes kept per object: the oracle's inputs.
struct Prepared {
  typing::TypingProgram program;
  Homes homes;
  std::vector<uint32_t> weights;
  typing::Quotient quotient;
};

Prepared Prepare(const graph::DataGraph& g, const Config& cfg) {
  Prepared out;
  std::vector<TypeId> classes;
  auto perfect = cfg.gfp ? typing::PerfectTypingViaGfp(g, {}, &classes)
                         : typing::PerfectTypingViaHashRefinement(g);
  EXPECT_TRUE(perfect.ok()) << perfect.status().ToString();
  if (!perfect.ok()) return out;
  if (!cfg.gfp) classes = perfect->home;
  auto q = typing::BuildQuotient(g, classes);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  if (!q.ok()) return out;
  out.quotient = std::move(*q);
  if (cfg.roles) {
    typing::RoleDecomposition roles = typing::DecomposeRoles(perfect->program);
    out.program = roles.program;
    out.homes = roles.MapHomes(perfect->home);
  } else {
    out.program = perfect->program;
    out.homes.resize(perfect->home.size());
    for (size_t o = 0; o < perfect->home.size(); ++o) {
      if (perfect->home[o] != typing::kInvalidType) {
        out.homes[o] = {perfect->home[o]};
      }
    }
  }
  out.weights.assign(out.program.NumTypes(), 0);
  for (const auto& hs : out.homes) {
    for (TypeId t : hs) ++out.weights[static_cast<size_t>(t)];
  }
  return out;
}

/// A committed extraction against the oracle over the same program and
/// the per-object homes mapped through its clustering.
void CheckCommitted(const graph::DataGraph& g, const Prepared& s,
                    const extract::ExtractorOptions& opt,
                    const extract::ExtractionResult& r, bool sweep,
                    const std::string& where) {
  const Homes homes =
      r.clustering_applied ? MapHomes(s.homes, r.clustering.final_map)
                           : s.homes;
  EXPECT_EQ(r.final_homes, homes) << where;
  EXPECT_EQ(r.quotient_classes, s.quotient.NumClasses()) << where;
  // A sweep's commit always runs on the quotient; one program only where
  // it pays.
  const bool on_quotient =
      sweep || 2 * s.quotient.NumClasses() <= g.NumComplexObjects();
  EXPECT_EQ(r.quotient_triples, on_quotient ? s.quotient.NumTriples() : 0)
      << where;
  ExpectMatches(r.recast, r.defect.excess, r.defect.deficit,
                RunOracle(r.final_program, g, homes, opt.recast), where);
}

/// Tallies over a run of CheckSweep calls: the grid has to reach both
/// fallback paths for the comparison to mean anything.
struct Reach {
  size_t points = 0;
  size_t per_object_points = 0;
  size_t split_points = 0;
};

/// Every sweep point (k <= max_k, 0 = all) of `cfg` both ways, the
/// pipeline's sweep and auto-k against those points, and the committed
/// results of auto-k, of a fixed k and of a k past the type count.
void CheckSweep(const graph::DataGraph& g, const Config& cfg, size_t max_k,
                const std::string& name, Reach* reach) {
  const std::string where = name + " " + cfg.Name();
  const Prepared s = Prepare(g, cfg);
  const typing::RecastOptions ro = cfg.Options().recast;
  auto ladder = cluster::ClusterTypes(
      s.program, s.weights,
      {.psi = cluster::PsiKind::kPsi2,
       .target_num_types = 1,
       .enable_empty_type = cfg.empty_type,
       .record_snapshots = true,
       .max_snapshot_types = max_k});
  ASSERT_TRUE(ladder.ok()) << where << ": " << ladder.status().ToString();
  std::vector<extract::SensitivityPoint> want;
  for (const cluster::Snapshot& snap : ladder->snapshots) {
    const std::string at = where + " k=" + std::to_string(snap.num_types);
    const typing::QuotientRecast r =
        CheckProgram(snap.program, g, s.quotient,
                     MapHomes(s.homes, snap.stage1_to_snapshot), ro, at);
    ++reach->points;
    if (r.per_object_fallback) ++reach->per_object_points;
    if (r.objects.has_value()) ++reach->split_points;
    want.push_back(extract::SensitivityPoint{
        snap.num_types, snap.total_distance, r.defect.excess,
        r.defect.deficit, r.defect.defect()});
  }

  auto sweep = extract::SensitivitySweep(g, cfg.Options(), max_k);
  ASSERT_TRUE(sweep.ok()) << where << ": " << sweep.status().ToString();
  EXPECT_EQ(*sweep, want) << where;

  auto knee = extract::ExtractAtKnee(
      g, cfg.Options(), {.max_types = max_k == 0 ? g.NumObjects() : max_k});
  ASSERT_TRUE(knee.ok()) << where << ": " << knee.status().ToString();
  EXPECT_EQ(knee->points, want) << where;
  CheckCommitted(g, s, cfg.Options(knee->knee.k), knee->result,
                 /*sweep=*/true, where + " knee");

  const size_t n = s.program.NumTypes();
  for (size_t k : {std::max<size_t>(1, n / 2), n + 1}) {
    auto run = extract::SchemaExtractor(cfg.Options(k)).Run(g);
    ASSERT_TRUE(run.ok()) << where << ": " << run.status().ToString();
    CheckCommitted(g, s, cfg.Options(k), *run, /*sweep=*/false,
                   where + " run k=" + std::to_string(k));
  }
}

void CheckAllConfigs(const graph::DataGraph& g, size_t max_k,
                     const std::string& name, Reach* reach) {
  for (const Config& cfg : AllConfigs()) {
    CheckSweep(g, cfg, max_k, name, reach);
    if (::testing::Test::HasFailure()) return;  // one config's report
  }
}

util::StatusOr<graph::DataGraph> ScaledDbg(uint64_t seed, size_t scale) {
  gen::DatasetSpec spec = gen::DbgSpec();
  for (auto& t : spec.types) t.count *= scale;
  return gen::Generate(spec, seed);
}

// --- The corpus -----------------------------------------------------------

class Table1Quotient : public ::testing::TestWithParam<size_t> {};

TEST_P(Table1Quotient, EveryPointAndCommitEqualsTheOracle) {
  const gen::Table1Entry entry = gen::Table1Datasets()[GetParam()];
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::MakeTable1Database(entry));
  Reach reach;
  CheckAllConfigs(g, /*max_k=*/40, entry.db_name, &reach);
  EXPECT_GT(reach.points, 0u);
}

INSTANTIATE_TEST_SUITE_P(DB, Table1Quotient, ::testing::Range<size_t>(0, 8));

struct DbgCase {
  uint64_t seed;
  size_t scale;
};

class DbgQuotient : public ::testing::TestWithParam<DbgCase> {};

TEST_P(DbgQuotient, EveryPointAndCommitEqualsTheOracle) {
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g,
                       ScaledDbg(GetParam().seed, GetParam().scale));
  Reach reach;
  CheckAllConfigs(g, /*max_k=*/20,
                  "DBG seed " + std::to_string(GetParam().seed) + " x" +
                      std::to_string(GetParam().scale),
                  &reach);
  EXPECT_GT(reach.points, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DbgQuotient,
    ::testing::Values(DbgCase{42, 1}, DbgCase{1, 1}, DbgCase{2, 1},
                      DbgCase{3, 1}, DbgCase{42, 2}, DbgCase{1, 2},
                      DbgCase{2, 2}, DbgCase{3, 2}, DbgCase{42, 5},
                      DbgCase{1, 5}, DbgCase{2, 5}, DbgCase{3, 5}));

TEST(Stage3Quotient, Db1TimesTenEqualsTheOracle) {
  gen::DatasetSpec spec = gen::Table1Datasets().front().spec;
  for (auto& t : spec.types) t.count *= 10;
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::Generate(spec, 42));
  Reach reach;
  CheckAllConfigs(g, /*max_k=*/20, "DB1 x10", &reach);
  EXPECT_GT(reach.points, 0u);
}

class RandomQuotient : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomQuotient, EveryPointAndCommitEqualsTheOracle) {
  // property_test's random graphs.
  gen::RandomGraphOptions opt;
  opt.num_complex = 60;
  opt.num_atomic = 40;
  opt.num_edges = 150;
  opt.num_labels = 5;
  opt.atomic_target_fraction = 0.4;
  opt.seed = GetParam();
  const graph::DataGraph g = gen::RandomGraph(opt);
  Reach reach;
  CheckAllConfigs(g, /*max_k=*/0, "random " + std::to_string(GetParam()),
                  &reach);
  EXPECT_GT(reach.points, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomQuotient,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

TEST(Stage3Quotient, CorpusReachesThePerObjectFallback) {
  // DB2 with the empty type: straggler classes are adjacent at some k,
  // so the comparison covers the per-object path, not only the classes.
  const gen::Table1Entry entry = gen::Table1Datasets()[1];
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::MakeTable1Database(entry));
  Reach reach;
  CheckSweep(g, Config{}, /*max_k=*/40, entry.db_name, &reach);
  EXPECT_GT(reach.per_object_points, 0u);
}

// --- Hand-built cases -----------------------------------------------------

typing::Quotient RefinementQuotient(const graph::DataGraph& g) {
  auto perfect = typing::PerfectTypingViaHashRefinement(g);
  EXPECT_TRUE(perfect.ok());
  auto q = typing::BuildQuotient(g, perfect->home);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(*q);
}

TEST(Stage3Quotient, AdjacentStragglersSplitAClass) {
  // x1 -e-> y1 and x2 -e-> y2, created in the order x1, y1, y2, x2, so
  // the in-order fallback types y1 after x1 but y2 before x2. No object
  // satisfies or is homed in any type, so all four are stragglers:
  //   P = ->f^0, Q = <-e^P ->g^0, R = ->h^0.
  // x1 sees nothing typed: P (tie with R, lowest id). y1 sees <-e^P: Q.
  // y2 sees nothing typed: P. x2 sees ->e^P: P. Class {y1, y2} splits.
  graph::DataGraph g;
  const graph::ObjectId x1 = g.AddComplex("x1");
  const graph::ObjectId y1 = g.AddComplex("y1");
  const graph::ObjectId y2 = g.AddComplex("y2");
  const graph::ObjectId x2 = g.AddComplex("x2");
  ASSERT_OK(g.AddEdge(x1, y1, "e"));
  ASSERT_OK(g.AddEdge(x2, y2, "e"));
  const graph::LabelId e = g.labels().Find("e");
  const graph::LabelId f = g.InternLabel("f");
  const graph::LabelId gl = g.InternLabel("g");
  const graph::LabelId h = g.InternLabel("h");
  typing::TypingProgram p;
  const TypeId tp = p.AddType(
      "P", typing::TypeSignature::FromLinks({typing::TypedLink::OutAtomic(f)}));
  const TypeId tq = p.AddType(
      "Q", typing::TypeSignature::FromLinks({typing::TypedLink::In(e, tp),
                                             typing::TypedLink::OutAtomic(gl)}));
  p.AddType("R",
            typing::TypeSignature::FromLinks({typing::TypedLink::OutAtomic(h)}));

  const typing::Quotient q = RefinementQuotient(g);
  ASSERT_EQ(q.NumClasses(), 2u);
  const typing::QuotientRecast r =
      CheckProgram(p, g, q, Homes(g.NumObjects()), {}, "split");
  EXPECT_TRUE(r.per_object_fallback);
  ASSERT_TRUE(r.objects.has_value());
  EXPECT_EQ(r.objects->TypesOf(y1), std::vector<TypeId>{tq});
  EXPECT_EQ(r.objects->TypesOf(y2), std::vector<TypeId>{tp});
  EXPECT_EQ(r.objects->TypesOf(x1), std::vector<TypeId>{tp});
  EXPECT_EQ(r.objects->TypesOf(x2), std::vector<TypeId>{tp});
}

TEST(Stage3Quotient, OutFactEqualToInFactCountsOnce) {
  // a1, a2 are homed in T = ->l^U, b1, b2 in U = <-l^T, and no l edge
  // exists. Every a invents (a, member[U] = b1, l) and every b invents
  // (member[T] = a1, b, l): four facts per class count, but
  // (a1, b1, l) is both, so the deficit is 3.
  graph::DataGraph g;
  const graph::ObjectId a1 = g.AddComplex("a1");
  const graph::ObjectId b1 = g.AddComplex("b1");
  const graph::ObjectId a2 = g.AddComplex("a2");
  const graph::ObjectId b2 = g.AddComplex("b2");
  const graph::ObjectId v = g.AddAtomic("v");
  for (graph::ObjectId o : {a1, a2}) ASSERT_OK(g.AddEdge(o, v, "x"));
  for (graph::ObjectId o : {b1, b2}) ASSERT_OK(g.AddEdge(o, v, "y"));
  const graph::LabelId l = g.InternLabel("l");
  typing::TypingProgram p;
  const TypeId t = p.AddType("T", {});
  const TypeId u = p.AddType("U", {});
  p.type(t).signature =
      typing::TypeSignature::FromLinks({typing::TypedLink::Out(l, u)});
  p.type(u).signature =
      typing::TypeSignature::FromLinks({typing::TypedLink::In(l, t)});
  Homes homes(g.NumObjects());
  homes[a1] = homes[a2] = {t};
  homes[b1] = homes[b2] = {u};

  const typing::Quotient q = RefinementQuotient(g);
  ASSERT_EQ(q.NumClasses(), 2u);
  const typing::QuotientRecast r = CheckProgram(p, g, q, homes, {}, "overlap");
  EXPECT_EQ(r.defect.deficit, 3u);
  EXPECT_EQ(r.defect.excess, 4u);
  EXPECT_FALSE(r.per_object_fallback);
}

TEST(Stage3Quotient, SelfLoopStragglerRunsPerObject) {
  // A ring o1 -l-> o2 -l-> o3 -l-> o1 is one class with the triple
  // (c, l, c): a straggler class adjacent to itself. No atomic object.
  graph::DataGraph g;
  const graph::ObjectId o1 = g.AddComplex();
  const graph::ObjectId o2 = g.AddComplex();
  const graph::ObjectId o3 = g.AddComplex();
  ASSERT_OK(g.AddEdge(o1, o2, "l"));
  ASSERT_OK(g.AddEdge(o2, o3, "l"));
  ASSERT_OK(g.AddEdge(o3, o1, "l"));
  const graph::LabelId l = g.labels().Find("l");
  const graph::LabelId m = g.InternLabel("m");
  typing::TypingProgram p;
  const TypeId a = p.AddType(
      "A", typing::TypeSignature::FromLinks({typing::TypedLink::OutAtomic(m)}));
  p.AddType("B", typing::TypeSignature::FromLinks(
                     {typing::TypedLink::In(l, a),
                      typing::TypedLink::OutAtomic(m)}));

  const typing::Quotient q = RefinementQuotient(g);
  ASSERT_EQ(q.NumClasses(), 1u);
  EXPECT_EQ(q.smallest_atomic, graph::kInvalidObject);
  const typing::QuotientRecast r =
      CheckProgram(p, g, q, Homes(g.NumObjects()), {}, "self-loop");
  EXPECT_TRUE(r.per_object_fallback);

  // The whole grid on the ring.
  Reach reach;
  CheckAllConfigs(g, /*max_k=*/0, "ring", &reach);
}

TEST(Stage3Quotient, GraphWithoutAtomicObjects) {
  gen::RandomGraphOptions opt;
  opt.num_complex = 40;
  opt.num_atomic = 0;
  opt.num_edges = 90;
  opt.num_labels = 3;
  opt.atomic_target_fraction = 0.0;
  opt.seed = 11;
  const graph::DataGraph g = gen::RandomGraph(opt);
  ASSERT_EQ(g.NumAtomicObjects(), 0u);
  Reach reach;
  CheckAllConfigs(g, /*max_k=*/0, "no atomic", &reach);
  EXPECT_GT(reach.points, 0u);
}

TEST(Stage3Quotient, EmptyGraph) {
  const graph::DataGraph g;
  Reach reach;
  CheckAllConfigs(g, /*max_k=*/20, "empty", &reach);
  auto run = extract::SchemaExtractor(Config{}.Options(3)).Run(g);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->quotient_classes, 0u);
  EXPECT_EQ(run->quotient_triples, 0u);
  EXPECT_EQ(run->recast.assignment.NumObjects(), 0u);
}

TEST(Stage3Quotient, KneeAtTheTypeCount) {
  // DB3 has 12 perfect types, fewer than the default cap of 20, and its
  // knee is the perfect typing itself (defect 0 at k = n).
  const gen::Table1Entry entry = gen::Table1Datasets()[2];
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::MakeTable1Database(entry));
  for (const Config& cfg : {Config{}, Config{.gfp = true}}) {
    const Prepared s = Prepare(g, cfg);
    const size_t n = s.program.NumTypes();
    auto knee = extract::ExtractAtKnee(g, cfg.Options());
    ASSERT_TRUE(knee.ok()) << knee.status().ToString();
    EXPECT_EQ(knee->knee.k, n);
    EXPECT_FALSE(knee->result.clustering_applied);
    CheckCommitted(g, s, cfg.Options(n), knee->result, /*sweep=*/true,
                   "DB3 knee at n");
  }
}

TEST(Stage3Quotient, GfpEngineKeepsTheRefinementClasses) {
  // DB7's 247 refinement classes merge into 245 types under stage1: gfp.
  // The merged types are not stable (members of one merged type have
  // different pictures over the merged types), so Stage 3's quotient
  // must come from the refinement classes.
  const gen::Table1Entry entry = gen::Table1Datasets()[6];
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::MakeTable1Database(entry));
  std::vector<TypeId> classes;
  ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult merged,
                       typing::PerfectTypingViaGfp(g, {}, &classes));
  ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult refinement,
                       typing::PerfectTypingViaHashRefinement(g));
  EXPECT_EQ(classes, refinement.home);
  EXPECT_LT(merged.program.NumTypes(), refinement.program.NumTypes());

  auto picture = [&](graph::ObjectId o) {
    std::vector<std::tuple<bool, graph::LabelId, TypeId>> p;
    for (const graph::HalfEdge& e : g.OutEdges(o)) {
      p.emplace_back(true, e.label,
                     g.IsAtomic(e.other) ? typing::kAtomicType
                                         : merged.home[e.other]);
    }
    for (const graph::HalfEdge& e : g.InEdges(o)) {
      p.emplace_back(false, e.label, merged.home[e.other]);
    }
    std::sort(p.begin(), p.end());
    p.erase(std::unique(p.begin(), p.end()), p.end());
    return p;
  };
  bool unstable = false;
  std::vector<graph::ObjectId> first(merged.program.NumTypes(),
                                     graph::kInvalidObject);
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    if (!g.IsComplex(o)) continue;
    graph::ObjectId& f = first[static_cast<size_t>(merged.home[o])];
    if (f == graph::kInvalidObject) {
      f = o;
    } else if (picture(o) != picture(f)) {
      unstable = true;
    }
  }
  EXPECT_TRUE(unstable);

  auto run = extract::SchemaExtractor(Config{.gfp = true}.Options(5)).Run(g);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->quotient_classes, refinement.program.NumTypes());
}

TEST(Stage3Quotient, UnstablePartitionIsRejected) {
  // x1 and x2 differ (only x2 has a c edge); a partition that joins them
  // is not a bisimulation, and the edge the first member lacks says so.
  graph::DataGraph g;
  const graph::ObjectId x1 = g.AddComplex("x1");
  const graph::ObjectId x2 = g.AddComplex("x2");
  const graph::ObjectId v = g.AddAtomic("v");
  ASSERT_OK(g.AddEdge(x1, v, "b"));
  ASSERT_OK(g.AddEdge(x2, v, "b"));
  ASSERT_OK(g.AddEdge(x2, v, "c"));
  std::vector<TypeId> joined(g.NumObjects(), typing::kInvalidType);
  joined[x1] = joined[x2] = 0;
  EXPECT_EQ(typing::BuildQuotient(g, joined).status().code(),
            util::StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace schemex
