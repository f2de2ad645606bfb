#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "gen/dbg.h"
#include "gen/perturb.h"
#include "gen/random_graph.h"
#include "gen/spec.h"
#include "gen/table1.h"
#include "tests/gfp_oracle.h"
#include "tests/test_util.h"
#include "typing/perfect_typing.h"

namespace schemex::typing {
namespace {

graph::ObjectId Obj(const graph::DataGraph& g, const char* name) {
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    if (g.Name(o) == name) return o;
  }
  return graph::kInvalidObject;
}

/// Canonicalizes a home assignment for partition comparison: the induced
/// partition of complex objects, as sorted blocks of object ids.
std::vector<std::vector<graph::ObjectId>> Partition(
    const std::vector<TypeId>& home) {
  std::map<TypeId, std::vector<graph::ObjectId>> blocks;
  for (size_t o = 0; o < home.size(); ++o) {
    if (home[o] != kInvalidType) {
      blocks[home[o]].push_back(static_cast<graph::ObjectId>(o));
    }
  }
  std::vector<std::vector<graph::ObjectId>> out;
  for (auto& [t, block] : blocks) out.push_back(std::move(block));
  std::sort(out.begin(), out.end());
  return out;
}

class Example42 : public ::testing::TestWithParam<bool> {
 protected:
  util::StatusOr<PerfectTypingResult> RunStage1(const graph::DataGraph& g) {
    return GetParam() ? PerfectTypingViaGfp(g)
                      : PerfectTypingViaHashRefinement(g);
  }
};

TEST_P(Example42, FigureFourYieldsThreeTypes) {
  // The paper's Example 4.2: candidate types type2 and type3 have equal
  // extents {o2,o3,o4} and merge; the minimal perfect typing has 3 types.
  graph::DataGraph g = test::MakeFigure4Database();
  ASSERT_OK_AND_ASSIGN(PerfectTypingResult r, RunStage1(g));
  EXPECT_EQ(r.program.NumTypes(), 3u);

  TypeId h1 = r.home[Obj(g, "o1")];
  TypeId h2 = r.home[Obj(g, "o2")];
  TypeId h3 = r.home[Obj(g, "o3")];
  TypeId h4 = r.home[Obj(g, "o4")];
  EXPECT_EQ(h2, h3);  // o2 and o3 share a home type
  EXPECT_NE(h1, h2);
  EXPECT_NE(h4, h2);
  EXPECT_NE(h1, h4);

  // Weights: home of o1 has 1 object, o2/o3's has 2, o4's has 1.
  EXPECT_EQ(r.weight[static_cast<size_t>(h1)], 1u);
  EXPECT_EQ(r.weight[static_cast<size_t>(h2)], 2u);
  EXPECT_EQ(r.weight[static_cast<size_t>(h4)], 1u);

  // Rule bodies (the paper's P_D): o2's home is {<-a^h1, ->b^0}; o4's is
  // {<-a^h1, ->b^0, ->c^0}; o1's has outgoing a-links to both homes.
  graph::LabelId a = g.labels().Find("a");
  graph::LabelId b = g.labels().Find("b");
  graph::LabelId c = g.labels().Find("c");
  EXPECT_EQ(r.program.type(h2).signature,
            TypeSignature::FromLinks(
                {TypedLink::In(a, h1), TypedLink::OutAtomic(b)}));
  EXPECT_EQ(r.program.type(h4).signature,
            TypeSignature::FromLinks({TypedLink::In(a, h1),
                                      TypedLink::OutAtomic(b),
                                      TypedLink::OutAtomic(c)}));
  EXPECT_EQ(r.program.type(h1).signature,
            TypeSignature::FromLinks(
                {TypedLink::Out(a, h2), TypedLink::Out(a, h4)}));

  // Atomic objects have no home.
  EXPECT_EQ(r.home[Obj(g, "o5")], kInvalidType);
  EXPECT_EQ(r.NumComplexObjects(), 4u);
}

TEST_P(Example42, PerfectTypingHasZeroDeficitOnHomes) {
  graph::DataGraph g = test::MakeFigure4Database();
  ASSERT_OK_AND_ASSIGN(PerfectTypingResult r, RunStage1(g));
  // Every object satisfies its home type exactly: the home assignment is
  // contained in the GFP extents.
  ASSERT_OK_AND_ASSIGN(Extents m, PerfectTypingExtents(r, g));
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    if (r.home[o] == kInvalidType) continue;
    EXPECT_TRUE(m.Contains(r.home[o], o)) << "object " << o;
  }
}

TEST_P(Example42, ExtentsMayOverlapHomes) {
  // §4.2: no negation, so an object with extra links is also in richer
  // types' extents — o4 lands in o2's home type as well.
  graph::DataGraph g = test::MakeFigure4Database();
  ASSERT_OK_AND_ASSIGN(PerfectTypingResult r, RunStage1(g));
  ASSERT_OK_AND_ASSIGN(Extents m, PerfectTypingExtents(r, g));
  TypeId h2 = r.home[Obj(g, "o2")];
  EXPECT_TRUE(m.Contains(h2, Obj(g, "o4")));
}

INSTANTIATE_TEST_SUITE_P(BothAlgorithms, Example42, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Gfp" : "Refinement";
                         });

TEST(PerfectTypingTest, RegularDataGetsOneTypePerIntendedType) {
  // Figure 2 is perfectly regular: 2 complex "shapes" -> 2 perfect types.
  graph::DataGraph g = test::MakeFigure2Database();
  ASSERT_OK_AND_ASSIGN(PerfectTypingResult r, PerfectTypingViaGfp(g));
  EXPECT_EQ(r.program.NumTypes(), 2u);
  ASSERT_OK_AND_ASSIGN(PerfectTypingResult r2,
                       PerfectTypingViaHashRefinement(g));
  EXPECT_EQ(r2.program.NumTypes(), 2u);
}

TEST(PerfectTypingTest, EmptyAndDegenerateGraphs) {
  graph::DataGraph empty;
  ASSERT_OK_AND_ASSIGN(PerfectTypingResult r, PerfectTypingViaGfp(empty));
  EXPECT_EQ(r.program.NumTypes(), 0u);
  ASSERT_OK_AND_ASSIGN(PerfectTypingResult r2,
                       PerfectTypingViaHashRefinement(empty));
  EXPECT_EQ(r2.program.NumTypes(), 0u);

  graph::DataGraph lonely;
  lonely.AddComplex("x");
  ASSERT_OK_AND_ASSIGN(PerfectTypingResult r3, PerfectTypingViaGfp(lonely));
  EXPECT_EQ(r3.program.NumTypes(), 1u);
  EXPECT_TRUE(r3.program.type(0).signature.empty());
}

TEST(PerfectTypingTest, IsolatedObjectsShareOneType) {
  graph::DataGraph g;
  for (int i = 0; i < 5; ++i) g.AddComplex();
  ASSERT_OK_AND_ASSIGN(PerfectTypingResult r, PerfectTypingViaGfp(g));
  EXPECT_EQ(r.program.NumTypes(), 1u);
  EXPECT_EQ(r.weight[0], 5u);
}

TEST(PerfectTypingTest, CyclesHandledByBothAlgorithms) {
  // Self-loop vs 2-cycle: locally indistinguishable under set-based
  // pictures; refinement and the literal §4.1 program (the oracle, which
  // does not start from refinement's classes) must agree and terminate.
  graph::GraphBuilder b;
  ASSERT_OK(b.Edge("s", "next", "s"));
  ASSERT_OK(b.Edge("p", "next", "q"));
  ASSERT_OK(b.Edge("q", "next", "p"));
  util::Status st;
  graph::DataGraph g = std::move(b).Build(&st);
  ASSERT_OK(st);
  ASSERT_OK_AND_ASSIGN(PerfectTypingResult via_gfp, CandidateGfpOracle(g));
  ASSERT_OK_AND_ASSIGN(PerfectTypingResult via_ref,
                       PerfectTypingViaHashRefinement(g));
  EXPECT_EQ(via_gfp.program.NumTypes(), 1u);
  EXPECT_EQ(via_ref.program.NumTypes(), 1u);
}

TEST(PerfectTypingTest, AlgorithmsAgreeOnRandomGraphs) {
  // Property: on a spread of random graphs the GFP-merge partition of
  // the literal §4.1 program and the refinement partition coincide.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    gen::RandomGraphOptions opt;
    opt.num_complex = 40;
    opt.num_atomic = 25;
    opt.num_edges = 90;
    opt.num_labels = 4;
    opt.seed = seed;
    graph::DataGraph g = gen::RandomGraph(opt);
    ASSERT_OK_AND_ASSIGN(PerfectTypingResult a, CandidateGfpOracle(g));
    ASSERT_OK_AND_ASSIGN(PerfectTypingResult b,
                         PerfectTypingViaHashRefinement(g));
    EXPECT_EQ(a.program.NumTypes(), b.program.NumTypes()) << "seed " << seed;
    EXPECT_EQ(Partition(a.home), Partition(b.home)) << "seed " << seed;
  }
}

TEST(PerfectTypingTest, AlgorithmsAgreeOnStructuredData) {
  gen::DatasetSpec spec;
  spec.name = "mini";
  spec.atomic_pool_per_label = 5;
  spec.types.push_back(
      gen::TypeSpec{"a", 20, {{"x", gen::kAtomicTarget, 1.0},
                              {"y", gen::kAtomicTarget, 0.5}}});
  spec.types.push_back(gen::TypeSpec{"b", 20, {{"z", 0, 0.8}}});
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::Generate(spec, 11));
  ASSERT_OK_AND_ASSIGN(PerfectTypingResult a, CandidateGfpOracle(g));
  ASSERT_OK_AND_ASSIGN(PerfectTypingResult b,
                       PerfectTypingViaHashRefinement(g));
  EXPECT_EQ(Partition(a.home), Partition(b.home));
}

TEST(PerfectTypingTest, PerturbationExplodesPerfectTypeCount) {
  // Table 1's headline observation: a slight perturbation dramatically
  // increases the number of perfect types.
  gen::DatasetSpec spec;
  spec.name = "regular";
  spec.atomic_pool_per_label = 10;
  for (int t = 0; t < 4; ++t) {
    spec.types.push_back(gen::TypeSpec{
        "t" + std::to_string(t),
        50,
        {{"a" + std::to_string(t), gen::kAtomicTarget, 1.0},
         {"b" + std::to_string(t), gen::kAtomicTarget, 1.0}}});
  }
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::Generate(spec, 21));
  ASSERT_OK_AND_ASSIGN(PerfectTypingResult before,
                       PerfectTypingViaHashRefinement(g));

  gen::PerturbOptions popt;
  popt.delete_links = 5;
  popt.add_links = 20;
  popt.seed = 9;
  ASSERT_OK(gen::Perturb(&g, popt));
  ASSERT_OK_AND_ASSIGN(PerfectTypingResult after,
                       PerfectTypingViaHashRefinement(g));
  EXPECT_GT(after.program.NumTypes(), before.program.NumTypes() * 2);
}

/// True iff every block of `fine` lies inside one block of `coarse`.
bool Refines(const std::vector<TypeId>& fine,
             const std::vector<TypeId>& coarse) {
  std::map<TypeId, TypeId> coarse_of;
  for (size_t o = 0; o < fine.size(); ++o) {
    if (fine[o] == kInvalidType) continue;
    auto [it, inserted] = coarse_of.emplace(fine[o], coarse[o]);
    if (!inserted && it->second != coarse[o]) return false;
  }
  return true;
}

TEST(PerfectTypingTest, HashRefinementRefinesGfpOnTable1) {
  // Hash refinement computes bisimulation classes; §4.1 merges candidate
  // types on extent equality (Remark 4.1). GFP extents are closed under
  // bisimulation, so the hash partition always refines the GFP one. The
  // GFP side is the literal per-object program (tests/gfp_oracle.h), not
  // PerfectTypingViaGfp, which merges the hash classes and so is refined
  // by them by construction. They are equal on DB1-DB6 and on DBG;
  // on DB7 and DB8 the GFP merge also joins objects that are not
  // bisimilar (two of its classes each hold two bisimulation classes).
  for (const gen::Table1Entry& entry : gen::Table1Datasets()) {
    SCOPED_TRACE(entry.db_name);
    ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::MakeTable1Database(entry));
    ASSERT_OK_AND_ASSIGN(PerfectTypingResult hash,
                         PerfectTypingViaHashRefinement(g));
    ASSERT_OK_AND_ASSIGN(PerfectTypingResult gfp, CandidateGfpOracle(g));
    EXPECT_TRUE(Refines(hash.home, gfp.home));
    const bool equal = Partition(hash.home) == Partition(gfp.home);
    EXPECT_EQ(equal, entry.db_name != "DB7" && entry.db_name != "DB8");
    if (!equal) {
      EXPECT_EQ(hash.program.NumTypes(), gfp.program.NumTypes() + 2);
    }
  }
  ASSERT_OK_AND_ASSIGN(graph::DataGraph dbg, gen::MakeDbgDataset());
  ASSERT_OK_AND_ASSIGN(PerfectTypingResult hash,
                       PerfectTypingViaHashRefinement(dbg));
  ASSERT_OK_AND_ASSIGN(PerfectTypingResult gfp, CandidateGfpOracle(dbg));
  EXPECT_EQ(Partition(hash.home), Partition(gfp.home));
}

/// Runs PerfectTypingViaGfp and the literal per-object §4.1 program
/// (tests/gfp_oracle.h) and asserts the results are identical field for
/// field: class numbering, program (names and signatures), homes and
/// weights. Returns the number of bisimulation classes the GFP merge
/// joined, so callers can check that the merge step was exercised.
size_t ExpectGfpMatchesOracle(const graph::DataGraph& g,
                              const ExecOptions& options = {}) {
  util::StatusOr<PerfectTypingResult> want = CandidateGfpOracle(g);
  util::StatusOr<PerfectTypingResult> got = PerfectTypingViaGfp(g, options);
  util::StatusOr<PerfectTypingResult> bisim =
      PerfectTypingViaHashRefinement(g);
  EXPECT_TRUE(want.ok() && got.ok() && bisim.ok());
  if (!want.ok() || !got.ok() || !bisim.ok()) return 0;
  EXPECT_EQ(got->program, want->program);
  EXPECT_EQ(got->home, want->home);
  EXPECT_EQ(got->weight, want->weight);
  return bisim->program.NumTypes() - got->program.NumTypes();
}

TEST(GfpOracleTest, MatchesOnPaperFiguresAndTable1) {
  ExpectGfpMatchesOracle(test::MakeFigure4Database());
  ExpectGfpMatchesOracle(test::MakeFigure2Database());
  size_t merged = 0;
  for (const gen::Table1Entry& entry : gen::Table1Datasets()) {
    SCOPED_TRACE(entry.db_name);
    ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::MakeTable1Database(entry));
    merged += ExpectGfpMatchesOracle(g);
  }
  // DB7 and DB8 each merge two pairs of bisimulation classes.
  EXPECT_EQ(merged, 4u);
}

TEST(GfpOracleTest, MatchesOnDbgSeedsAndScale) {
  for (uint64_t seed : {42, 1, 2, 3}) {
    SCOPED_TRACE(seed);
    ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::MakeDbgDataset(seed));
    ExpectGfpMatchesOracle(g);
  }
  gen::DatasetSpec spec = gen::DbgSpec();
  for (auto& t : spec.types) t.count *= 5;
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::Generate(spec, 4242));
  ExpectGfpMatchesOracle(g);
}

TEST(GfpOracleTest, MatchesOnRandomGraphs) {
  // 120 graphs over a spread of sizes, densities, label counts and
  // atomic shares; sparse graphs with few labels leave many objects with
  // non-bisimilar but mutually simulating neighbourhoods, which is where
  // the extent merge joins classes.
  size_t merged = 0;
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    SCOPED_TRACE(seed);
    gen::RandomGraphOptions opt;
    opt.num_complex = 20 + seed % 5 * 15;
    opt.num_atomic = 10 + seed % 3 * 10;
    opt.num_edges = opt.num_complex * (1 + seed % 4) / 2 + 10;
    opt.num_labels = 1 + seed % 4;
    opt.atomic_target_fraction = 0.2 + 0.2 * static_cast<double>(seed % 4);
    opt.seed = seed;
    merged += ExpectGfpMatchesOracle(gen::RandomGraph(opt));
  }
  EXPECT_GT(merged, 0u);
}

TEST(GfpOracleTest, MatchesUnderForcedHashCollisions) {
  // Every refinement signature hashes to one bucket, so the exact
  // collision fallback alone carries the bisimulation the merge starts
  // from.
  ExecOptions exec;
  exec.debug_force_hash_collisions = true;
  ASSERT_OK_AND_ASSIGN(graph::DataGraph dbg, gen::MakeDbgDataset());
  ExpectGfpMatchesOracle(dbg, exec);
  ASSERT_OK_AND_ASSIGN(graph::DataGraph db7,
                       gen::MakeTable1Database(gen::Table1Datasets()[6]));
  EXPECT_EQ(ExpectGfpMatchesOracle(db7, exec), 2u);
}

}  // namespace
}  // namespace schemex::typing
