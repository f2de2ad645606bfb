#include "graph/frozen_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "gen/random_graph.h"
#include "graph/graph_stats.h"
#include "graph/graph_view.h"
#include "tests/test_util.h"

namespace schemex::graph {
namespace {

/// Asserts that `f` answers every read query exactly like `g`.
void ExpectAgrees(const DataGraph& g, const FrozenGraph& f) {
  ASSERT_EQ(f.NumObjects(), g.NumObjects());
  EXPECT_EQ(f.NumComplexObjects(), g.NumComplexObjects());
  EXPECT_EQ(f.NumAtomicObjects(), g.NumAtomicObjects());
  EXPECT_EQ(f.NumEdges(), g.NumEdges());
  EXPECT_EQ(IsBipartite(f), IsBipartite(g));

  ASSERT_EQ(f.labels().size(), g.labels().size());
  for (LabelId l = 0; l < g.labels().size(); ++l) {
    EXPECT_EQ(f.labels().Name(l), g.labels().Name(l));
  }

  for (ObjectId o = 0; o < g.NumObjects(); ++o) {
    EXPECT_EQ(f.IsAtomic(o), g.IsAtomic(o)) << "object " << o;
    EXPECT_EQ(f.IsComplex(o), g.IsComplex(o)) << "object " << o;
    EXPECT_EQ(f.Value(o), g.Value(o)) << "object " << o;
    EXPECT_EQ(f.Name(o), g.Name(o)) << "object " << o;

    std::span<const HalfEdge> fo = f.OutEdges(o), go = g.OutEdges(o);
    ASSERT_EQ(fo.size(), go.size()) << "out-degree of " << o;
    EXPECT_TRUE(std::equal(fo.begin(), fo.end(), go.begin()))
        << "out-edges of " << o;

    std::span<const HalfEdge> fi = f.InEdges(o), gi = g.InEdges(o);
    ASSERT_EQ(fi.size(), gi.size()) << "in-degree of " << o;
    EXPECT_TRUE(std::equal(fi.begin(), fi.end(), gi.begin()))
        << "in-edges of " << o;

    // Point lookups: every real out-edge is found, and every label
    // answers HasEdgeToAtomic identically.
    for (const HalfEdge& e : go) {
      EXPECT_TRUE(f.HasEdge(o, e.other, e.label));
    }
    for (LabelId l = 0; l < g.labels().size(); ++l) {
      EXPECT_EQ(HasEdgeToAtomic(f, o, l), HasEdgeToAtomic(g, o, l))
          << "object " << o << " label " << l;
    }
  }
}

TEST(FrozenGraphTest, RandomGraphRoundTrip) {
  // The property: for a variety of shapes (sparse, dense, atomic-heavy,
  // empty label table usage), freezing preserves every observable.
  struct Shape {
    size_t complex, atomic, edges, labels;
    double atomic_frac;
  };
  const Shape shapes[] = {
      {40, 40, 120, 5, 0.5},  {10, 90, 200, 3, 0.9}, {90, 10, 300, 8, 0.1},
      {1, 1, 1, 1, 1.0},      {50, 0, 100, 4, 0.0},  {200, 200, 1200, 12, 0.5},
  };
  uint64_t seed = 11;
  for (const Shape& s : shapes) {
    gen::RandomGraphOptions opt;
    opt.num_complex = s.complex;
    opt.num_atomic = s.atomic;
    opt.num_edges = s.edges;
    opt.num_labels = s.labels;
    opt.atomic_target_fraction = s.atomic_frac;
    opt.seed = seed++;
    DataGraph g = gen::RandomGraph(opt);
    ASSERT_OK(g.Validate());

    auto f = Freeze(g);
    ASSERT_NE(f, nullptr);
    ASSERT_OK(f->Validate());
    ExpectAgrees(g, *f);

    // Negative point lookups: random non-edges answer false on both.
    std::mt19937_64 rng(opt.seed);
    for (int i = 0; i < 200; ++i) {
      ObjectId from = static_cast<ObjectId>(rng() % g.NumObjects());
      ObjectId to = static_cast<ObjectId>(rng() % g.NumObjects());
      LabelId l = static_cast<LabelId>(rng() % s.labels);
      EXPECT_EQ(f->HasEdge(from, to, l), g.HasEdge(from, to, l));
    }
  }
}

TEST(FrozenGraphTest, GraphViewDispatchesIdentically) {
  gen::RandomGraphOptions opt;
  opt.seed = 99;
  DataGraph g = gen::RandomGraph(opt);
  auto f = Freeze(g);

  GraphView vd(g), vf(*f);
  ASSERT_EQ(vd.NumObjects(), vf.NumObjects());
  for (ObjectId o = 0; o < g.NumObjects(); ++o) {
    EXPECT_EQ(vd.IsAtomic(o), vf.IsAtomic(o));
    EXPECT_EQ(vd.Value(o), vf.Value(o));
    EXPECT_EQ(vd.Name(o), vf.Name(o));
    std::span<const HalfEdge> a = vd.OutEdges(o), b = vf.OutEdges(o);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }
  // Derived statistics agree through the view as well.
  GraphStats sd = ComputeStats(vd), sf = ComputeStats(vf);
  EXPECT_EQ(sd.num_edges, sf.num_edges);
  EXPECT_EQ(sd.num_roots, sf.num_roots);
  EXPECT_DOUBLE_EQ(sd.avg_out_degree, sf.avg_out_degree);
}

TEST(FrozenGraphTest, EmptyGraph) {
  DataGraph g;
  auto f = Freeze(g);
  ASSERT_OK(f->Validate());
  EXPECT_EQ(f->NumObjects(), 0u);
  EXPECT_EQ(f->NumEdges(), 0u);
  EXPECT_TRUE(IsBipartite(*f));
  EXPECT_GE(f->MemoryUsage(), 0u);
}

TEST(FrozenGraphTest, IdsAreProcessUnique) {
  DataGraph g = test::MakeFigure2Database();
  std::set<uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    ids.insert(Freeze(g)->id());
  }
  // Eight freezes of the same source are eight distinct snapshots.
  EXPECT_EQ(ids.size(), 8u);
}

TEST(FrozenGraphTest, MemoryUsageCoversEdgesAndArena) {
  gen::RandomGraphOptions opt;
  opt.num_complex = 500;
  opt.num_atomic = 500;
  opt.num_edges = 3000;
  DataGraph g = gen::RandomGraph(opt);
  auto f = Freeze(g);
  // Both CSR directions alone are 2 * edges * sizeof(HalfEdge).
  EXPECT_GE(f->MemoryUsage(), 2 * f->NumEdges() * sizeof(HalfEdge));
  // The arena holds at least every atomic value's bytes.
  size_t value_bytes = 0;
  for (ObjectId o = 0; o < g.NumObjects(); ++o) {
    value_bytes += g.Value(o).size();
  }
  EXPECT_GE(f->MemoryUsage(), value_bytes);
}

}  // namespace
}  // namespace schemex::graph
