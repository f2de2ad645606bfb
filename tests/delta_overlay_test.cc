// Layered-graph equivalence suite. The reference is the plain model in
// tests/graph_oracle.h, mutated by the same op sequence as two
// DataGraphs: one built from nothing and one layered over a frozen
// snapshot. Both must answer every read (counts, kinds, values, adjacency,
// label table) and every Status code as the model does, and Freeze() of
// either must write the same snapshot bytes.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "gen/dbg.h"
#include "graph/data_graph.h"
#include "graph/frozen_graph.h"
#include "graph/graph_view.h"
#include "snapshot/snapshot.h"
#include "tests/graph_oracle.h"
#include "tests/test_util.h"

namespace schemex::graph {
namespace {

namespace fs = std::filesystem;

using test::GraphOracle;

/// Asserts `g` answers every read exactly as `model` (object by object,
/// edge by edge).
void ExpectMatchesModel(const DataGraph& g, const GraphOracle& model,
                        const char* what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(g.NumObjects(), model.NumObjects());
  EXPECT_EQ(g.NumAtomicObjects(), model.NumAtomicObjects());
  EXPECT_EQ(g.NumComplexObjects(),
            model.NumObjects() - model.NumAtomicObjects());
  EXPECT_EQ(g.NumEdges(), model.NumEdges());
  ASSERT_EQ(g.labels().size(), model.labels().size());
  for (LabelId l = 0; l < static_cast<LabelId>(g.labels().size()); ++l) {
    EXPECT_EQ(g.labels().Name(l), model.labels()[l]) << "label " << l;
  }
  for (ObjectId o = 0; o < g.NumObjects(); ++o) {
    EXPECT_EQ(g.IsAtomic(o), model.IsAtomic(o)) << "object " << o;
    EXPECT_EQ(g.Value(o), model.Value(o)) << "object " << o;
    EXPECT_EQ(g.Name(o), model.Name(o)) << "object " << o;
    std::vector<HalfEdge> out(g.OutEdges(o).begin(), g.OutEdges(o).end());
    EXPECT_EQ(out, model.OutRow(o)) << "out row of " << o;
    std::vector<HalfEdge> in(g.InEdges(o).begin(), g.InEdges(o).end());
    EXPECT_EQ(in, model.InRow(o)) << "in row of " << o;
  }
  for (const auto& [from, label, to] : model.links()) {
    EXPECT_TRUE(g.HasEdge(from, to, label));
  }
  EXPECT_OK(g.Validate());
}

/// One graph built from nothing, one layered over a snapshot of the
/// same start, and the model: every op goes to all three.
struct ThreeWay {
  explicit ThreeWay(DataGraph start)
      : model(GraphView(start)),
        built(std::move(start)),
        layered(Freeze(built)) {}

  ObjectId AddComplex(std::string_view name) {
    ObjectId id = model.AddComplex(name);
    EXPECT_EQ(built.AddComplex(name), id);
    EXPECT_EQ(layered.AddComplex(name), id);
    return id;
  }
  ObjectId AddAtomic(std::string_view value, std::string_view name = "") {
    ObjectId id = model.AddAtomic(value, name);
    EXPECT_EQ(built.AddAtomic(value, name), id);
    EXPECT_EQ(layered.AddAtomic(value, name), id);
    return id;
  }
  /// Runs `op` on both graphs and `model_op` on the model; the codes
  /// must match the model's and the messages each other's.
  template <typename Op, typename ModelOp>
  util::StatusCode Apply(const char* what, Op op, ModelOp model_op) {
    util::Status want = model_op(model);
    util::Status b = op(built);
    util::Status l = op(layered);
    EXPECT_EQ(b.code(), want.code()) << what << ": " << b.ToString();
    EXPECT_EQ(l.code(), want.code()) << what << ": " << l.ToString();
    EXPECT_EQ(b.message(), l.message()) << what;
    return want.code();
  }
  util::StatusCode AddEdge(ObjectId from, ObjectId to, std::string_view label) {
    return Apply(
        "add", [&](DataGraph& g) { return g.AddEdge(from, to, label); },
        [&](GraphOracle& m) { return m.AddEdge(from, to, label); });
  }
  util::StatusCode AddEdge(ObjectId from, ObjectId to, LabelId label) {
    return Apply(
        "add id", [&](DataGraph& g) { return g.AddEdge(from, to, label); },
        [&](GraphOracle& m) { return m.AddEdge(from, to, label); });
  }
  util::StatusCode RemoveEdge(ObjectId from, ObjectId to, LabelId label) {
    return Apply(
        "remove", [&](DataGraph& g) { return g.RemoveEdge(from, to, label); },
        [&](GraphOracle& m) { return m.RemoveEdge(from, to, label); });
  }
  void ExpectMatch() const {
    ExpectMatchesModel(built, model, "built");
    ExpectMatchesModel(layered, model, "layered");
  }

  GraphOracle model;
  DataGraph built;
  DataGraph layered;
};

TEST(DeltaOverlayTest, EmptyDeltaReadsThroughToBase) {
  ThreeWay g(test::MakeFigure2Database());
  g.ExpectMatch();
  EXPECT_EQ(g.layered.NumAddedObjects(), 0u);
  EXPECT_EQ(g.layered.NumAddedLinks(), 0u);
  EXPECT_TRUE(g.layered.TouchedComplexObjects().empty());
}

TEST(DeltaOverlayTest, MutationsMirrorDataGraph) {
  ThreeWay g(test::MakeFigure2Database());
  // New objects after the base id space, ids matching the model.
  ObjectId p = g.AddComplex("p");
  ObjectId v = g.AddAtomic("Person", "v");

  // New edges: new-to-new under a fresh label, base-to-new.
  EXPECT_EQ(g.AddEdge(p, v, "kind"), util::StatusCode::kOk);
  EXPECT_EQ(g.AddEdge(0, p, "knows"), util::StatusCode::kOk);

  // Delete a base-resident edge.
  LabelId name = g.layered.labels().Find("name");
  ASSERT_NE(name, kInvalidLabel);
  EXPECT_EQ(g.RemoveEdge(0, 4, name), util::StatusCode::kOk);

  g.ExpectMatch();
  EXPECT_EQ(g.layered.NumAddedObjects(), 2u);
  EXPECT_EQ(g.layered.NumAddedLinks(), 2u);
  EXPECT_EQ(g.layered.NumDeletedLinks(), 1u);
}

TEST(DeltaOverlayTest, StatusSemanticsMatchDataGraph) {
  ThreeWay g(test::MakeFigure2Database());
  LabelId name = g.layered.labels().Find("name");
  ObjectId added = g.AddComplex("added");
  ObjectId added_atomic = g.AddAtomic("x");

  using util::StatusCode;
  EXPECT_EQ(g.AddEdge(99, 0, name), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.AddEdge(0, 99, name), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.AddEdge(0, 1, LabelId{99}), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.AddEdge(4, 0, name), StatusCode::kFailedPrecondition);
  EXPECT_EQ(g.AddEdge(added_atomic, added, name),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(g.AddEdge(0, 4, name), StatusCode::kAlreadyExists);
  EXPECT_EQ(g.RemoveEdge(0, 1, name), StatusCode::kNotFound);
  EXPECT_EQ(g.RemoveEdge(added, 0, name), StatusCode::kNotFound);
  EXPECT_EQ(g.RemoveEdge(99, 0, name), StatusCode::kInvalidArgument);
  // Failed ops leave no trace.
  g.ExpectMatch();
  EXPECT_EQ(g.layered.NumAddedLinks(), 0u);
  EXPECT_EQ(g.layered.NumDeletedLinks(), 0u);
}

TEST(DeltaOverlayTest, CopyIsolatesDeltas) {
  DataGraph base = test::MakeFigure2Database();
  auto frozen = Freeze(base);
  DataGraph a(frozen);
  ASSERT_OK(a.AddEdge(0, 1, "peer"));
  DataGraph b = a;  // copy shares the base, clones the delta
  EXPECT_EQ(b.base(), a.base());
  ObjectId nb = b.AddComplex("only-in-b");
  ASSERT_OK(b.AddEdge(nb, 0, "ref"));
  LabelId name = a.labels().Find("name");
  ASSERT_OK(a.RemoveEdge(0, 4, name));

  EXPECT_EQ(a.NumObjects(), base.NumObjects());
  EXPECT_EQ(b.NumObjects(), base.NumObjects() + 1);
  EXPECT_FALSE(a.HasEdge(nb, 0, b.labels().Find("ref")));
  EXPECT_TRUE(b.HasEdge(0, 4, name));
  EXPECT_FALSE(a.HasEdge(0, 4, name));
  ASSERT_OK(a.Validate());
  ASSERT_OK(b.Validate());
}

TEST(DeltaOverlayTest, TouchedComplexObjectsIsSortedConservativeSet) {
  DataGraph base = test::MakeFigure2Database();
  auto frozen = Freeze(base);
  DataGraph ov(frozen);
  ObjectId p = ov.AddComplex("p");
  ObjectId q = ov.AddComplex("q");  // added: touched without any edge
  ov.AddAtomic("v");                // atomic: never touched
  ASSERT_OK(ov.AddEdge(1, p, "knows"));
  // Add then remove: endpoints stay touched (conservative).
  ASSERT_OK(ov.AddEdge(0, 1, "peer"));
  LabelId peer = ov.labels().Find("peer");
  ASSERT_OK(ov.RemoveEdge(0, 1, peer));
  // An atomic endpoint is not a complex object.
  ASSERT_OK(ov.AddEdge(2, 4, "also"));

  std::vector<ObjectId> touched = ov.TouchedComplexObjects();
  EXPECT_EQ(touched, (std::vector<ObjectId>{0, 1, 2, p, q}));
}

TEST(DeltaOverlayTest, CompactSnapshotBytesMatchMutatedDataGraph) {
  // Larger base + randomized delta, failing ops included: Freeze() of
  // the layered graph must write a snapshot byte-identical to freezing
  // the graph built through the same ops.
  ASSERT_OK_AND_ASSIGN(DataGraph start, gen::MakeDbgDataset(5));
  ThreeWay g(std::move(start));

  std::mt19937 rng(1234);
  auto rnd = [&](size_t n) { return static_cast<uint32_t>(rng() % n); };
  std::vector<ObjectId> complexes;
  for (ObjectId o = 0; o < g.model.NumObjects(); ++o) {
    if (!g.model.IsAtomic(o)) complexes.push_back(o);
  }
  size_t removed = 0;
  for (int i = 0; i < 60; ++i) {
    int kind = static_cast<int>(rng() % 4);
    if (kind == 0) {
      complexes.push_back(g.AddComplex("n" + std::to_string(i)));
    } else if (kind == 1) {
      g.AddAtomic("v" + std::to_string(i));
    } else if (kind == 2) {
      // Any source, so atomic sources and duplicates fail on all three.
      ObjectId from = rnd(g.model.NumObjects());
      ObjectId to = rnd(g.model.NumObjects());
      g.AddEdge(from, to, "l" + std::to_string(rng() % 6));
    } else {
      ObjectId from = complexes[rnd(complexes.size())];
      std::vector<HalfEdge> out = g.model.OutRow(from);
      if (out.empty()) continue;
      const HalfEdge e = out[rnd(out.size())];
      if (g.RemoveEdge(from, e.other, e.label) == util::StatusCode::kOk) {
        ++removed;
      }
    }
  }
  EXPECT_GT(removed, 0u);
  g.ExpectMatch();

  auto folded = Freeze(g.layered);
  auto built = Freeze(g.built);
  ASSERT_OK(folded->Validate());

  fs::path dir = fs::temp_directory_path() /
                 ("schemex_overlay_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  ASSERT_OK(snapshot::Write(*folded, (dir / "a.bin").string()));
  ASSERT_OK(snapshot::Write(*built, (dir / "b.bin").string()));
  auto slurp = [](const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  std::string a = slurp(dir / "a.bin");
  std::string b = slurp(dir / "b.bin");
  fs::remove_all(dir);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "Freeze() of the layered graph drifted from the built one";
}

TEST(DeltaOverlayTest, GraphViewRoutesThroughOverlay) {
  DataGraph base = test::MakeFigure2Database();
  auto frozen = Freeze(base);
  DataGraph ov(frozen);
  ObjectId p = ov.AddComplex("p");
  ASSERT_OK(ov.AddEdge(p, 0, "knows"));

  GraphView view(ov);
  EXPECT_EQ(view.NumObjects(), ov.NumObjects());
  EXPECT_EQ(view.NumEdges(), ov.NumEdges());
  EXPECT_FALSE(view.IsAtomic(p));
  ASSERT_EQ(view.OutEdges(p).size(), 1u);
  EXPECT_EQ(view.OutEdges(p)[0].other, 0u);
  EXPECT_EQ(view.InEdges(0).size(), ov.InEdges(0).size());
  EXPECT_EQ(&view.labels(), &ov.labels());
  EXPECT_OK(ValidateAdjacency(view));
}

}  // namespace
}  // namespace schemex::graph
