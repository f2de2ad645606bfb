#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "catalog/workspace.h"
#include "extract/extractor.h"
#include "gen/dbg.h"
#include "tests/test_util.h"
#include "typing/gfp.h"

namespace schemex::catalog {
namespace {

namespace fs = std::filesystem;

class CatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("schemex_ws_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(CatalogTest, SaveLoadRoundTrip) {
  auto g = gen::MakeDbgDataset(3);
  extract::ExtractorOptions opt;
  opt.target_num_types = 6;
  auto r = extract::SchemaExtractor(opt).Run(*g);
  ASSERT_TRUE(r.ok());

  Workspace ws;
  ws.SetGraph(*g);
  ws.program = r->final_program;
  ws.assignment = r->recast.assignment;
  ASSERT_OK(SaveWorkspace(ws, dir_.string()));
  EXPECT_TRUE(fs::exists(dir_ / "graph.sxg"));
  EXPECT_TRUE(fs::exists(dir_ / "schema.dl"));
  EXPECT_TRUE(fs::exists(dir_ / "assignment.tsv"));

  ASSERT_OK_AND_ASSIGN(Workspace back, LoadWorkspace(dir_.string()));
  EXPECT_EQ(back.graph->NumObjects(), g->NumObjects());
  EXPECT_EQ(back.graph->NumEdges(), g->NumEdges());
  EXPECT_EQ(back.program.NumTypes(), 6u);
  // Assignment content survives object-by-object.
  for (graph::ObjectId o = 0; o < g->NumObjects(); ++o) {
    EXPECT_EQ(back.assignment.TypesOf(o), r->recast.assignment.TypesOf(o))
        << "object " << o;
  }
  // The reloaded program types the reloaded graph the way the original
  // typed the original (extent sizes).
  ASSERT_OK_AND_ASSIGN(typing::Extents m1,
                       typing::ComputeGfp(r->final_program, *g));
  ASSERT_OK_AND_ASSIGN(typing::Extents m2,
                       typing::ComputeGfp(back.program, *back.graph));
  for (size_t t = 0; t < m1.per_type.size(); ++t) {
    EXPECT_EQ(m1.per_type[t].Count(), m2.per_type[t].Count());
  }
}

TEST_F(CatalogTest, GraphOnlyWorkspace) {
  Workspace ws;
  ws.SetGraph(test::MakeFigure2Database());
  ws.assignment = typing::TypeAssignment(ws.graph->NumObjects());
  ASSERT_OK(SaveWorkspace(ws, dir_.string()));
  // Remove the optional files: loading must still succeed.
  fs::remove(dir_ / "schema.dl");
  fs::remove(dir_ / "assignment.tsv");
  ASSERT_OK_AND_ASSIGN(Workspace back, LoadWorkspace(dir_.string()));
  EXPECT_EQ(back.program.NumTypes(), 0u);
  EXPECT_EQ(back.assignment.NumObjects(), ws.graph->NumObjects());
}

TEST_F(CatalogTest, MissingGraphIsAnError) {
  fs::create_directories(dir_);
  EXPECT_FALSE(LoadWorkspace(dir_.string()).ok());
  EXPECT_FALSE(LoadWorkspace((dir_ / "nope").string()).ok());
}

TEST_F(CatalogTest, ValidationCatchesInconsistency) {
  Workspace ws;
  ws.SetGraph(test::MakeFigure2Database());
  ws.assignment = typing::TypeAssignment(ws.graph->NumObjects());
  ws.assignment.Assign(0, 5);  // no such type
  EXPECT_EQ(ws.Validate().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_FALSE(SaveWorkspace(ws, dir_.string()).ok());

  Workspace ws2;
  ws2.SetGraph(test::MakeFigure2Database());
  ws2.assignment = typing::TypeAssignment(3);  // wrong size
  EXPECT_FALSE(ws2.Validate().ok());

  Workspace ws3;  // no graph at all
  EXPECT_EQ(ws3.Validate().code(), util::StatusCode::kFailedPrecondition);
}

TEST_F(CatalogTest, CorruptAssignmentRejected) {
  Workspace ws;
  ws.SetGraph(test::MakeFigure2Database());
  ws.program.AddType("t", {});
  ws.assignment = typing::TypeAssignment(ws.graph->NumObjects());
  ws.assignment.Assign(0, 0);
  ASSERT_OK(SaveWorkspace(ws, dir_.string()));
  // Scribble over the assignment.
  {
    std::ofstream out(dir_ / "assignment.tsv");
    out << "999\t0\n";  // object id out of range
  }
  EXPECT_FALSE(LoadWorkspace(dir_.string()).ok());
  {
    std::ofstream out(dir_ / "assignment.tsv");
    out << "no tab here\n";
  }
  EXPECT_FALSE(LoadWorkspace(dir_.string()).ok());
}

TEST_F(CatalogTest, CorruptAssignmentVariants) {
  Workspace ws;
  // A real signature: an empty one would not survive the schema.dl
  // round-trip (datalog rules need at least one body atom). The label is
  // interned before freezing — the frozen table is immutable.
  graph::DataGraph g = test::MakeFigure2Database();
  graph::LabelId name = g.InternLabel("name");
  ws.SetGraph(g);
  ws.program.AddType(
      "t", typing::TypeSignature::FromLinks({typing::TypedLink::OutAtomic(name)}));
  ws.assignment = typing::TypeAssignment(ws.graph->NumObjects());
  ws.assignment.Assign(0, 0);
  ASSERT_OK(SaveWorkspace(ws, dir_.string()));

  auto scribble = [&](const char* text) {
    std::ofstream out(dir_ / "assignment.tsv");
    out << text;
  };
  // Non-numeric type token.
  scribble("0\tbanana\n");
  EXPECT_EQ(LoadWorkspace(dir_.string()).status().code(),
            util::StatusCode::kParseError);
  // Type id outside the program: parses but fails Validate.
  scribble("0\t7\n");
  EXPECT_EQ(LoadWorkspace(dir_.string()).status().code(),
            util::StatusCode::kFailedPrecondition);
  // Ids past their type's range must not wrap into valid ones: a type
  // id above INT32_MAX (2^32 would narrow to type 0) and an object id
  // above 2^64 - 1 (2^64 would wrap to object 0).
  scribble("0\t4294967296\n");
  auto st = LoadWorkspace(dir_.string()).status();
  EXPECT_EQ(st.code(), util::StatusCode::kParseError);
  EXPECT_NE(st.message().find("assignment.tsv line 1: bad type id"),
            std::string::npos)
      << st.ToString();
  scribble("0\t2147483648\n");
  EXPECT_EQ(LoadWorkspace(dir_.string()).status().code(),
            util::StatusCode::kParseError);
  scribble("18446744073709551616\t0\n");
  st = LoadWorkspace(dir_.string()).status();
  EXPECT_EQ(st.code(), util::StatusCode::kParseError);
  EXPECT_NE(st.message().find("assignment.tsv line 1: bad object id"),
            std::string::npos)
      << st.ToString();
  // Signs are not digits.
  scribble("0\t-1\n");
  EXPECT_EQ(LoadWorkspace(dir_.string()).status().code(),
            util::StatusCode::kParseError);
  scribble("+0\t0\n");
  EXPECT_EQ(LoadWorkspace(dir_.string()).status().code(),
            util::StatusCode::kParseError);
  // INT32_MAX itself parses (then fails Validate: no such type).
  scribble("0\t2147483647\n");
  EXPECT_EQ(LoadWorkspace(dir_.string()).status().code(),
            util::StatusCode::kFailedPrecondition);
  // Comments and blank lines are fine; a trailing junk line is not.
  scribble("# comment\n\n0\t0\n1\n");
  EXPECT_EQ(LoadWorkspace(dir_.string()).status().code(),
            util::StatusCode::kParseError);
  // A valid rewrite loads again.
  scribble("0\t0\n");
  EXPECT_TRUE(LoadWorkspace(dir_.string()).ok());
}

TEST_F(CatalogTest, GraphOnlyDirectoryLoadsEmptySchema) {
  // A directory holding just graph.sxg — e.g. freshly imported data that
  // the service has not extracted yet — loads with an empty program and
  // an all-untyped assignment sized to the graph.
  Workspace ws;
  ws.SetGraph(test::MakeFigure5Database());
  ws.assignment = typing::TypeAssignment(ws.graph->NumObjects());
  ASSERT_OK(SaveWorkspace(ws, dir_.string()));
  fs::remove(dir_ / "schema.dl");
  fs::remove(dir_ / "assignment.tsv");

  ASSERT_OK_AND_ASSIGN(Workspace back, LoadWorkspace(dir_.string()));
  EXPECT_EQ(back.program.NumTypes(), 0u);
  EXPECT_EQ(back.assignment.NumObjects(), ws.graph->NumObjects());
  EXPECT_EQ(back.assignment.NumTypedObjects(), 0u);
  EXPECT_OK(back.Validate());
}

TEST_F(CatalogTest, SaveLeavesNoTempFiles) {
  Workspace ws;
  ws.SetGraph(test::MakeFigure2Database());
  ws.assignment = typing::TypeAssignment(ws.graph->NumObjects());
  ASSERT_OK(SaveWorkspace(ws, dir_.string()));
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
}

TEST_F(CatalogTest, ConcurrentSaveAndLoadNeverTears) {
  // The service's cache-refresh path re-saves a workspace while another
  // thread may be loading it. Atomic per-file replacement guarantees a
  // reader sees complete files: every load either succeeds with a
  // self-consistent workspace or fails with a clean cross-generation
  // Validate/parse error — never a half-written graph.
  Workspace small;
  small.SetGraph(test::MakeFigure2Database());
  small.assignment = typing::TypeAssignment(small.graph->NumObjects());

  auto big_graph = gen::MakeDbgDataset(5);
  ASSERT_TRUE(big_graph.ok());
  Workspace big;
  big.SetGraph(*big_graph);
  big.assignment = typing::TypeAssignment(big.graph->NumObjects());

  ASSERT_OK(SaveWorkspace(small, dir_.string()));

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::thread reader([&] {
    while (!stop.load()) {
      auto ws = LoadWorkspace(dir_.string());
      if (!ws.ok()) continue;  // cross-generation pairing: clean error
      size_t n = ws->graph->NumObjects();
      if (n != small.graph->NumObjects() && n != big.graph->NumObjects()) {
        ++torn;  // a size matching neither generation = torn file
      }
      if (!ws->graph->Validate().ok()) ++torn;
    }
  });
  for (int i = 0; i < 30; ++i) {
    ASSERT_OK(SaveWorkspace(i % 2 == 0 ? big : small, dir_.string()));
  }
  stop = true;
  reader.join();
  EXPECT_EQ(torn.load(), 0);
}

}  // namespace
}  // namespace schemex::catalog
