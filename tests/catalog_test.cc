#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "catalog/workspace.h"
#include "extract/extractor.h"
#include "gen/dbg.h"
#include "graph/graph_io.h"
#include "snapshot/snapshot.h"
#include "tests/test_util.h"
#include "typing/gfp.h"
#include "typing/perfect_typing.h"
#include "typing/program_io.h"
#include "util/random.h"

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

  std::string Slurp(const char* name) const {
    std::ifstream in(dir_ / name, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }

  void Spit(const char* name, const std::string& bytes) const {
    std::ofstream out(dir_ / name, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  void ExpectNoTempFiles() const {
    for (const auto& entry : fs::directory_iterator(dir_)) {
      EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
    }
  }

  fs::path dir_;
};

/// Everything a load reads back, as text: graph, schema and assignment.
std::string Reads(const Workspace& ws) {
  return graph::WriteGraph(*ws.graph) + "\n--\n" +
         typing::WriteTypingProgram(ws.program, ws.graph->labels()) +
         "\n--\n" + AssignmentToTsv(ws.assignment);
}

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
  ExpectNoTempFiles();
}

TEST_F(CatalogTest, FailedWriteRemovesTmpAndKeepsPreviousGeneration) {
  // A "<file>.tmp" that is a symlink to /dev/full makes the write fail
  // with ENOSPC, with no fault hook in the code. The failed write must
  // report Internal, remove its tmp file, and leave the file it was
  // replacing as it was.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  Workspace a;
  a.SetGraph(test::MakeFigure2Database());
  a.assignment = typing::TypeAssignment(a.graph->NumObjects());
  ASSERT_OK(SaveWorkspace(a, dir_.string()));
  ASSERT_OK_AND_ASSIGN(Workspace loaded_a, LoadWorkspace(dir_.string()));
  const std::string reads_a = Reads(loaded_a);

  auto g = gen::MakeDbgDataset(3);
  ASSERT_TRUE(g.ok());
  Workspace b;
  b.SetGraph(*g);
  b.assignment = typing::TypeAssignment(b.graph->NumObjects());

  // SaveWorkspace fails on its first file, so all of A stays in place.
  fs::create_symlink("/dev/full", dir_ / "graph.sxg.tmp");
  util::Status st = SaveWorkspace(b, dir_.string());
  EXPECT_EQ(st.code(), util::StatusCode::kInternal) << st.ToString();
  ExpectNoTempFiles();
  LoadInfo info;
  ASSERT_OK_AND_ASSIGN(Workspace back, LoadWorkspace(dir_.string(), &info));
  EXPECT_TRUE(info.from_snapshot) << info.snapshot_status.ToString();
  EXPECT_EQ(Reads(back), reads_a);

  // snapshot::Write goes through the same seam.
  const std::string snap = (dir_ / "snapshot.bin").string();
  fs::create_symlink("/dev/full", dir_ / "snapshot.bin.tmp");
  st = snapshot::Write(*b.graph, snap);
  EXPECT_EQ(st.code(), util::StatusCode::kInternal) << st.ToString();
  ExpectNoTempFiles();
  ASSERT_OK_AND_ASSIGN(auto mapped, snapshot::Map(snap));
  EXPECT_EQ(graph::WriteGraph(*mapped), graph::WriteGraph(*a.graph));
  ASSERT_OK_AND_ASSIGN(back, LoadWorkspace(dir_.string(), &info));
  EXPECT_TRUE(info.from_snapshot) << info.snapshot_status.ToString();
  EXPECT_EQ(Reads(back), reads_a);
}

TEST_F(CatalogTest, LoadFailureCarriesTheSnapshotRejection) {
  // Both load paths fail: snapshot.bin's last byte (in the label arena)
  // is flipped and graph.sxg is gone. The text path's NotFound stands,
  // and its message carries the reason the snapshot was rejected.
  Workspace ws;
  ws.SetGraph(test::MakeFigure2Database());
  ws.assignment = typing::TypeAssignment(ws.graph->NumObjects());
  ASSERT_OK(SaveWorkspace(ws, dir_.string()));
  std::string snap = Slurp("snapshot.bin");
  snap.back() = static_cast<char>(snap.back() ^ 1);
  Spit("snapshot.bin", snap);
  fs::remove(dir_ / "graph.sxg");

  LoadInfo info;
  util::Status st = LoadWorkspace(dir_.string(), &info).status();
  EXPECT_EQ(st.code(), util::StatusCode::kNotFound) << st.ToString();
  EXPECT_NE(st.message().find("graph.sxg"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("section label_arena payload CRC mismatch"),
            std::string::npos)
      << st.ToString();
  EXPECT_EQ(info.snapshot_status.code(), util::StatusCode::kInvalidArgument);

  // Without a snapshot there is no second reason to report.
  fs::remove(dir_ / "snapshot.bin");
  st = LoadWorkspace(dir_.string()).status();
  EXPECT_EQ(st.code(), util::StatusCode::kNotFound);
  EXPECT_EQ(st.message().find("snapshot"), std::string::npos)
      << st.ToString();
}

TEST_F(CatalogTest, TextFileMutationsRejectedOrValid) {
  // The text side of the load boundary. With snapshot.bin removed,
  // seeded truncations and 1-8 byte overwrites of graph.sxg, schema.dl
  // or assignment.tsv must load as a structured error or as a workspace
  // that validates, never crash (this suite runs under ASan+UBSan).
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::MakeDbgDataset(42));
  ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult pt,
                       typing::PerfectTypingViaHashRefinement(g));
  Workspace ws;
  ws.SetGraph(g);
  ws.program = pt.program;
  ws.assignment = typing::TypeAssignment(ws.graph->NumObjects());
  for (graph::ObjectId o = 0; o < pt.home.size(); ++o) {
    if (pt.home[o] != typing::kInvalidType) ws.assignment.Assign(o, pt.home[o]);
  }
  ASSERT_OK(SaveWorkspace(ws, dir_.string()));
  fs::remove(dir_ / "snapshot.bin");

  const char* const kFiles[] = {"graph.sxg", "schema.dl", "assignment.tsv"};
  std::string originals[3];
  for (int f = 0; f < 3; ++f) {
    originals[f] = Slurp(kFiles[f]);
    ASSERT_FALSE(originals[f].empty()) << kFiles[f];
  }
  util::Rng rng(22);
  size_t loaded = 0;
  size_t rejected = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const int f = trial % 3;
    std::string m = originals[f];
    const size_t at = rng.Uniform(m.size());
    if (rng.Bernoulli(0.25)) {
      m.resize(at);
    } else {
      const size_t len = std::min<size_t>(1 + rng.Uniform(8), m.size() - at);
      for (size_t i = 0; i < len; ++i) {
        m[at + i] = static_cast<char>(rng.Uniform(256));
      }
    }
    Spit(kFiles[f], m);
    LoadInfo info;
    auto back = LoadWorkspace(dir_.string(), &info);
    Spit(kFiles[f], originals[f]);
    EXPECT_FALSE(info.from_snapshot);
    if (!back.ok()) {
      EXPECT_FALSE(back.status().message().empty())
          << kFiles[f] << " trial " << trial;
      ++rejected;
      continue;
    }
    ++loaded;
    SCOPED_TRACE(std::string(kFiles[f]) + " trial " + std::to_string(trial));
    EXPECT_OK(back->Validate());
    EXPECT_OK(back->graph->Validate());
  }
  // Both outcomes occur, so neither check above is vacuous.
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST_F(CatalogTest, ConcurrentSaveAndLoadNeverTears) {
  // The service's cache-refresh path re-saves a workspace while another
  // thread may be loading it. Atomic per-file replacement guarantees a
  // reader sees whole files: every graph it loads is one of the two
  // generations, never a half-written one. The four renames are not one
  // commit, so a load between them may fail with a cross-generation
  // error, or may succeed with one generation's graph next to the
  // other's schema and assignment; Validate() does not catch every
  // mixed set. This test checks only that no file tears.
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
      if (!ws.ok()) continue;  // a cross-generation pairing it caught
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
