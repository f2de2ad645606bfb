// Round-trip and integration tests for the binary snapshot store
// (src/snapshot/): Map(Write(g)) must be bit-identical to g, mappings
// must outlive unlink/replace of the file, and the catalog must prefer
// a snapshot yet fall back to the text files when it is missing, stale,
// or corrupt. Corruption-rejection fuzzing lives in
// snapshot_corruption_test.cc.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "catalog/workspace.h"
#include "extract/extractor.h"
#include "gen/dbg.h"
#include "graph/graph_builder.h"
#include "snapshot/mapped_file.h"
#include "snapshot/snapshot.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "util/string_util.h"

namespace schemex::snapshot {
namespace {

namespace fs = std::filesystem;

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("schemex_snap_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const char* name) const { return (dir_ / name).string(); }

  fs::path dir_;
};

/// A seeded random bipartite-ish graph: complex objects with random
/// labeled edges to both complex and atomic targets, random-length
/// values/names so the text arena has interesting offsets.
graph::DataGraph MakeRandomGraph(uint64_t seed, size_t num_complex,
                                 size_t num_atomic, size_t num_edges) {
  util::Rng rng(seed);
  graph::GraphBuilder b;
  for (size_t i = 0; i < num_complex; ++i) {
    EXPECT_OK(b.Complex(util::StringPrintf("c%zu", i)));
  }
  for (size_t i = 0; i < num_atomic; ++i) {
    std::string value(rng.Uniform(24), 'x');
    for (char& c : value) c = static_cast<char>('a' + rng.Uniform(26));
    EXPECT_OK(b.Atomic(util::StringPrintf("a%zu", i), value));
  }
  std::set<std::string> seen;  // the builder treats duplicates as misuse
  size_t added = 0;
  for (size_t attempts = 0; added < num_edges && attempts < num_edges * 10;
       ++attempts) {
    std::string from = util::StringPrintf("c%llu",
        static_cast<unsigned long long>(rng.Uniform(num_complex)));
    std::string label = util::StringPrintf("l%llu",
        static_cast<unsigned long long>(rng.Uniform(8)));
    std::string to =
        rng.Bernoulli(0.5) && num_atomic > 0
            ? util::StringPrintf("a%llu", static_cast<unsigned long long>(
                                              rng.Uniform(num_atomic)))
            : util::StringPrintf("c%llu", static_cast<unsigned long long>(
                                              rng.Uniform(num_complex)));
    if (!seen.insert(from + "|" + label + "|" + to).second) continue;
    EXPECT_OK(b.Edge(from, label, to));
    ++added;
  }
  util::Status st;
  graph::DataGraph g = std::move(b).Build(&st);
  EXPECT_OK(st);
  return g;
}

template <typename T>
void ExpectSpanBytesEqual(std::span<const T> a, std::span<const T> b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size_bytes()), 0) << what;
}

/// Bit-identical: every CSR array, the arena, and the label table of the
/// mapped graph must match the original byte for byte.
void ExpectBitIdentical(const graph::FrozenGraph& a,
                        const graph::FrozenGraph& b) {
  ASSERT_EQ(a.NumObjects(), b.NumObjects());
  ASSERT_EQ(a.NumComplexObjects(), b.NumComplexObjects());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  graph::FrozenGraph::Parts pa = a.parts();
  graph::FrozenGraph::Parts pb = b.parts();
  ExpectSpanBytesEqual(pa.out_off, pb.out_off, "out_off");
  ExpectSpanBytesEqual(pa.in_off, pb.in_off, "in_off");
  ExpectSpanBytesEqual(pa.text_off, pb.text_off, "text_off");
  ExpectSpanBytesEqual(pa.atomic_words, pb.atomic_words, "atomic_words");
  ExpectSpanBytesEqual(pa.out_edges, pb.out_edges, "out_edges");
  ExpectSpanBytesEqual(pa.in_edges, pb.in_edges, "in_edges");
  EXPECT_EQ(pa.arena, pb.arena);
  ASSERT_EQ(a.labels().size(), b.labels().size());
  for (graph::LabelId l = 0; l < a.labels().size(); ++l) {
    EXPECT_EQ(a.labels().Name(l), b.labels().Name(l)) << "label " << l;
  }
}

TEST_F(SnapshotTest, RoundTripRandomGraphs) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(util::StringPrintf("seed=%llu",
                                    static_cast<unsigned long long>(seed)));
    graph::DataGraph g =
        MakeRandomGraph(seed, /*num_complex=*/40 + seed * 7,
                        /*num_atomic=*/30, /*num_edges=*/200);
    auto frozen = graph::Freeze(g);
    ASSERT_OK(Write(*frozen, Path("r.bin")));
    ASSERT_OK_AND_ASSIGN(auto mapped, Map(Path("r.bin")));
    ExpectBitIdentical(*frozen, *mapped);
    EXPECT_OK(mapped->Validate());
    // Snapshots are zero-copy: the big arrays live in the file, not on
    // the heap.
    EXPECT_LT(mapped->MemoryUsage(), mapped->MappedBytes() / 4);
  }
}

TEST_F(SnapshotTest, RoundTripFigure2AndDbg) {
  auto check = [&](const graph::DataGraph& src) {
    auto frozen = graph::Freeze(src);
    ASSERT_OK(Write(*frozen, Path("g.bin")));
    ASSERT_OK_AND_ASSIGN(auto mapped, Map(Path("g.bin")));
    ExpectBitIdentical(*frozen, *mapped);
    EXPECT_OK(mapped->Validate());
  };
  check(test::MakeFigure2Database());
  auto dbg = gen::MakeDbgDataset(7);
  ASSERT_TRUE(dbg.ok());
  check(*dbg);
}

TEST_F(SnapshotTest, RoundTripEmptyGraph) {
  graph::DataGraph empty;
  auto frozen = graph::Freeze(empty);
  ASSERT_OK(Write(*frozen, Path("empty.bin")));
  ASSERT_OK_AND_ASSIGN(auto mapped, Map(Path("empty.bin")));
  EXPECT_EQ(mapped->NumObjects(), 0u);
  EXPECT_EQ(mapped->NumEdges(), 0u);
  EXPECT_OK(mapped->Validate());
}

TEST_F(SnapshotTest, MappingSurvivesUnlinkAndIsAccounted) {
  graph::DataGraph g = MakeRandomGraph(5, 30, 20, 120);
  auto frozen = graph::Freeze(g);
  ASSERT_OK(Write(*frozen, Path("g.bin")));

  size_t base_bytes = LiveMappedBytes();
  {
    ASSERT_OK_AND_ASSIGN(auto mapped, Map(Path("g.bin")));
    EXPECT_EQ(LiveMappedBytes(), base_bytes + mapped->MappedBytes());
    // POSIX keeps the mapping alive after the directory entry is gone:
    // replacing a snapshot (tmp+rename in SaveWorkspace) must never pull
    // pages out from under a workspace that already mapped the old one.
    fs::remove(Path("g.bin"));
    ExpectBitIdentical(*frozen, *mapped);
    EXPECT_OK(mapped->Validate());
  }
  EXPECT_EQ(LiveMappedBytes(), base_bytes);  // unmapped on last release
}

TEST_F(SnapshotTest, ConcurrentMapAndRead) {
  graph::DataGraph g = MakeRandomGraph(11, 50, 40, 250);
  auto frozen = graph::Freeze(g);
  ASSERT_OK(Write(*frozen, Path("g.bin")));
  for (size_t num_threads : {1u, 4u}) {
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (size_t t = 0; t < num_threads; ++t) {
      threads.emplace_back([&] {
        auto mapped = Map(Path("g.bin"));
        if (!mapped.ok() || !(*mapped)->Validate().ok() ||
            (*mapped)->NumEdges() != frozen->NumEdges()) {
          ++failures;
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(failures.load(), 0) << num_threads << " threads";
  }
}

TEST_F(SnapshotTest, InspectReportsSectionsAndCrcs) {
  graph::DataGraph g = MakeRandomGraph(3, 20, 15, 80);
  auto frozen = graph::Freeze(g);
  ASSERT_OK(Write(*frozen, Path("g.bin")));
  ASSERT_OK_AND_ASSIGN(SnapshotInfo info, Inspect(Path("g.bin")));
  EXPECT_EQ(info.version, 1u);
  EXPECT_EQ(info.num_objects, frozen->NumObjects());
  EXPECT_EQ(info.num_edges, frozen->NumEdges());
  EXPECT_EQ(info.num_labels, frozen->labels().size());
  EXPECT_EQ(info.sections.size(), 9u);
  for (const auto& s : info.sections) {
    EXPECT_TRUE(s.crc_ok) << s.name;
    EXPECT_EQ(s.encoding, "raw") << s.name;
    EXPECT_NE(s.name, "unknown");
  }
}

// ---------------------------------------------------------------------
// Catalog integration: snapshot preference and text fallback.

TEST_F(SnapshotTest, WorkspacePrefersSnapshot) {
  catalog::Workspace ws;
  ws.SetGraph(test::MakeFigure2Database());
  ws.assignment = typing::TypeAssignment(ws.graph->NumObjects());
  ASSERT_OK(catalog::SaveWorkspace(ws, dir_.string()));
  ASSERT_TRUE(fs::exists(dir_ / "snapshot.bin"));

  // Corrupt the text graph: if the loader really prefers the snapshot it
  // never parses graph.sxg at all.
  { std::ofstream(dir_ / "graph.sxg") << "not a graph\n"; }
  catalog::LoadInfo info;
  ASSERT_OK_AND_ASSIGN(catalog::Workspace back,
                       catalog::LoadWorkspace(dir_.string(), &info));
  EXPECT_TRUE(info.from_snapshot);
  EXPECT_OK(info.snapshot_status);
  EXPECT_EQ(back.graph->NumObjects(), ws.graph->NumObjects());
  EXPECT_GT(back.graph->MappedBytes(), 0u);
}

TEST_F(SnapshotTest, WorkspaceFallsBackOnCorruptSnapshot) {
  catalog::Workspace ws;
  ws.SetGraph(test::MakeFigure2Database());
  ws.assignment = typing::TypeAssignment(ws.graph->NumObjects());
  ASSERT_OK(catalog::SaveWorkspace(ws, dir_.string()));

  // Truncate the snapshot; the text files stay authoritative.
  fs::resize_file(dir_ / "snapshot.bin", 100);
  catalog::LoadInfo info;
  ASSERT_OK_AND_ASSIGN(catalog::Workspace back,
                       catalog::LoadWorkspace(dir_.string(), &info));
  EXPECT_FALSE(info.from_snapshot);
  EXPECT_FALSE(info.snapshot_status.ok());
  EXPECT_NE(info.snapshot_status.code(), util::StatusCode::kNotFound);
  EXPECT_EQ(back.graph->NumObjects(), ws.graph->NumObjects());
  EXPECT_EQ(back.graph->MappedBytes(), 0u);
}

TEST_F(SnapshotTest, WorkspaceSchemaAndAssignmentRideAlong) {
  auto g = gen::MakeDbgDataset(3);
  ASSERT_TRUE(g.ok());
  extract::ExtractorOptions opt;
  opt.target_num_types = 6;
  auto r = extract::SchemaExtractor(opt).Run(*g);
  ASSERT_TRUE(r.ok());
  catalog::Workspace ws;
  ws.SetGraph(*g);
  ws.program = r->final_program;
  ws.assignment = r->recast.assignment;
  ASSERT_OK(catalog::SaveWorkspace(ws, dir_.string()));

  catalog::LoadInfo info;
  ASSERT_OK_AND_ASSIGN(catalog::Workspace back,
                       catalog::LoadWorkspace(dir_.string(), &info));
  EXPECT_TRUE(info.from_snapshot) << info.snapshot_status.ToString();
  EXPECT_EQ(back.program.NumTypes(), ws.program.NumTypes());
  for (graph::ObjectId o = 0; o < back.graph->NumObjects(); ++o) {
    ASSERT_EQ(back.assignment.TypesOf(o), ws.assignment.TypesOf(o))
        << "object " << o;
  }
}

TEST_F(SnapshotTest, StaleSnapshotFallsBackWhenSchemaGrows) {
  catalog::Workspace ws;
  ws.SetGraph(test::MakeFigure2Database());
  ws.assignment = typing::TypeAssignment(ws.graph->NumObjects());
  ASSERT_OK(catalog::SaveWorkspace(ws, dir_.string()));

  // A schema edited after the snapshot was written, referencing a label
  // the frozen label table has never seen: the snapshot is stale, the
  // text path (which interns freely pre-freeze) must take over.
  {
    std::ofstream out(dir_ / "schema.dl");
    out << "t0(X) :- link(X, V1, \"brand-new-label\"), t0(V1).\n";
  }
  catalog::LoadInfo info;
  ASSERT_OK_AND_ASSIGN(catalog::Workspace back,
                       catalog::LoadWorkspace(dir_.string(), &info));
  EXPECT_FALSE(info.from_snapshot);
  EXPECT_EQ(info.snapshot_status.code(),
            util::StatusCode::kFailedPrecondition)
      << info.snapshot_status.ToString();
  EXPECT_EQ(back.program.NumTypes(), 1u);
}

// ---------------------------------------------------------------------
// Satellite: text-path parse errors name the offending file.

TEST_F(SnapshotTest, TextLoadErrorsNameFileAndLine) {
  catalog::Workspace ws;
  ws.SetGraph(test::MakeFigure2Database());
  ws.assignment = typing::TypeAssignment(ws.graph->NumObjects());
  ASSERT_OK(catalog::SaveWorkspace(ws, dir_.string()));
  fs::remove(dir_ / "snapshot.bin");  // force the text path

  {
    // Break line 2 of the graph file.
    std::ifstream in(dir_ / "graph.sxg");
    std::string first;
    std::getline(in, first);
    in.close();
    std::ofstream out(dir_ / "graph.sxg");
    out << first << "\n!!! not a graph line\n";
  }
  auto bad = catalog::LoadWorkspace(dir_.string());
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("graph.sxg: line 2"),
            std::string::npos)
      << bad.status().ToString();
}

TEST_F(SnapshotTest, AssignmentErrorsNameFileAndLine) {
  catalog::Workspace ws;
  ws.SetGraph(test::MakeFigure2Database());
  ws.assignment = typing::TypeAssignment(ws.graph->NumObjects());
  ASSERT_OK(catalog::SaveWorkspace(ws, dir_.string()));
  { std::ofstream(dir_ / "assignment.tsv") << "# ok\nnot-a-row\n"; }
  // Both paths (snapshot present here) must surface the same message.
  auto bad = catalog::LoadWorkspace(dir_.string());
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("assignment.tsv line 2"),
            std::string::npos)
      << bad.status().ToString();
}

}  // namespace
}  // namespace schemex::snapshot
