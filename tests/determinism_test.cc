// Determinism regression suite: the pipeline must be *bit-identical*
// across repeated runs. Pins
//  * the extract response JSON (minus "timings": wall clock),
//  * the saved workspace artifacts — schema.dl text, snapshot.bin
//    bytes, graph.sxg, assignment.tsv — byte for byte,
//  * WriteTypingProgram and snapshot::Write outputs across independent
//    extractions and freezes (the graph's process-unique id() must not
//    leak into serialized bytes).
// A failure here means something ordered by address, hash-bucket walk,
// or thread arrival slipped back in; see docs/static-analysis.md.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "catalog/workspace.h"
#include "extract/extractor.h"
#include "gen/dbg.h"
#include "graph/frozen_graph.h"
#include "service/server.h"
#include "snapshot/snapshot.h"
#include "tests/test_util.h"
#include "typing/program_io.h"

namespace schemex {
namespace {

namespace fs = std::filesystem;

/// Removes the "timings" object (wall-clock stage and save durations, the
/// legitimately run-varying part) from an extract response line.
std::string StripTimings(std::string line) {
  const std::string key = "\"timings\":";
  size_t pos = line.find(key);
  if (pos == std::string::npos) return line;
  size_t open = line.find('{', pos);
  EXPECT_NE(open, std::string::npos) << line;
  size_t depth = 0, end = open;
  for (; end < line.size(); ++end) {
    if (line[end] == '{') ++depth;
    if (line[end] == '}' && --depth == 0) break;
  }
  EXPECT_LT(end, line.size()) << line;
  // Erase the member plus whichever side's comma kept the JSON valid.
  size_t begin = pos;
  if (begin > 0 && line[begin - 1] == ',') {
    --begin;
  } else if (end + 1 < line.size() && line[end + 1] == ',') {
    ++end;
  }
  line.erase(begin, end + 1 - begin);
  return line;
}

/// StripTimings for a response that set save_dir, checked: the fields
/// that vary by run (stage and save times) must all sit inside
/// "timings", so that stripping it leaves none of them behind.
std::string StripSavedTimings(const std::string& line) {
  EXPECT_NE(line.find("\"save_ms\":"), std::string::npos) << line;
  std::string stripped = StripTimings(line);
  EXPECT_EQ(stripped.find("_ms\""), std::string::npos)
      << "_ms outside timings: " << stripped;
  return stripped;
}

/// Every regular file under `dir`, as relative-path -> raw bytes.
std::map<std::string, std::string> ReadDirBytes(const fs::path& dir) {
  std::map<std::string, std::string> out;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    out[fs::relative(entry.path(), dir).string()] = std::move(bytes);
  }
  return out;
}

catalog::Workspace MakeDbgWorkspace(uint64_t seed = 3) {
  auto g = gen::MakeDbgDataset(seed);
  EXPECT_TRUE(g.ok());
  extract::ExtractorOptions opt;
  opt.target_num_types = 6;
  auto r = extract::SchemaExtractor(opt).Run(*g);
  EXPECT_TRUE(r.ok());
  catalog::Workspace ws;
  ws.SetGraph(*g);
  ws.program = r->final_program;
  ws.assignment = r->recast.assignment;
  return ws;
}

class DeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("schemex_determinism_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

/// One cold server: load the saved workspace, re-extract, persist to
/// save_dir. Returns the timing-stripped response line.
std::string RunServerExtract(const fs::path& load_dir,
                             const fs::path& save_dir) {
  service::Server server;
  std::string load = server.HandleJsonLine(
      "{\"id\":1,\"verb\":\"load_workspace\",\"params\":{\"name\":\"dbg\","
      "\"dir\":\"" + load_dir.string() + "\"}}");
  EXPECT_NE(load.find("\"ok\":true"), std::string::npos) << load;
  std::string resp = server.HandleJsonLine(
      "{\"id\":2,\"verb\":\"extract\",\"params\":{\"workspace\":\"dbg\","
      "\"k\":6,\"save_dir\":\"" + save_dir.string() + "\"}}");
  EXPECT_NE(resp.find("\"ok\":true"), std::string::npos) << resp;
  return StripSavedTimings(resp);
}

TEST_F(DeterminismTest, ExtractResponseAndArtifactsAcrossRuns) {
  catalog::Workspace ws = MakeDbgWorkspace();
  ASSERT_OK(catalog::SaveWorkspace(ws, (dir_ / "seed").string()));

  // Four independent servers, one extraction each.
  std::vector<std::string> responses;
  std::vector<std::map<std::string, std::string>> artifacts;
  for (size_t i = 0; i < 4; ++i) {
    fs::path out = dir_ / ("out" + std::to_string(i));
    std::string resp = RunServerExtract(dir_ / "seed", out);
    // The per-run save_dir is echoed back as "saved_to"; neutralize it
    // so the comparison sees only pipeline output.
    size_t at = resp.find(out.string());
    ASSERT_NE(at, std::string::npos) << resp;
    resp.replace(at, out.string().size(), "<save_dir>");
    responses.push_back(std::move(resp));
    artifacts.push_back(ReadDirBytes(out));
  }

  ASSERT_NE(responses[0].find("\"num_final_types\""), std::string::npos)
      << responses[0];
  EXPECT_EQ(responses[0].find("timings"), std::string::npos)
      << "StripTimings left timings behind: " << responses[0];
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(responses[0], responses[i])
        << "extract response drifted (run 0 vs run " << i << ")";
  }

  // schema.dl / snapshot.bin / graph.sxg / assignment.tsv, byte-equal.
  ASSERT_EQ(artifacts[0].count("schema.dl"), 1u);
  ASSERT_EQ(artifacts[0].count("snapshot.bin"), 1u);
  for (size_t i = 1; i < 4; ++i) {
    ASSERT_EQ(artifacts[0].size(), artifacts[i].size());
    for (const auto& [name, bytes] : artifacts[0]) {
      ASSERT_EQ(artifacts[i].count(name), 1u) << name;
      EXPECT_EQ(bytes, artifacts[i].at(name))
          << name << " drifted (run 0 vs run " << i << ")";
    }
  }
}

TEST_F(DeterminismTest, IncrementalReExtractMatchesColdExtraction) {
  // The incremental service path — extract (installs the cache), then
  // apply_delta, then re_extract — must save artifacts byte-identical
  // to a cold extraction of an equivalently mutated graph, on repeated
  // runs and in both overlay and compacted forms.
  catalog::Workspace seed_ws = MakeDbgWorkspace();
  ASSERT_OK(catalog::SaveWorkspace(seed_ws, (dir_ / "seed").string()));

  // Reference model: the same base graph mutated by the same ops through
  // DataGraph (the op sequence fixes the label-intern order on both
  // sides), then extracted cold through the same server verb.
  auto base = gen::MakeDbgDataset(3);
  ASSERT_TRUE(base.ok());
  graph::DataGraph ref = *base;
  std::vector<graph::ObjectId> cs;
  for (graph::ObjectId o = 0;
       o < ref.NumObjects() && cs.size() < 2; ++o) {
    if (ref.IsComplex(o)) cs.push_back(o);
  }
  ASSERT_EQ(cs.size(), 2u);
  const graph::ObjectId c1 = cs[0], c2 = cs[1];
  const graph::ObjectId n0 = static_cast<graph::ObjectId>(ref.NumObjects());
  ASSERT_FALSE(ref.OutEdges(c1).empty());
  const graph::HalfEdge del = ref.OutEdges(c1).front();
  const std::string del_label = ref.labels().Name(del.label);

  auto id = [](graph::ObjectId o) { return std::to_string(o); };
  const std::string ops =
      "[{\"op\":\"add_object\",\"kind\":\"complex\",\"name\":\"newc\"},"
      "{\"op\":\"add_object\",\"kind\":\"atomic\",\"value\":\"newv\"},"
      "{\"op\":\"add_link\",\"from\":" + id(c1) + ",\"to\":" + id(n0) +
      ",\"label\":\"delta_ref\"},"
      "{\"op\":\"add_link\",\"from\":" + id(n0) + ",\"to\":" + id(n0 + 1) +
      ",\"label\":\"delta_attr\"},"
      "{\"op\":\"add_link\",\"from\":" + id(n0) + ",\"to\":" + id(c2) +
      ",\"label\":\"delta_ref\"},"
      "{\"op\":\"del_link\",\"from\":" + id(c1) + ",\"to\":" + id(del.other) +
      ",\"label\":\"" + del_label + "\"}]";

  ASSERT_EQ(ref.AddComplex("newc"), n0);
  ASSERT_EQ(ref.AddAtomic("newv"), n0 + 1);
  ASSERT_OK(ref.AddEdge(c1, n0, "delta_ref"));
  ASSERT_OK(ref.AddEdge(n0, n0 + 1, "delta_attr"));
  ASSERT_OK(ref.AddEdge(n0, c2, "delta_ref"));
  ASSERT_OK(ref.RemoveEdge(c1, del.other, del.label));

  catalog::Workspace ref_ws;
  ref_ws.SetGraph(ref);
  ASSERT_OK(catalog::SaveWorkspace(ref_ws, (dir_ / "refseed").string()));
  RunServerExtract(dir_ / "refseed", dir_ / "refout");
  auto cold_artifacts = ReadDirBytes(dir_ / "refout");
  ASSERT_EQ(cold_artifacts.count("schema.dl"), 1u);
  ASSERT_EQ(cold_artifacts.count("snapshot.bin"), 1u);
  ASSERT_EQ(cold_artifacts.count("graph.sxg"), 1u);
  ASSERT_EQ(cold_artifacts.count("assignment.tsv"), 1u);

  std::vector<std::string> responses;
  int run = 0;
  for (int repeat = 0; repeat < 2; ++repeat) {
    for (bool compact : {false, true}) {
      fs::path out = dir_ / ("inc" + std::to_string(run++));
      service::Server server;
      std::string load = server.HandleJsonLine(
          "{\"id\":1,\"verb\":\"load_workspace\",\"params\":{\"name\":"
          "\"dbg\",\"dir\":\"" + (dir_ / "seed").string() + "\"}}");
      ASSERT_NE(load.find("\"ok\":true"), std::string::npos) << load;
      std::string ex = server.HandleJsonLine(
          "{\"id\":2,\"verb\":\"extract\",\"params\":{\"workspace\":\"dbg\","
          "\"k\":6}}");
      ASSERT_NE(ex.find("\"ok\":true"), std::string::npos) << ex;
      std::string ad = server.HandleJsonLine(
          "{\"id\":3,\"verb\":\"apply_delta\",\"params\":{\"workspace\":"
          "\"dbg\",\"compact\":" + std::string(compact ? "true" : "false") +
          ",\"ops\":" + ops + "}}");
      ASSERT_NE(ad.find("\"ok\":true"), std::string::npos) << ad;
      std::string rx = server.HandleJsonLine(
          "{\"id\":4,\"verb\":\"re_extract\",\"params\":{\"workspace\":"
          "\"dbg\",\"save_dir\":\"" + out.string() + "\"}}");
      ASSERT_NE(rx.find("\"ok\":true"), std::string::npos) << rx;

      rx = StripSavedTimings(rx);
      size_t at = rx.find(out.string());
      ASSERT_NE(at, std::string::npos) << rx;
      rx.replace(at, out.string().size(), "<save_dir>");
      responses.push_back(std::move(rx));

      auto artifacts = ReadDirBytes(out);
      ASSERT_EQ(artifacts.size(), cold_artifacts.size());
      for (const auto& [name, bytes] : cold_artifacts) {
        ASSERT_EQ(artifacts.count(name), 1u) << name;
        EXPECT_EQ(bytes, artifacts.at(name))
            << name << " drifted from the cold extraction (repeat "
            << repeat << ", compact=" << compact << ")";
      }
    }
  }
  // The re_extract responses (timings stripped) must agree with each
  // other across repeats and overlay-vs-compacted forms: same k,
  // types, defect, recast counts, and incremental stats.
  ASSERT_NE(responses[0].find("\"incremental\""), std::string::npos)
      << responses[0];
  for (size_t i = 1; i < responses.size(); ++i) {
    EXPECT_EQ(responses[0], responses[i])
        << "re_extract response drifted (run 0 vs run " << i << ")";
  }
}

TEST_F(DeterminismTest, SchemaTextIdenticalAcrossIndependentExtractions) {
  // Independent dataset builds + extractions must serialize to the same
  // datalog text.
  std::vector<std::string> texts;
  for (int run = 0; run < 4; ++run) {
    auto g = gen::MakeDbgDataset(7);
    ASSERT_TRUE(g.ok());
    extract::ExtractorOptions opt;
    opt.target_num_types = 5;
    auto r = extract::SchemaExtractor(opt).Run(*g);
    ASSERT_TRUE(r.ok());
    texts.push_back(
        typing::WriteTypingProgram(r->final_program, g->labels()));
  }
  for (size_t i = 1; i < texts.size(); ++i) {
    EXPECT_EQ(texts[0], texts[i]) << "schema.dl text drifted (run " << i
                                  << ")";
  }
}

TEST_F(DeterminismTest, SnapshotBytesIdenticalAcrossIndependentFreezes) {
  // Two separately generated + frozen graphs of the same seed must write
  // identical snapshots. Also proves the freeze-time process-unique
  // graph id() stays out of the file.
  std::vector<std::string> files;
  for (int run = 0; run < 2; ++run) {
    auto g = gen::MakeDbgDataset(11);
    ASSERT_TRUE(g.ok());
    auto frozen = graph::Freeze(*g);
    fs::path p = dir_ / ("snap" + std::to_string(run) + ".bin");
    ASSERT_OK(snapshot::Write(*frozen, p.string()));
    std::ifstream in(p, std::ios::binary);
    files.emplace_back((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
    ASSERT_FALSE(files.back().empty());
  }
  EXPECT_EQ(files[0], files[1]) << "snapshot bytes drifted";
}

}  // namespace
}  // namespace schemex
