#include "service/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/workspace.h"
#include "extract/extractor.h"
#include "extract/knee.h"
#include "gen/dbg.h"
#include "gen/random_graph.h"
#include "gen/spec.h"
#include "gen/table1.h"
#include "json/json.h"
#include "service/request.h"
#include "tests/test_util.h"
#include "typing/perfect_typing.h"
#include "typing/program_io.h"

namespace schemex::service {
namespace {

namespace fs = std::filesystem;

using json::Value;

/// Pulls a field out of a response result object.
const Value& Field(const Value& obj, const std::string& key) {
  auto it = obj.AsObject().find(key);
  EXPECT_NE(it, obj.AsObject().end()) << "missing field " << key;
  static const Value kNull;
  return it == obj.AsObject().end() ? kNull : it->second;
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

Request MakeRequest(Verb verb, int64_t id = 1) {
  Request req;
  req.id = id;
  req.verb = verb;
  return req;
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("schemexd_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(ServiceTest, LoadWorkspaceVerb) {
  catalog::Workspace ws = MakeDbgWorkspace();
  ASSERT_OK(catalog::SaveWorkspace(ws, dir_.string()));

  Server server;
  Request req = MakeRequest(Verb::kLoadWorkspace);
  req.load.name = "dbg";
  req.load.dir = dir_.string();
  Response resp = server.Handle(req);
  ASSERT_OK(resp.status);
  EXPECT_EQ(Field(resp.result, "objects").AsNumber(), ws.graph->NumObjects());
  EXPECT_EQ(Field(resp.result, "num_types").AsNumber(), 6);
  EXPECT_EQ(server.WorkspaceNames(), std::vector<std::string>{"dbg"});

  // Loading a missing directory is a NotFound error, not a crash.
  req.load.dir = (dir_ / "missing").string();
  resp = server.Handle(req);
  EXPECT_EQ(resp.status.code(), util::StatusCode::kNotFound);
}

TEST_F(ServiceTest, LoadWorkspaceReportsRejectedSnapshot) {
  // A rejected snapshot.bin reaches the client either way: as
  // snapshot_error when the text files load, and inside the error reply
  // when they do not load either.
  catalog::Workspace ws = MakeDbgWorkspace();
  ASSERT_OK(catalog::SaveWorkspace(ws, dir_.string()));
  std::string snap;
  {
    std::ifstream in(dir_ / "snapshot.bin", std::ios::binary);
    snap.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(snap.empty());
  snap.back() = static_cast<char>(snap.back() ^ 1);  // label arena byte
  {
    std::ofstream out(dir_ / "snapshot.bin",
                      std::ios::binary | std::ios::trunc);
    out << snap;
  }

  Server server;
  Request req = MakeRequest(Verb::kLoadWorkspace);
  req.load.name = "dbg";
  req.load.dir = dir_.string();
  Response resp = server.Handle(req);
  ASSERT_OK(resp.status);
  EXPECT_EQ(Field(resp.result, "source").AsString(), "text");
  EXPECT_NE(Field(resp.result, "snapshot_error").AsString().find(
                "section label_arena payload CRC mismatch"),
            std::string::npos);

  fs::remove(dir_ / "graph.sxg");
  resp = server.Handle(req);
  EXPECT_EQ(resp.status.code(), util::StatusCode::kNotFound);
  const std::string wire = SerializeResponse(resp);
  EXPECT_NE(wire.find("graph.sxg"), std::string::npos) << wire;
  EXPECT_NE(wire.find("section label_arena payload CRC mismatch"),
            std::string::npos)
      << wire;
}

TEST_F(ServiceTest, ExtractVerbReplacesSchema) {
  Server server;
  catalog::Workspace ws;
  ws.graph = MakeDbgWorkspace().graph;
  ws.assignment = typing::TypeAssignment(ws.graph->NumObjects());
  ASSERT_OK(server.InstallWorkspace("dbg", std::move(ws)));

  Request req = MakeRequest(Verb::kExtract);
  req.extract.workspace = "dbg";
  req.extract.k = 6;
  req.extract.save_dir = dir_.string();
  Response resp = server.Handle(req);
  ASSERT_OK(resp.status);
  EXPECT_EQ(Field(resp.result, "num_final_types").AsNumber(), 6);
  EXPECT_GT(Field(resp.result, "num_perfect_types").AsNumber(), 6);
  EXPECT_FALSE(Field(resp.result, "auto_k").AsBool());
  // A fixed k runs no knee sweep, so the response reports none.
  EXPECT_EQ(resp.result.AsObject().count("sweep_points"), 0u);
  EXPECT_EQ(Field(resp.result, "timings").AsObject().count("sweep_ms"), 0u);

  // The workspace now has a schema: `type` with no inline program works.
  Request type_req = MakeRequest(Verb::kType);
  type_req.type.workspace = "dbg";
  resp = server.Handle(type_req);
  ASSERT_OK(resp.status);
  EXPECT_EQ(Field(resp.result, "num_types").AsNumber(), 6);

  // And save_dir persisted a loadable workspace.
  ASSERT_OK_AND_ASSIGN(catalog::Workspace back,
                       catalog::LoadWorkspace(dir_.string()));
  EXPECT_EQ(back.program.NumTypes(), 6u);
}

TEST_F(ServiceTest, SavedSchemaWithALinklessTypeLoads) {
  // A complex object without links gets a type with an empty body, which
  // schema.dl writes as `typeN(X) :- true.`; load_workspace must read it
  // back instead of failing the whole workspace on a parse error.
  Server server;
  ASSERT_OK(server.InstallWorkspace("dbg", MakeDbgWorkspace()));
  Request delta = MakeRequest(Verb::kApplyDelta);
  delta.apply_delta.workspace = "dbg";
  DeltaOp lonely;
  lonely.op = "add_object";
  delta.apply_delta.ops = {lonely};
  ASSERT_OK(server.Handle(delta).status);

  // k above the Stage-1 type count keeps every perfect type, the empty
  // one included.
  Request extract = MakeRequest(Verb::kExtract);
  extract.extract.workspace = "dbg";
  extract.extract.k = 1000;
  extract.extract.save_dir = dir_.string();
  Response resp = server.Handle(extract);
  ASSERT_OK(resp.status);
  const double num_types = Field(resp.result, "num_final_types").AsNumber();
  std::string schema;
  {
    std::ifstream in(dir_ / "schema.dl", std::ios::binary);
    schema.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
  }
  EXPECT_NE(schema.find("(X) :- true.\n"), std::string::npos);

  Request load = MakeRequest(Verb::kLoadWorkspace);
  load.load.name = "reloaded";
  load.load.dir = dir_.string();
  resp = server.Handle(load);
  ASSERT_OK(resp.status);
  Response list = server.Handle(MakeRequest(Verb::kListWorkspaces));
  ASSERT_OK(list.status);
  const Value& saved = Field(list.result, "workspaces").AsArray().at(0);
  for (const char* key : {"objects", "edges", "num_types", "typed_objects"}) {
    EXPECT_EQ(Field(resp.result, key).AsNumber(), Field(saved, key).AsNumber())
        << key;
  }
  EXPECT_EQ(Field(resp.result, "num_types").AsNumber(), num_types);

  // The loaded schema prints back to the same bytes.
  ASSERT_OK_AND_ASSIGN(catalog::Workspace back,
                       catalog::LoadWorkspace(dir_.string()));
  EXPECT_EQ(typing::WriteTypingProgram(back.program, back.View().labels()),
            schema);
}

TEST_F(ServiceTest, GfpStage1FitsTheBudgetOnDb1x30) {
  // `"stage1": "gfp"` merges bisimulation classes by GFP extent: k·n
  // bits of extents for k classes (40 here), not one extent per object
  // (n^2 bits, ~13 s on this 30k-object tenant).
  gen::DatasetSpec spec = gen::Table1Datasets().front().spec;
  for (gen::TypeSpec& t : spec.types) t.count *= 30;
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::Generate(spec, 42));
  catalog::Workspace ws;
  ws.SetGraph(g);
  ws.assignment = typing::TypeAssignment(ws.graph->NumObjects());
  Server server;
  ASSERT_OK(server.InstallWorkspace("db1x30", std::move(ws)));

  std::map<std::string, double> perfect_types;
  for (const char* stage1 : {"refinement", "gfp"}) {
    SCOPED_TRACE(stage1);
    Request req = MakeRequest(Verb::kExtract);
    req.extract.workspace = "db1x30";
    req.extract.k = 10;
    req.extract.stage1 = stage1;
    req.timeout_s = 2;
    Response resp = server.Handle(req);
    ASSERT_OK(resp.status);
    perfect_types[stage1] =
        Field(resp.result, "num_perfect_types").AsNumber();
  }
  EXPECT_EQ(perfect_types["gfp"], 40);
  EXPECT_EQ(perfect_types["gfp"], perfect_types["refinement"]);
}

TEST_F(ServiceTest, ExtractAutoKPicksKnee) {
  // The server sweeps only k <= max_types; it must still pick the knee of
  // an uncapped in-process sweep and return that k's extraction.
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::MakeDbgDataset(3));
  ASSERT_OK_AND_ASSIGN(std::vector<extract::SensitivityPoint> full,
                       extract::SensitivitySweep(g, {}));
  for (uint64_t max_types : {20, 5, 0}) {
    SCOPED_TRACE("max_types " + std::to_string(max_types));
    extract::KneeOptions knee;
    knee.max_types = max_types;
    const size_t want_k = extract::FindKnee(full, knee).k;
    extract::ExtractorOptions opt;
    opt.target_num_types = want_k;
    ASSERT_OK_AND_ASSIGN(extract::ExtractionResult want,
                         extract::SchemaExtractor(opt).Run(g));

    Server server;
    ASSERT_OK(server.InstallWorkspace("dbg", MakeDbgWorkspace()));
    Request req = MakeRequest(Verb::kExtract);
    req.extract.workspace = "dbg";
    req.extract.k = 0;  // auto
    req.extract.max_types = max_types;
    Response resp = server.Handle(req);
    ASSERT_OK(resp.status);
    const Value& r = resp.result;
    EXPECT_TRUE(Field(r, "auto_k").AsBool());
    EXPECT_EQ(Field(r, "k").AsNumber(), want_k);
    EXPECT_EQ(Field(r, "num_final_types").AsNumber(), want.num_final_types);
    EXPECT_EQ(Field(Field(r, "defect"), "excess").AsNumber(),
              want.defect.excess);
    EXPECT_EQ(Field(Field(r, "defect"), "deficit").AsNumber(),
              want.defect.deficit);
    EXPECT_EQ(Field(Field(r, "defect"), "defect").AsNumber(),
              want.defect.defect());
    // The sweep recast one point per k it could pick, and says so.
    const size_t want_points =
        max_types == 0 ? full.size() : std::min<size_t>(max_types, full.size());
    EXPECT_EQ(Field(r, "sweep_points").AsNumber(), want_points);
    EXPECT_GE(Field(Field(r, "timings"), "sweep_ms").AsNumber(), 0);

    Response stats = server.Handle(MakeRequest(Verb::kStats));
    ASSERT_OK(stats.status);
    bool sweep_histogram = false;
    for (const Value& v : Field(stats.result, "verbs").AsArray()) {
      if (Field(v, "verb").AsString() != "extract.sweep") continue;
      sweep_histogram = true;
      EXPECT_EQ(Field(v, "count").AsNumber(), 1);
    }
    EXPECT_TRUE(sweep_histogram);
  }
}

/// A response result without its "timings" object (wall clock, which
/// varies by run), serialized for comparison.
std::string WithoutTimings(const Value& result) {
  std::map<std::string, Value> fields = result.AsObject();
  fields.erase("timings");
  return json::Serialize(Value::Object(std::move(fields)));
}

TEST_F(ServiceTest, ExtractReportsSaveTime) {
  Server server;
  ASSERT_OK(server.InstallWorkspace("dbg", MakeDbgWorkspace()));
  // extract (k = 1) then re_extract, each without and then with a
  // save_dir.
  std::vector<Value> responses;
  for (bool save : {false, true}) {
    Request req = MakeRequest(Verb::kExtract);
    req.extract.workspace = "dbg";
    req.extract.k = 1;
    if (save) req.extract.save_dir = (dir_ / "extract").string();
    Response resp = server.Handle(req);
    ASSERT_OK(resp.status);
    responses.push_back(resp.result);
  }
  for (bool save : {false, true}) {
    Request req = MakeRequest(Verb::kReExtract);
    req.re_extract.workspace = "dbg";
    if (save) req.re_extract.save_dir = (dir_ / "re_extract").string();
    Response resp = server.Handle(req);
    ASSERT_OK(resp.status);
    responses.push_back(resp.result);
  }
  for (size_t i = 0; i < responses.size(); ++i) {
    SCOPED_TRACE(i);
    const Value& timings = Field(responses[i], "timings");
    for (const char* key : {"stage1_ms", "cluster_ms", "recast_ms",
                            "total_ms"}) {
      EXPECT_GE(Field(timings, key).AsNumber(), 0) << key;
    }
    // Every stage runs on the request's worker; no thread count is
    // reported.
    EXPECT_EQ(timings.AsObject().count("threads"), 0u);
    // save_ms appears exactly when the request set save_dir.
    const bool saved = i % 2 == 1;
    EXPECT_EQ(timings.AsObject().count("save_ms"), saved ? 1u : 0u);
    if (saved) {
      EXPECT_GE(Field(timings, "save_ms").AsNumber(), 0);
    }
  }
  Response stats = server.Handle(MakeRequest(Verb::kStats));
  ASSERT_OK(stats.status);
  bool save_histogram = false;
  for (const Value& v : Field(stats.result, "verbs").AsArray()) {
    if (Field(v, "verb").AsString() != "extract.save") continue;
    save_histogram = true;
    EXPECT_EQ(Field(v, "count").AsNumber(), 2);  // one extract, one re_extract
  }
  EXPECT_TRUE(save_histogram);
}

TEST_F(ServiceTest, RemovedParallelismFieldIsIgnored) {
  // extract and re_extract used to take a "parallelism" thread count.
  // The field is gone, and like any unknown field it is ignored: a
  // request that still carries it, at any value, gets the response it
  // would get without it.
  auto run = [](const std::string& extra) {
    Server server;
    EXPECT_OK(server.InstallWorkspace("dbg", MakeDbgWorkspace()));
    std::vector<std::string> out;
    for (const std::string& line :
         {"{\"id\":1,\"verb\":\"extract\",\"params\":{\"workspace\":"
          "\"dbg\",\"k\":6" + extra + "}}",
          "{\"id\":2,\"verb\":\"re_extract\",\"params\":{\"workspace\":"
          "\"dbg\"" + extra + "}}"}) {
      auto req = ParseRequestJson(line);
      EXPECT_TRUE(req.ok()) << req.status().ToString();
      if (!req.ok()) continue;
      Response resp = server.Handle(*req);
      EXPECT_OK(resp.status);
      out.push_back(WithoutTimings(resp.result));
    }
    return out;
  };
  const std::vector<std::string> plain = run("");
  ASSERT_EQ(plain.size(), 2u);
  EXPECT_EQ(run(",\"parallelism\":100000"), plain);
  EXPECT_EQ(run(",\"parallelism\":1"), plain);
}

TEST_F(ServiceTest, TypeVerbPinsGfpCountersOnDbg) {
  // The type verb's gfp counters are on the wire and depend on the GFP
  // engine's sweep order: the prefilter, then the initial check of every
  // candidate pair in (type, object) order, then the FIFO worklist.
  // Pinned for the workspace's own 6-type schema and for DBG's 92-type
  // perfect typing, sent inline.
  Server server;
  catalog::Workspace ws = MakeDbgWorkspace();
  ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult perfect,
                       typing::PerfectTypingViaHashRefinement(ws.View()));
  const std::string perfect_text =
      typing::WriteTypingProgram(perfect.program, ws.View().labels());
  ASSERT_OK(server.InstallWorkspace("dbg", std::move(ws)));

  struct Case {
    std::string program;
    double initial_candidates, rechecks, removed;
  };
  for (const Case& c : {Case{"", 72, 88, 52},
                        Case{perfect_text, 851, 1027, 725}}) {
    SCOPED_TRACE(c.program.empty() ? "schema" : "perfect typing");
    Request req = MakeRequest(Verb::kType);
    req.type.workspace = "dbg";
    req.type.program = c.program;
    Response resp = server.Handle(req);
    ASSERT_OK(resp.status);
    const Value& gfp = Field(resp.result, "gfp");
    EXPECT_EQ(Field(gfp, "initial_candidates").AsNumber(),
              c.initial_candidates);
    EXPECT_EQ(Field(gfp, "rechecks").AsNumber(), c.rechecks);
    EXPECT_EQ(Field(gfp, "removed").AsNumber(), c.removed);
  }
}

TEST_F(ServiceTest, ApplyDeltaTypesComplexArrivals) {
  // apply_delta types every new complex object online (§6) against the
  // workspace schema; atomic arrivals stay untyped.
  Server server;
  catalog::Workspace ws = MakeDbgWorkspace();
  const uint64_t n = ws.graph->NumObjects();
  const size_t typed_before = ws.assignment.NumTypedObjects();
  ASSERT_OK(server.InstallWorkspace("dbg", std::move(ws)));

  Request req = MakeRequest(Verb::kApplyDelta);
  req.apply_delta.workspace = "dbg";
  DeltaOp lonely;
  lonely.op = "add_object";
  DeltaOp atom;
  atom.op = "add_object";
  atom.kind = "atomic";
  atom.value = "v";
  DeltaOp named = lonely;
  DeltaOp link;
  link.op = "add_link";
  link.from = n + 2;
  link.to = n + 1;
  link.label = "name";
  req.apply_delta.ops = {lonely, atom, named, link};
  Response resp = server.Handle(req);
  ASSERT_OK(resp.status);
  const Value& misfit = Field(resp.result, "misfit");
  EXPECT_EQ(Field(misfit, "arrivals").AsNumber(), 2);
  EXPECT_EQ(Field(misfit, "exact").AsNumber() +
                Field(misfit, "fallback").AsNumber(),
            2);

  Response list = server.Handle(MakeRequest(Verb::kListWorkspaces));
  ASSERT_OK(list.status);
  const Value& summary = Field(list.result, "workspaces").AsArray().at(0);
  EXPECT_EQ(Field(summary, "typed_objects").AsNumber(),
            static_cast<double>(typed_before + 2));
}

TEST_F(ServiceTest, ApplyDeltaRejectsIdsPastTheObjectCount) {
  // 2^32 and 2^32 + 1 must not wrap around to objects 0 and 1: the batch
  // fails with the op index named and the workspace stays as it was.
  Server server;
  ASSERT_OK(server.InstallWorkspace("dbg", MakeDbgWorkspace()));
  const std::string before = server.HandleJsonLine(
      R"({"id":1,"verb":"list_workspaces"})");

  for (const char* line : {
           R"({"id":2,"verb":"apply_delta","params":{"workspace":"dbg",)"
           R"("ops":[{"op":"add_link","from":4294967296,"to":4294967297,)"
           R"("label":"zz"}]}})",
           // The id one past the count, after an add_object grew it.
           R"({"id":3,"verb":"apply_delta","params":{"workspace":"dbg",)"
           R"("ops":[{"op":"add_object"},{"op":"del_link","from":0,)"
           R"("to":100000,"label":"name"}]}})",
       }) {
    auto req = ParseRequestJson(line);
    ASSERT_OK(req.status());
    Response resp = server.Handle(*req);
    EXPECT_EQ(resp.status.code(), util::StatusCode::kInvalidArgument)
        << resp.status;
    EXPECT_NE(resp.status.message().find(req->id == 2 ? "ops[0]" : "ops[1]"),
              std::string::npos)
        << resp.status;
  }
  EXPECT_EQ(server.HandleJsonLine(R"({"id":1,"verb":"list_workspaces"})"),
            before);

  Request query = MakeRequest(Verb::kQuery);
  query.query.workspace = "dbg";
  query.query.query = "zz";
  query.query.use_guide = false;
  Response resp = server.Handle(query);
  ASSERT_OK(resp.status);
  EXPECT_EQ(Field(resp.result, "count").AsNumber(), 0);
}

TEST_F(ServiceTest, IntegerFieldsPastTwoToThe53AreRejected) {
  // A double past 2^53 no longer holds the integer the client wrote;
  // before this check "k": 1e30 silently became k = 0 (the auto-k sweep).
  for (const char* line : {
           R"({"id":1,"verb":"extract","params":{"workspace":"w","k":1e30}})",
           R"({"id":1e300,"verb":"stats"})",
           R"({"id":-9007199254740994,"verb":"stats"})",
           R"({"id":1,"verb":"query","params":{"workspace":"w","query":"a",)"
           R"("limit":18446744073709551616}})",
           R"({"id":1,"verb":"apply_delta","params":{"workspace":"w",)"
           R"("ops":[{"op":"add_link","from":1e20,"to":0,"label":"a"}]}})",
       }) {
    auto req = ParseRequestJson(line);
    ASSERT_FALSE(req.ok()) << line;
    EXPECT_EQ(req.status().code(), util::StatusCode::kInvalidArgument)
        << req.status();
  }
  // 2^53 itself is exact and still accepted.
  ASSERT_OK_AND_ASSIGN(
      Request req,
      ParseRequestJson(R"({"id":9007199254740992,"verb":"extract",)"
                       R"("params":{"workspace":"w","k":9007199254740992}})"));
  EXPECT_EQ(req.id, int64_t{1} << 53);
  EXPECT_EQ(req.extract.k, uint64_t{1} << 53);
}

TEST_F(ServiceTest, BudgetTooLongForTheClockMeansNoDeadline) {
  // 1e10 s of nanoseconds overflows the steady clock; such a budget means
  // no deadline rather than one already past.
  Server server;
  ASSERT_OK(server.InstallWorkspace("dbg", MakeDbgWorkspace()));
  for (double budget : {1e10, 1e300}) {
    SCOPED_TRACE(budget);
    Request stats = MakeRequest(Verb::kStats);
    stats.timeout_s = budget;
    EXPECT_OK(server.Handle(stats).status);

    // Execute alone (no Handle-side wait) must not see a past deadline.
    Request extract = MakeRequest(Verb::kExtract);
    extract.extract.workspace = "dbg";
    extract.extract.k = 6;
    extract.timeout_s = budget;
    std::promise<Response> done;
    server.HandleAsync(extract,
                       [&](Response r) { done.set_value(std::move(r)); });
    EXPECT_OK(done.get_future().get().status);
  }
}

TEST_F(ServiceTest, TypeVerbWithInlineProgram) {
  Server server;
  catalog::Workspace ws;
  ws.SetGraph(test::MakeFigure2Database());
  ws.assignment = typing::TypeAssignment(ws.graph->NumObjects());
  ASSERT_OK(server.InstallWorkspace("fig2", std::move(ws)));

  Request req = MakeRequest(Verb::kType);
  req.type.workspace = "fig2";
  req.type.program = R"(
    person(X) :- link(X, Y, "is-manager-of"), firm(Y),
                 link(X, Z, "name"), atomic(Z).
    firm(X)   :- link(X, Y, "is-managed-by"), person(Y),
                 link(X, Z, "name"), atomic(Z).
  )";
  req.type.commit = true;
  Response resp = server.Handle(req);
  ASSERT_OK(resp.status);
  EXPECT_EQ(Field(resp.result, "num_types").AsNumber(), 2);
  EXPECT_EQ(Field(resp.result, "nonempty_extents").AsNumber(), 2);
  // Both extents have the two managers / two firms.
  for (const Value& t : Field(resp.result, "types").AsArray()) {
    EXPECT_EQ(Field(t, "extent").AsNumber(), 2);
  }

  // Committed: guided queries now work against the installed schema.
  Request q = MakeRequest(Verb::kQuery);
  q.query.workspace = "fig2";
  q.query.query = "is-manager-of.name";
  Response qresp = server.Handle(q);
  ASSERT_OK(qresp.status);
  EXPECT_TRUE(Field(qresp.result, "guided").AsBool());
  EXPECT_EQ(Field(qresp.result, "count").AsNumber(), 2);
}

TEST_F(ServiceTest, TypeVerbNumbersInlineTypesInRuleOrder) {
  // `firm` is mentioned before its rule and `thing` has no rule at all:
  // types are numbered by rule head, body-only predicates last, both in
  // the reply and in the committed schema.
  Server server;
  catalog::Workspace ws;
  ws.SetGraph(test::MakeFigure2Database());
  ws.assignment = typing::TypeAssignment(ws.graph->NumObjects());
  ASSERT_OK(server.InstallWorkspace("fig2", std::move(ws)));

  Request req = MakeRequest(Verb::kType);
  req.type.workspace = "fig2";
  req.type.program = R"(
    person(X) :- link(X, Y, "is-manager-of"), firm(Y),
                 link(X, Z, "name"), atomic(Z).
    named(X)  :- link(X, Z, "name"), atomic(Z).
    firm(X)   :- link(X, Y, "is-managed-by"), thing(Y),
                 link(X, Z, "name"), atomic(Z).
  )";
  req.type.commit = true;
  const std::vector<std::pair<std::string, double>> want = {
      {"person", 2}, {"named", 4}, {"firm", 2}, {"thing", 4}};
  auto types_of = [](const Response& resp) {
    std::vector<std::pair<std::string, double>> out;
    for (const Value& t : Field(resp.result, "types").AsArray()) {
      out.emplace_back(Field(t, "name").AsString(),
                       Field(t, "extent").AsNumber());
    }
    return out;
  };
  Response resp = server.Handle(req);
  ASSERT_OK(resp.status);
  EXPECT_EQ(types_of(resp), want);

  // `type` without a program reads the committed schema back.
  Request again = MakeRequest(Verb::kType);
  again.type.workspace = "fig2";
  resp = server.Handle(again);
  ASSERT_OK(resp.status);
  EXPECT_EQ(types_of(resp), want);
}

TEST_F(ServiceTest, TypeVerbWithoutSchemaFails) {
  Server server;
  catalog::Workspace ws;
  ws.SetGraph(test::MakeFigure2Database());
  ws.assignment = typing::TypeAssignment(ws.graph->NumObjects());
  ASSERT_OK(server.InstallWorkspace("fig2", std::move(ws)));
  Request req = MakeRequest(Verb::kType);
  req.type.workspace = "fig2";
  Response resp = server.Handle(req);
  EXPECT_EQ(resp.status.code(), util::StatusCode::kFailedPrecondition);
}

TEST_F(ServiceTest, QueryVerbGuidedAndUnguided) {
  Server server;
  ASSERT_OK(server.InstallWorkspace("dbg", MakeDbgWorkspace()));

  Request req = MakeRequest(Verb::kQuery);
  req.query.workspace = "dbg";
  req.query.query = "project.name";
  req.query.limit = 5;
  Response guided = server.Handle(req);
  ASSERT_OK(guided.status);
  EXPECT_TRUE(Field(guided.result, "guided").AsBool());

  req.query.use_guide = false;
  Response unguided = server.Handle(req);
  ASSERT_OK(unguided.status);
  EXPECT_FALSE(Field(unguided.result, "guided").AsBool());

  // The guide prunes start candidates; with the exact perfect typing it
  // would be lossless, with k=6 it may under-report but never over-report.
  EXPECT_LE(Field(guided.result, "count").AsNumber(),
            Field(unguided.result, "count").AsNumber());
  EXPECT_LE(Field(guided.result, "objects").AsArray().size(), 5u);

  // Malformed query text is a clean error.
  req.query.query = "..";
  Response bad = server.Handle(req);
  EXPECT_FALSE(bad.status.ok());
}

TEST_F(ServiceTest, StatsAndListWorkspacesVerbs) {
  Server server;
  ASSERT_OK(server.InstallWorkspace("a", MakeDbgWorkspace()));

  // Generate some traffic with known counts.
  Request q = MakeRequest(Verb::kQuery);
  q.query.workspace = "a";
  q.query.query = "project";
  for (int i = 0; i < 5; ++i) ASSERT_OK(server.Handle(q).status);
  q.query.workspace = "missing";
  EXPECT_FALSE(server.Handle(q).status.ok());

  Response list = server.Handle(MakeRequest(Verb::kListWorkspaces));
  ASSERT_OK(list.status);
  ASSERT_EQ(Field(list.result, "workspaces").AsArray().size(), 1u);
  EXPECT_EQ(
      Field(Field(list.result, "workspaces").AsArray()[0], "name").AsString(),
      "a");

  Response stats = server.Handle(MakeRequest(Verb::kStats));
  ASSERT_OK(stats.status);
  bool saw_query = false;
  for (const Value& v : Field(stats.result, "verbs").AsArray()) {
    if (Field(v, "verb").AsString() == "query") {
      saw_query = true;
      EXPECT_EQ(Field(v, "count").AsNumber(), 6);   // 5 ok + 1 error
      EXPECT_EQ(Field(v, "errors").AsNumber(), 1);
      EXPECT_EQ(Field(v, "timeouts").AsNumber(), 0);
    }
  }
  EXPECT_TRUE(saw_query);
}

TEST_F(ServiceTest, MalformedJsonReturnsStructuredError) {
  Server server;
  for (const char* line :
       {"{nope", "[]", "42", "{\"verb\":\"frobnicate\"}", "{\"id\":3}",
        "{\"verb\":\"query\",\"params\":{\"workspace\":\"w\"}}",
        "{\"verb\":\"query\",\"params\":7}",
        "{\"verb\":\"extract\",\"params\":{\"workspace\":\"w\",\"k\":-1}}"}) {
    std::string out = server.HandleJsonLine(line);
    // Each malformed request yields a parseable error envelope.
    ASSERT_OK_AND_ASSIGN(Value v, json::Parse(out));
    EXPECT_FALSE(Field(v, "ok").AsBool()) << line;
    EXPECT_FALSE(Field(Field(v, "error"), "code").AsString().empty()) << line;
  }
  // A well-formed line still round-trips after all that garbage.
  std::string out = server.HandleJsonLine("{\"id\":9,\"verb\":\"stats\"}");
  ASSERT_OK_AND_ASSIGN(Value v, json::Parse(out));
  EXPECT_TRUE(Field(v, "ok").AsBool());
  EXPECT_EQ(Field(v, "id").AsNumber(), 9);
}

TEST_F(ServiceTest, QueueTimeoutPath) {
  // One worker; the head request monopolizes it long enough that a
  // queued request with a tiny budget expires before it is picked up.
  ServerOptions opt;
  opt.num_threads = 1;
  Server server(opt);

  gen::RandomGraphOptions gopt;
  gopt.num_complex = 1500;
  gopt.num_atomic = 1500;
  gopt.num_edges = 6000;
  catalog::Workspace ws;
  ws.SetGraph(gen::RandomGraph(gopt));
  ws.assignment = typing::TypeAssignment(ws.graph->NumObjects());
  ASSERT_OK(server.InstallWorkspace("rand", std::move(ws)));

  Request slow = MakeRequest(Verb::kExtract, 1);
  slow.extract.workspace = "rand";
  slow.extract.k = 5;

  std::atomic<bool> slow_done{false};
  std::thread slow_client([&] {
    Response r = server.Handle(slow);
    slow_done = true;
    EXPECT_TRUE(r.status.ok() ||
                r.status.code() == util::StatusCode::kDeadlineExceeded)
        << r.status;
  });

  // Give the worker a moment to pick up the slow request.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  Request fast = MakeRequest(Verb::kStats, 2);
  fast.timeout_s = 0.001;
  Response r = server.Handle(fast);
  EXPECT_EQ(r.status.code(), util::StatusCode::kDeadlineExceeded) << r.status;
  EXPECT_FALSE(slow_done.load());  // the worker really was busy

  slow_client.join();

  // The timeout shows up in the metrics.
  bool saw = false;
  for (const VerbStats& s : server.metrics().Snapshot()) {
    if (s.verb == "stats") {
      saw = true;
      EXPECT_GE(s.timeouts, 1u);
    }
  }
  EXPECT_TRUE(saw);
}

TEST_F(ServiceTest, ExtractDeadlineCutsPipelineMidFlight) {
  // A budget far smaller than the extraction cost: the worker picks the
  // request up immediately (free threads, so the queue check passes) and
  // the pipeline's own stage-boundary polling has to abort it.
  Server server;
  gen::RandomGraphOptions gopt;
  gopt.num_complex = 2000;
  gopt.num_atomic = 2000;
  gopt.num_edges = 9000;
  catalog::Workspace ws;
  ws.SetGraph(gen::RandomGraph(gopt));
  ws.assignment = typing::TypeAssignment(ws.graph->NumObjects());
  ASSERT_OK(server.InstallWorkspace("rand", std::move(ws)));

  Request req = MakeRequest(Verb::kExtract);
  req.extract.workspace = "rand";
  req.extract.k = 5;
  req.timeout_s = 0.005;

  // HandleAsync delivers the worker's own response (the synchronous
  // Handle would race it with its wait-timeout), so the status observed
  // here is exactly what the pipeline returned.
  std::promise<Response> delivered;
  server.HandleAsync(req, [&](Response r) { delivered.set_value(std::move(r)); });
  Response resp = delivered.get_future().get();
  EXPECT_EQ(resp.status.code(), util::StatusCode::kDeadlineExceeded)
      << resp.status;

  // The abort is recorded as a timeout, and the workspace kept its old
  // (schema-less) generation.
  bool saw = false;
  for (const VerbStats& s : server.metrics().Snapshot()) {
    if (s.verb == "extract") {
      saw = true;
      EXPECT_GE(s.timeouts, 1u);
    }
  }
  EXPECT_TRUE(saw);
  Response list = server.Handle(MakeRequest(Verb::kListWorkspaces));
  ASSERT_OK(list.status);
  EXPECT_EQ(Field(Field(list.result, "workspaces").AsArray()[0], "num_types")
                .AsNumber(),
            0);
}

TEST_F(ServiceTest, QueryDeadlineStopsTheStepLoop) {
  // One worker. A query of 100k `%` steps would hold it for seconds
  // (each step is a closure over the whole tenant). Its budget has to
  // stop the step loop itself, so the next query is answered at once
  // rather than queueing behind a result nobody waits for.
  ServerOptions opt;
  opt.num_threads = 1;
  Server server(opt);
  gen::DatasetSpec spec = gen::DbgSpec();
  for (auto& t : spec.types) t.count *= 20;
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, gen::Generate(spec, 77));
  extract::ExtractorOptions eopt;
  eopt.target_num_types = 6;
  ASSERT_OK_AND_ASSIGN(extract::ExtractionResult r,
                       extract::SchemaExtractor(eopt).Run(g));
  catalog::Workspace ws;
  ws.SetGraph(g);
  ws.program = r.final_program;
  ws.assignment = r.recast.assignment;
  ASSERT_OK(server.InstallWorkspace("big", std::move(ws)));

  std::string many = "%";
  for (int i = 1; i < 100000; ++i) many += ".%";
  auto answers_promptly = [&](int64_t id) {
    Request normal = MakeRequest(Verb::kQuery, id);
    normal.query.workspace = "big";
    normal.query.query = "project.name";
    normal.timeout_s = 5;
    const auto t0 = std::chrono::steady_clock::now();
    Response resp = server.Handle(normal);
    EXPECT_TRUE(resp.status.ok()) << resp.status;
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
  };

  // Guided, through HandleAsync: the status is the worker's own, so it
  // is the step loop that gave up, not Handle's wait.
  Request guided = MakeRequest(Verb::kQuery, 1);
  guided.query.workspace = "big";
  guided.query.query = many;
  guided.timeout_s = 0.05;
  std::promise<Response> delivered;
  server.HandleAsync(guided,
                     [&](Response resp) { delivered.set_value(std::move(resp)); });
  Response resp = delivered.get_future().get();
  EXPECT_EQ(resp.status.code(), util::StatusCode::kDeadlineExceeded)
      << resp.status;
  answers_promptly(2);

  // Unguided, through the synchronous Handle a client would use.
  Request unguided = guided;
  unguided.id = 3;
  unguided.query.use_guide = false;
  Response late = server.Handle(unguided);
  EXPECT_EQ(late.status.code(), util::StatusCode::kDeadlineExceeded)
      << late.status;
  answers_promptly(4);
}

TEST_F(ServiceTest, GenerationsShareOneFrozenGraph) {
  // Workspace generations produced by extract/type-commit must hold the
  // SAME FrozenGraph instance — observable as a stable graph_id — while
  // concurrent queries keep racing the swaps.
  Server server;
  ASSERT_OK(server.InstallWorkspace("dbg", MakeDbgWorkspace()));

  auto graph_id = [&]() -> double {
    Response list = server.Handle(MakeRequest(Verb::kListWorkspaces));
    EXPECT_TRUE(list.status.ok()) << list.status;
    return Field(Field(list.result, "workspaces").AsArray()[0], "graph_id")
        .AsNumber();
  };
  const double original_id = graph_id();
  EXPECT_GT(original_id, 0);

  std::atomic<bool> stop{false};
  std::atomic<int> query_fail{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; !stop.load(); ++i) {
        Request req = MakeRequest(Verb::kQuery, t * 1000 + i);
        req.query.workspace = "dbg";
        req.query.query = "project.name";
        if (!server.Handle(req).status.ok()) ++query_fail;
      }
    });
  }
  for (int i = 0; i < 6; ++i) {
    Request req = MakeRequest(Verb::kExtract, 9000 + i);
    req.extract.workspace = "dbg";
    req.extract.k = (i % 2 == 0) ? 6 : 9;
    ASSERT_OK(server.Handle(req).status);
    // Every re-extract swapped the generation but kept the graph.
    EXPECT_EQ(graph_id(), original_id) << "generation " << i;
  }
  stop = true;
  for (auto& t : clients) t.join();
  EXPECT_EQ(query_fail.load(), 0);

  // stats agrees: one distinct graph, with a real footprint, even though
  // seven generations (1 install + 6 extracts) came and went.
  Response stats = server.Handle(MakeRequest(Verb::kStats));
  ASSERT_OK(stats.status);
  EXPECT_EQ(Field(stats.result, "distinct_graphs").AsNumber(), 1);
  EXPECT_GT(Field(stats.result, "graph_bytes").AsNumber(), 0);

  // A fresh install is a genuinely new snapshot: the id changes.
  ASSERT_OK(server.InstallWorkspace("dbg", MakeDbgWorkspace()));
  EXPECT_NE(graph_id(), original_id);
}

TEST_F(ServiceTest, ConcurrentQueriesVsReExtract) {
  // The acceptance scenario: >= 4 client threads of queries interleaved
  // with re-extracts against the same workspace. Every request must see
  // a consistent snapshot (no torn workspace, no crash), and the per-verb
  // counters must add up exactly.
  Server server;
  ASSERT_OK(server.InstallWorkspace("dbg", MakeDbgWorkspace()));

  constexpr int kQueryThreads = 4;
  constexpr int kQueriesPerThread = 50;
  constexpr int kExtracts = 4;

  std::atomic<int> query_fail{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kQueryThreads; ++t) {
    clients.emplace_back([&, t] {
      const char* queries[] = {"project.name", "author.name", "*.email",
                               "member"};
      for (int i = 0; i < kQueriesPerThread; ++i) {
        Request req = MakeRequest(Verb::kQuery, t * 1000 + i);
        req.query.workspace = "dbg";
        req.query.query = queries[(t + i) % 4];
        req.query.limit = 3;
        Response resp = server.Handle(req);
        if (!resp.status.ok()) ++query_fail;
      }
    });
  }
  clients.emplace_back([&] {
    for (int i = 0; i < kExtracts; ++i) {
      Request req = MakeRequest(Verb::kExtract, 9000 + i);
      req.extract.workspace = "dbg";
      req.extract.k = (i % 2 == 0) ? 6 : 9;  // alternate schema sizes
      Response resp = server.Handle(req);
      EXPECT_TRUE(resp.status.ok()) << resp.status;
    }
  });
  for (auto& t : clients) t.join();

  EXPECT_EQ(query_fail.load(), 0);

  // Counters are exact: no request lost, none double-counted.
  uint64_t query_count = 0, extract_count = 0, errors = 0;
  for (const VerbStats& s : server.metrics().Snapshot()) {
    if (s.verb == "query") {
      query_count = s.count;
      errors += s.errors;
    }
    if (s.verb == "extract") {
      extract_count = s.count;
      errors += s.errors;
    }
  }
  EXPECT_EQ(query_count,
            static_cast<uint64_t>(kQueryThreads * kQueriesPerThread));
  EXPECT_EQ(extract_count, static_cast<uint64_t>(kExtracts));
  EXPECT_EQ(errors, 0u);

  // The last installed schema has 6 or 9 types and still validates.
  Response list = server.Handle(MakeRequest(Verb::kListWorkspaces));
  ASSERT_OK(list.status);
  double ntypes = Field(Field(list.result, "workspaces").AsArray()[0],
                        "num_types")
                      .AsNumber();
  EXPECT_TRUE(ntypes == 6 || ntypes == 9) << ntypes;
}

TEST_F(ServiceTest, RequestJsonRoundTrip) {
  // ParseRequestJson accepts what docs/service.md promises.
  ASSERT_OK_AND_ASSIGN(
      Request req,
      ParseRequestJson(R"({"id": 7, "verb": "extract", "timeout_s": 2.5,
        "params": {"workspace": "dbg", "k": 6, "decompose_roles": true,
                   "stage1": "gfp", "epsilon": 1.5}})"));
  EXPECT_EQ(req.id, 7);
  EXPECT_EQ(req.verb, Verb::kExtract);
  EXPECT_DOUBLE_EQ(req.timeout_s, 2.5);
  EXPECT_EQ(req.extract.workspace, "dbg");
  EXPECT_EQ(req.extract.k, 6u);
  EXPECT_TRUE(req.extract.decompose_roles);
  EXPECT_EQ(req.extract.stage1, "gfp");
  EXPECT_DOUBLE_EQ(req.extract.epsilon, 1.5);

  Response resp;
  resp.id = 7;
  resp.status = util::Status::NotFound("nope");
  std::string line = SerializeResponse(resp);
  ASSERT_OK_AND_ASSIGN(Value v, json::Parse(line));
  EXPECT_EQ(Field(v, "id").AsNumber(), 7);
  EXPECT_FALSE(Field(v, "ok").AsBool());
  EXPECT_EQ(Field(Field(v, "error"), "code").AsString(), "NotFound");
}

}  // namespace
}  // namespace schemex::service
