#include "query/query_index.h"

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "catalog/workspace.h"
#include "extract/extractor.h"
#include "gen/dbg.h"
#include "graph/delta_overlay.h"
#include "graph/frozen_graph.h"
#include "json/json.h"
#include "query/path_query.h"
#include "query/schema_guide.h"
#include "service/server.h"
#include "tests/query_oracle.h"
#include "tests/test_util.h"
#include "typing/defect.h"
#include "typing/perfect_typing.h"

namespace schemex::query {
namespace {

constexpr uint64_t kLabels = 5;
const char* const kValues[] = {"a", "b", "c"};

std::string RandomLabel(std::mt19937_64& rng) {
  return "L" + std::to_string(rng() % kLabels);
}

/// Random graph over a small label and value alphabet, so adjacency rows
/// hold runs of several edges and value filters match.
graph::DataGraph MakeRandomGraph(std::mt19937_64& rng, size_t num_complex,
                                 size_t num_atomic, size_t num_edges) {
  graph::DataGraph g;
  std::vector<graph::ObjectId> complex, atomic;
  for (size_t i = 0; i < num_complex; ++i) complex.push_back(g.AddComplex());
  for (size_t i = 0; i < num_atomic; ++i) {
    atomic.push_back(g.AddAtomic(kValues[rng() % 3]));
  }
  for (size_t i = 0; i < num_edges; ++i) {
    graph::ObjectId from = complex[rng() % complex.size()];
    graph::ObjectId to = rng() % 2 == 0 ? atomic[rng() % atomic.size()]
                                        : complex[rng() % complex.size()];
    (void)g.AddEdge(from, to, RandomLabel(rng));  // duplicates rejected
  }
  return g;
}

/// One to four steps of every kind: labels (and an absent one), `*`,
/// `%`, bare filters, and filters on absent attributes or values.
std::string RandomQuery(std::mt19937_64& rng) {
  std::string q;
  const uint64_t steps = 1 + rng() % 4;
  for (uint64_t i = 0; i < steps; ++i) {
    if (i > 0) q += '.';
    std::string step;
    const uint64_t kind = rng() % 12;
    if (kind < 6) {
      step = RandomLabel(rng);
    } else if (kind < 8) {
      step = "*";
    } else if (kind < 10) {
      step = "%";
    } else if (kind == 10) {
      step = "absent";
    }
    if (step.empty() || rng() % 3 == 0) {
      std::string attr = rng() % 5 == 0 ? "nope" : RandomLabel(rng);
      std::string value = rng() % 4 == 0 ? "zz" : kValues[rng() % 3];
      step += "[" + attr + "=\"" + value + "\"]";
    }
    q += step;
  }
  return q;
}

struct Typing {
  std::string name;
  typing::TypingProgram program;
  typing::TypeAssignment assignment;
};

/// The typings every graph is queried under: the perfect typing (homes,
/// zero excess), an approximate k = 3 extraction, the perfect typing with
/// extra roles, and the perfect typing with a third of its objects
/// untyped.
std::vector<Typing> MakeTypings(graph::GraphView g, std::mt19937_64& rng) {
  auto stage1 = typing::PerfectTypingViaHashRefinement(g);
  EXPECT_TRUE(stage1.ok()) << stage1.status();
  Typing perfect{"perfect", stage1->program,
                 typing::TypeAssignment(g.NumObjects())};
  for (size_t o = 0; o < stage1->home.size(); ++o) {
    if (stage1->home[o] != typing::kInvalidType) {
      perfect.assignment.Assign(static_cast<graph::ObjectId>(o),
                                stage1->home[o]);
    }
  }

  extract::ExtractorOptions opt;
  opt.target_num_types = 3;
  auto approx = extract::SchemaExtractor(opt).Run(g);
  EXPECT_TRUE(approx.ok()) << approx.status();
  Typing approximate{"approximate", approx->final_program,
                     approx->recast.assignment};

  Typing multi = perfect;
  multi.name = "multi-role";
  const size_t n = multi.program.NumTypes();
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    if (!multi.assignment.TypesOf(o).empty() && rng() % 5 == 0) {
      multi.assignment.Assign(o, static_cast<typing::TypeId>(rng() % n));
    }
  }

  Typing partial = perfect;
  partial.name = "partly untyped";
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    if (rng() % 3 == 0) {
      const std::vector<typing::TypeId> types = partial.assignment.TypesOf(o);
      for (typing::TypeId t : types) partial.assignment.Unassign(o, t);
    }
  }
  return {perfect, approximate, multi, partial};
}

/// The index, SchemaGuide::Evaluate and the unguided step loop against
/// the row-scan oracle, for every query. Returns how many queries had a
/// non-empty guided result, so callers can check the cases are not
/// vacuous.
size_t ExpectMatchesOracle(graph::GraphView g, const Typing& t,
                           const std::vector<std::string>& queries) {
  size_t nonempty = 0;
  SchemaGuide guide(t.program, t.assignment);
  QueryIndex index(t.program, t.assignment);
  for (size_t ty = 0; ty < t.program.NumTypes(); ++ty) {
    auto extent = index.Extent(static_cast<typing::TypeId>(ty));
    EXPECT_EQ(std::vector<graph::ObjectId>(extent.begin(), extent.end()),
              t.assignment.ObjectsOf(static_cast<typing::TypeId>(ty)))
        << t.name << " type " << ty;
  }
  for (const std::string& text : queries) {
    SCOPED_TRACE(t.name + ": " + text);
    auto q = ParsePathQuery(text);
    EXPECT_TRUE(q.ok()) << q.status();
    if (!q.ok()) continue;

    QueryStats want_stats, got_stats;
    std::vector<graph::ObjectId> want =
        test::OracleGuidedEvaluate(guide, g, *q, &want_stats);
    nonempty += want.empty() ? 0 : 1;
    auto got = index.Evaluate(g, *q, nullptr, &got_stats);
    EXPECT_TRUE(got.ok()) << got.status();
    if (got.ok()) {
      EXPECT_EQ(*got, want);
    }
    EXPECT_EQ(guide.Evaluate(g, *q), want);
    // Same frontiers, so the same objects; label runs scan no more edges
    // than whole rows.
    EXPECT_EQ(got_stats.objects_visited, want_stats.objects_visited);
    EXPECT_LE(got_stats.edges_scanned, want_stats.edges_scanned);

    QueryStats full_want_stats, full_got_stats;
    EXPECT_EQ(EvaluatePathQuery(g, *q, {}, &full_got_stats),
              test::OracleEvaluatePathQuery(g, *q, {}, &full_want_stats));
    EXPECT_EQ(full_got_stats.objects_visited,
              full_want_stats.objects_visited);
    EXPECT_LE(full_got_stats.edges_scanned, full_want_stats.edges_scanned);
  }
  return nonempty;
}

std::vector<std::string> RandomQueries(std::mt19937_64& rng, size_t n) {
  std::vector<std::string> out;
  for (size_t i = 0; i < n; ++i) out.push_back(RandomQuery(rng));
  return out;
}

TEST(QueryIndexTest, MatchesOracleOnRandomFrozenGraphs) {
  bool saw_excess = false;
  size_t nonempty = 0, total = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    std::mt19937_64 rng(seed);
    auto frozen = graph::Freeze(MakeRandomGraph(rng, 160, 120, 640));
    graph::GraphView g(*frozen);
    const std::vector<std::string> queries = RandomQueries(rng, 60);
    for (const Typing& t : MakeTypings(g, rng)) {
      if (t.name == "approximate") {
        saw_excess = saw_excess || typing::ComputeExcess(t.program, g,
                                                         t.assignment, false,
                                                         nullptr) > 0;
      }
      nonempty += ExpectMatchesOracle(g, t, queries);
      total += queries.size();
    }
  }
  EXPECT_TRUE(saw_excess) << "no approximate typing had excess";
  EXPECT_GT(nonempty, total / 3) << nonempty << " of " << total;
}

TEST(QueryIndexTest, MatchesOracleOnDeltaOverlay) {
  for (uint64_t seed = 11; seed <= 13; ++seed) {
    std::mt19937_64 rng(seed);
    auto base = graph::Freeze(MakeRandomGraph(rng, 140, 100, 560));
    graph::DeltaOverlay overlay(base);
    // Objects arrive, links come and go (some under a label the base
    // never had), so rows mix base slices and materialized merges.
    std::vector<graph::ObjectId> complex;
    for (graph::ObjectId o = 0; o < overlay.NumObjects(); ++o) {
      if (overlay.IsComplex(o)) complex.push_back(o);
    }
    for (int i = 0; i < 10; ++i) complex.push_back(overlay.AddComplex());
    for (int i = 0; i < 10; ++i) {
      graph::ObjectId a = overlay.AddAtomic(kValues[rng() % 3]);
      (void)overlay.AddEdge(complex[rng() % complex.size()], a,
                            RandomLabel(rng));
    }
    for (int i = 0; i < 60; ++i) {
      graph::ObjectId from = complex[rng() % complex.size()];
      graph::ObjectId to = complex[rng() % complex.size()];
      (void)overlay.AddEdge(from, to, i % 10 == 0 ? "L9" : RandomLabel(rng));
    }
    for (int i = 0; i < 60; ++i) {
      graph::ObjectId from = complex[rng() % complex.size()];
      auto row = overlay.OutEdges(from);
      if (row.empty()) continue;
      const graph::HalfEdge e = row[rng() % row.size()];
      ASSERT_OK(overlay.RemoveEdge(from, e.other, e.label));
    }
    ASSERT_OK(overlay.Validate());

    graph::GraphView g(overlay);
    std::vector<std::string> queries = RandomQueries(rng, 60);
    queries.push_back("L9");
    queries.push_back("%.L9[L0=\"a\"]");
    std::vector<Typing> typings = MakeTypings(g, rng);
    // The base's typing, grown to the overlay with the arrivals untyped:
    // what a workspace holds right after apply_delta.
    graph::GraphView base_view(*base);
    Typing stale = MakeTypings(base_view, rng).front();
    stale.name = "base typing";
    stale.assignment.Resize(overlay.NumObjects());
    typings.push_back(std::move(stale));
    size_t nonempty = 0;
    for (const Typing& t : typings) {
      nonempty += ExpectMatchesOracle(g, t, queries);
    }
    EXPECT_GT(nonempty, typings.size() * queries.size() / 3);
  }
}

TEST(QueryIndexTest, MatchesOracleOnDbg) {
  auto g = gen::MakeDbgDataset();
  ASSERT_TRUE(g.ok());
  std::mt19937_64 rng(5);
  const std::vector<std::string> queries = {
      "author.name", "*.name", "%.email", "project_member.advisor.name",
      "[name=\"x\"].%", "author[name=\"x\"].%", "*", "%", "nickname.*",
      "postscript"};
  for (const Typing& t : MakeTypings(*g, rng)) {
    ExpectMatchesOracle(*g, t, queries);
  }
}

TEST(QueryIndexTest, NoStartTypesMeansNoResults) {
  // `secret` is excess: no type mentions it, so no type can start
  // "secret.name". The guided result is empty, not the unguided
  // every-complex-object start.
  graph::DataGraph g;
  graph::ObjectId a = g.AddComplex("a");
  graph::ObjectId b = g.AddComplex("b");
  graph::ObjectId v = g.AddAtomic("x");
  (void)g.AddEdge(a, b, "secret");
  (void)g.AddEdge(b, v, "name");
  typing::TypingProgram program;
  typing::TypeId tb = program.AddType(
      "tb", typing::TypeSignature::FromLinks(
                {typing::TypedLink::OutAtomic(g.labels().Find("name"))}));
  typing::TypeId ta = program.AddType("ta", {});
  program.AddType("unused", typing::TypeSignature::FromLinks(
                                {typing::TypedLink::Out(
                                    g.labels().Find("secret"), tb)}));
  typing::TypeAssignment tau(g.NumObjects());
  tau.Assign(a, ta);
  tau.Assign(b, tb);

  QueryIndex index(program, tau);
  ASSERT_OK_AND_ASSIGN(PathQuery q, ParsePathQuery("secret.name"));
  EXPECT_EQ(EvaluatePathQuery(g, q).size(), 1u);
  // The only start type, `unused`, has an empty extent.
  QueryStats stats;
  ASSERT_OK_AND_ASSIGN(auto hits, index.Evaluate(g, q, nullptr, &stats));
  EXPECT_TRUE(hits.empty());
  EXPECT_EQ(stats.objects_visited, 0u);

  ASSERT_OK_AND_ASSIGN(PathQuery absent, ParsePathQuery("nope"));
  ASSERT_OK_AND_ASSIGN(auto none, index.Evaluate(g, absent));
  EXPECT_TRUE(none.empty());
}

TEST(QueryIndexTest, CancelHookAbortsBetweenStepsAndInsideClosures) {
  auto g = gen::MakeDbgDataset();
  ASSERT_TRUE(g.ok());
  std::mt19937_64 rng(3);
  Typing t = MakeTypings(*g, rng).front();
  QueryIndex index(t.program, t.assignment);
  ASSERT_OK_AND_ASSIGN(PathQuery q, ParsePathQuery("%.%.%.name"));
  int polls = 0;
  auto fail_on = [&polls](int n) {
    polls = 0;
    return [&polls, n]() -> util::Status {
      return ++polls < n ? util::Status::OK()
                         : util::Status::DeadlineExceeded("test budget");
    };
  };
  EXPECT_EQ(index.Evaluate(*g, q, fail_on(3)).status().code(),
            util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(EvaluateFrom(*g, q, AllComplexObjects(*g), fail_on(3), nullptr)
                .status()
                .code(),
            util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(polls, 3);  // before the third step

  // One `%` step over more than kQueryCancelPollInterval objects polls
  // inside its closure too: once before the step, once at pop 4096.
  auto frozen = graph::Freeze(MakeRandomGraph(rng, 6000, 100, 12000));
  ASSERT_OK_AND_ASSIGN(PathQuery closure, ParsePathQuery("%"));
  auto r = EvaluateFrom(*frozen, closure, AllComplexObjects(*frozen),
                        fail_on(2), nullptr);
  EXPECT_EQ(r.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(polls, 2);
}

int64_t IndexBuilds(const service::Server& server) {
  for (const auto& [name, value] : server.metrics().CounterSnapshot()) {
    if (name == "query.index_builds") return value;
  }
  return 0;
}

TEST(QueryIndexConcurrencyTest, FirstGuidedQueriesBuildOneIndex) {
  // 8 workers take the first guided queries of a fresh generation at
  // once: one of them builds the index, the others wait for it, and all
  // see the same result. Runs in the TSan lane.
  auto g = gen::MakeDbgDataset();
  ASSERT_TRUE(g.ok());
  extract::ExtractorOptions opt;
  opt.target_num_types = 6;
  ASSERT_OK_AND_ASSIGN(extract::ExtractionResult r,
                       extract::SchemaExtractor(opt).Run(*g));
  catalog::Workspace ws;
  ws.SetGraph(*g);
  ws.program = r.final_program;
  ws.assignment = r.recast.assignment;

  constexpr int kThreads = 8;
  service::ServerOptions sopt;
  sopt.num_threads = kThreads;
  service::Server server(sopt);
  ASSERT_OK(server.InstallWorkspace("dbg", ws));
  EXPECT_EQ(IndexBuilds(server), 0);  // installing does not build it

  auto query = [&](int64_t id, const std::string& text, bool guided) {
    service::Request req;
    req.id = id;
    req.verb = service::Verb::kQuery;
    req.query.workspace = "dbg";
    req.query.query = text;
    req.query.use_guide = guided;
    req.query.limit = 1000;
    return server.Handle(req);
  };

  std::atomic<int> ready{0};
  std::vector<std::string> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ++ready;
      while (ready.load() < kThreads) std::this_thread::yield();
      service::Response resp = query(t, "author.%", true);
      results[static_cast<size_t>(t)] =
          resp.status.ok() ? json::Serialize(resp.result)
                           : resp.status.ToString();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(IndexBuilds(server), 1);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(results[static_cast<size_t>(t)], results[0]) << "thread " << t;
  }

  // The count is the oracle's.
  SchemaGuide guide(ws.program, ws.assignment);
  ASSERT_OK_AND_ASSIGN(PathQuery q, ParsePathQuery("author.%"));
  const size_t want = test::OracleGuidedEvaluate(guide, *g, q).size();
  service::Response again = query(100, "author.%", true);
  ASSERT_OK(again.status);
  EXPECT_EQ(json::Serialize(again.result), results[0]);
  EXPECT_EQ(again.result.AsObject().at("count").AsNumber(),
            static_cast<double>(want));
  EXPECT_EQ(IndexBuilds(server), 1);

  // Unguided queries and a new generation's extract build nothing; the
  // new generation's first guided query builds its own index.
  ASSERT_OK(query(101, "author.%", false).status);
  service::Request ex;
  ex.id = 102;
  ex.verb = service::Verb::kExtract;
  ex.extract.workspace = "dbg";
  ex.extract.k = 9;
  ASSERT_OK(server.Handle(ex).status);
  EXPECT_EQ(IndexBuilds(server), 1);
  ASSERT_OK(query(103, "author.%", true).status);
  EXPECT_EQ(IndexBuilds(server), 2);
}

}  // namespace
}  // namespace schemex::query
