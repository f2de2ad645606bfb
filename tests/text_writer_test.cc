// The single-pass text writers against their straightforward oracles
// (tests/text_writer_oracle.h): graph::WriteGraph must produce the
// oracle's graph.sxg bytes and catalog::AssignmentToTsv its
// assignment.tsv bytes, byte for byte, on every input below.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "catalog/workspace.h"
#include "extract/extractor.h"
#include "gen/dbg.h"
#include "gen/random_graph.h"
#include "gen/table1.h"
#include "graph/data_graph.h"
#include "graph/frozen_graph.h"
#include "graph/graph_io.h"
#include "tests/test_util.h"
#include "tests/text_writer_oracle.h"

namespace schemex {
namespace {

/// Compares WriteGraph with the oracle on both representations of `g`:
/// the mutable graph and its frozen snapshot.
void ExpectGraphMatchesOracle(const graph::DataGraph& g) {
  const std::string want = test::OracleWriteGraph(g);
  EXPECT_EQ(graph::WriteGraph(g), want);
  EXPECT_EQ(graph::WriteGraph(*graph::Freeze(g)), want);
}

graph::DataGraph ScaledDbg(size_t scale, uint64_t seed) {
  gen::DatasetSpec spec = gen::DbgSpec();
  for (gen::TypeSpec& t : spec.types) t.count *= scale;
  auto g = gen::Generate(spec, seed);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return g.ok() ? *std::move(g) : graph::DataGraph();
}

TEST(TextWriterOracle, PaperFixtures) {
  ExpectGraphMatchesOracle(test::MakeFigure2Database());
  ExpectGraphMatchesOracle(test::MakeFigure4Database());
}

TEST(TextWriterOracle, DbgAndTable1Databases) {
  ExpectGraphMatchesOracle(ScaledDbg(1, 4242));
  ExpectGraphMatchesOracle(ScaledDbg(2, 4242));
  ASSERT_OK_AND_ASSIGN(graph::DataGraph db1,
                       gen::MakeTable1Database(gen::Table1Datasets().front()));
  ExpectGraphMatchesOracle(db1);
}

TEST(TextWriterOracle, RandomGraphs) {
  // The RandomGraphProperty parameters and seeds.
  for (uint64_t seed : {101, 202, 303, 404, 505, 606}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    gen::RandomGraphOptions opt;
    opt.num_complex = 60;
    opt.num_atomic = 40;
    opt.num_edges = 150;
    opt.num_labels = 5;
    opt.atomic_target_fraction = 0.4;
    opt.seed = seed;
    ExpectGraphMatchesOracle(gen::RandomGraph(opt));
  }
}

TEST(TextWriterOracle, EscapedValuesAndUnnamedObjects) {
  graph::DataGraph g;
  graph::ObjectId root = g.AddComplex();  // unnamed: written as _o0
  graph::ObjectId named = g.AddComplex("named");
  const std::vector<std::string> values = {
      "", "plain", "say \"hi\"", "back\\slash", "two\nlines",
      "\"\\\n", "\n\n", "trailing\\", "tab\tinside", "\"", "mixed \"a\\b\"\n"};
  for (const std::string& v : values) {
    graph::ObjectId a = g.AddAtomic(v);  // unnamed atomic
    ASSERT_OK(g.AddEdge(root, a, "value"));
    ASSERT_OK(g.AddEdge(named, a, "copy"));
  }
  graph::ObjectId quoted = g.AddAtomic("x\"y", "q");
  ASSERT_OK(g.AddEdge(named, quoted, "value"));
  ASSERT_OK(g.AddEdge(named, root, "parent"));
  ASSERT_OK(g.AddEdge(root, named, "child"));
  // Ids past one digit, so "_o<id>" covers multi-digit suffixes.
  for (int i = 0; i < 12; ++i) {
    ASSERT_OK(g.AddEdge(root, g.AddComplex(), "many"));
  }
  ExpectGraphMatchesOracle(g);
  const std::string text = graph::WriteGraph(g);
  EXPECT_NE(text.find("complex _o0\n"), std::string::npos) << text;
  EXPECT_NE(text.find("\"say \\\"hi\\\"\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"two\\nlines\""), std::string::npos) << text;
}

TEST(TextWriterOracle, LabelsInternedOutOfNameOrder) {
  // Label ids run opposite to name order (and mix case and prefixes), so
  // sorting a row by label id instead of by name gives different bytes.
  graph::DataGraph g;
  for (const char* l : {"zeta", "mid", "ab", "alpha", "a", "Beta", "_x"}) {
    g.InternLabel(l);
  }
  graph::ObjectId hub = g.AddComplex("hub");
  std::vector<graph::ObjectId> targets;
  for (int i = 0; i < 4; ++i) targets.push_back(g.AddAtomic("v", "t"));
  for (graph::LabelId l = 0; l < g.labels().size(); ++l) {
    // Targets in descending id order per label.
    for (size_t i = targets.size(); i-- > 0;) {
      ASSERT_OK(g.AddEdge(hub, targets[i], l));
    }
  }
  ExpectGraphMatchesOracle(g);
  const std::string text = graph::WriteGraph(g);
  EXPECT_LT(text.find("edge hub Beta "), text.find("edge hub _x "));
  EXPECT_LT(text.find("edge hub _x "), text.find("edge hub a "));
  EXPECT_LT(text.find("edge hub ab "), text.find("edge hub alpha "));
  EXPECT_LT(text.find("edge hub mid "), text.find("edge hub zeta "));
}

TEST(TextWriterOracle, DeltaOverlayView) {
  graph::DataGraph base_graph = ScaledDbg(1, 7);
  auto base = graph::Freeze(base_graph);
  graph::DataGraph overlay(base);
  graph::ObjectId added = overlay.AddComplex("added");
  graph::ObjectId unnamed = overlay.AddComplex();
  graph::ObjectId value = overlay.AddAtomic("new \"value\"\n");
  ASSERT_OK(overlay.AddEdge(added, value, "aaa_first"));  // new label
  ASSERT_OK(overlay.AddEdge(added, unnamed, "zzz_last"));
  ASSERT_OK(overlay.AddEdge(unnamed, value, "name"));
  ASSERT_OK(overlay.AddEdge(0, added, "aaa_first"));
  ASSERT_OK(overlay.AddEdge(unnamed, 0, "aaa_first"));
  // Drop a base link too, so a merged row differs from its base slice.
  graph::ObjectId from = 0;
  while (base->OutEdges(from).empty()) ++from;
  const graph::HalfEdge dropped = base->OutEdges(from).front();
  ASSERT_OK(overlay.RemoveEdge(from, dropped.other, dropped.label));

  const std::string want = test::OracleWriteGraph(overlay);
  EXPECT_EQ(graph::WriteGraph(overlay), want);
  // Folding must not change the text either.
  EXPECT_EQ(graph::WriteGraph(*graph::Freeze(overlay)), want);
}

TEST(TextWriterOracle, Assignments) {
  // Empty, all-untyped, multi-type and extreme-id rows.
  EXPECT_EQ(catalog::AssignmentToTsv(typing::TypeAssignment()), "");
  typing::TypeAssignment untyped(5);
  EXPECT_EQ(catalog::AssignmentToTsv(untyped), "");

  typing::TypeAssignment tau(20);
  tau.Assign(0, 0);
  tau.Assign(3, 7);
  tau.Assign(3, 2);
  tau.Assign(3, 11);
  tau.Assign(9, 123456);
  tau.Assign(19, std::numeric_limits<typing::TypeId>::max());
  tau.Assign(19, 0);
  EXPECT_EQ(catalog::AssignmentToTsv(tau), test::OracleAssignmentToTsv(tau));
  EXPECT_EQ(catalog::AssignmentToTsv(tau),
            "0\t0\n3\t2,7,11\n9\t123456\n19\t0,2147483647\n");

  // A Stage-3 assignment of a real extraction (DBG at k = 6).
  graph::DataGraph g = ScaledDbg(2, 4242);
  extract::ExtractorOptions opt;
  opt.target_num_types = 6;
  ASSERT_OK_AND_ASSIGN(extract::ExtractionResult r,
                       extract::SchemaExtractor(opt).Run(g));
  EXPECT_EQ(catalog::AssignmentToTsv(r.recast.assignment),
            test::OracleAssignmentToTsv(r.recast.assignment));
}

}  // namespace
}  // namespace schemex
