// Cross-module integration flows a downstream user would actually run.

#include <gtest/gtest.h>

#include "catalog/report.h"
#include "catalog/workspace.h"
#include "extract/extractor.h"
#include "extract/knee.h"
#include "gen/dbg.h"
#include "graph/data_graph.h"
#include "graph/frozen_graph.h"
#include "json/import.h"
#include "query/schema_guide.h"
#include "tests/test_util.h"
#include "typing/atomic_sorts.h"
#include "typing/explain.h"
#include "typing/incremental.h"
#include "typing/program_io.h"
#include "xml/import.h"

namespace schemex {
namespace {

TEST(IntegrationTest, XmlToSortedSchema) {
  // XML feed -> atomic sorts -> extraction: the schema shows value sorts.
  ASSERT_OK_AND_ASSIGN(graph::DataGraph raw, xml::ImportXml(R"(
<people>
  <person><name>ada</name><born>1815</born><site>https://a.io</site></person>
  <person><name>alan</name><born>1912</born></person>
  <person><name>grace</name><born>1906</born><site>https://g.io</site></person>
</people>)"));
  graph::DataGraph g = typing::RefineAtomicSorts(raw);
  extract::ExtractorOptions opt;
  opt.target_num_types = 2;
  ASSERT_OK_AND_ASSIGN(extract::ExtractionResult r,
                       extract::SchemaExtractor(opt).Run(g));
  std::string schema = r.final_program.ToString(g.labels());
  EXPECT_NE(schema.find("born@int"), std::string::npos);
  EXPECT_NE(schema.find("name@string"), std::string::npos);
}

TEST(IntegrationTest, RolesPlusClusteringPipeline) {
  // Multiple-roles decomposition feeding clustering: Figure 5 data mixed
  // with extra record types still clusters cleanly.
  graph::DataGraph g = test::MakeFigure5Database();
  // Add a handful of unrelated "team" records so clustering has work.
  for (int i = 0; i < 4; ++i) {
    graph::ObjectId t = g.AddComplex("team" + std::to_string(i));
    (void)g.AddEdge(t, g.AddAtomic("T"), "team_name");
    if (i % 2 == 0) (void)g.AddEdge(t, g.AddAtomic("E"), "league");
  }
  extract::ExtractorOptions opt;
  opt.decompose_roles = true;
  opt.target_num_types = 3;
  opt.stage1 = extract::ExtractorOptions::Stage1Algorithm::kGfp;
  ASSERT_OK_AND_ASSIGN(extract::ExtractionResult r,
                       extract::SchemaExtractor(opt).Run(g));
  EXPECT_TRUE(r.roles_applied);
  EXPECT_EQ(r.roles.num_eliminated, 1u);  // the soccer+movie composite
  EXPECT_EQ(r.num_final_types, 3u);
  // The dual-role object keeps both homes through clustering (they may
  // merge into one final type, but it is never left homeless).
  bool cantona_found = false;
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    if (g.Name(o) == "o2") {
      cantona_found = true;
      EXPECT_FALSE(r.final_homes[o].empty());
    }
  }
  EXPECT_TRUE(cantona_found);
}

TEST(IntegrationTest, SaveReloadThenTypeNewArrivals) {
  // Extract -> persist -> reload in a "new process" -> stream arrivals.
  auto g = gen::MakeDbgDataset(8);
  extract::ExtractorOptions opt;
  opt.target_num_types = 6;
  auto r = extract::SchemaExtractor(opt).Run(*g);
  ASSERT_TRUE(r.ok());

  std::string schema_text =
      typing::WriteTypingProgram(r->final_program, g->labels());

  // "New process": regenerate the data, reload the schema.
  auto g2 = gen::MakeDbgDataset(8);
  ASSERT_OK_AND_ASSIGN(typing::TypingProgram loaded,
                       typing::ReadTypingProgram(schema_text,
                                                 &g2->labels()));
  std::vector<std::vector<typing::TypeId>> no_homes(g2->NumObjects());
  ASSERT_OK_AND_ASSIGN(typing::RecastResult recast,
                       typing::Recast(loaded, *g2, no_homes));

  graph::DataGraph ov(graph::Freeze(*g2));
  graph::ObjectId degree = ov.AddComplex("new_degree");
  const std::pair<const char*, const char*> fields[] = {{"major", "CS"},
                                                        {"school", "Stanford"},
                                                        {"name", "PhD"},
                                                        {"year", "1998"}};
  for (const auto& [label, value] : fields) {
    ASSERT_OK(ov.AddEdge(degree, ov.AddAtomic(value), label));
  }
  typing::TypeAssignment tau = recast.assignment;
  ASSERT_OK_AND_ASSIGN(
      std::vector<typing::ArrivalTyping> typed,
      typing::TypeArrivals(loaded, ov, std::vector<graph::ObjectId>{degree},
                           &tau));
  ASSERT_EQ(typed.size(), 1u);
  EXPECT_FALSE(typed[0].exact_types.empty());
  EXPECT_FALSE(typing::RetypeRecommended(1, 0));
}

TEST(IntegrationTest, KneeDrivenExtractionThenQuery) {
  // Sweep -> knee -> extract at the knee -> schema-guided query.
  auto g = gen::MakeDbgDataset();
  extract::ExtractorOptions opt;
  ASSERT_OK_AND_ASSIGN(std::vector<extract::SensitivityPoint> pts,
                       extract::SensitivitySweep(*g, opt));
  extract::Knee knee = extract::FindKnee(pts);
  ASSERT_GT(knee.k, 1u);
  ASSERT_LE(knee.k, 20u);

  opt.target_num_types = knee.k;
  ASSERT_OK_AND_ASSIGN(extract::ExtractionResult r,
                       extract::SchemaExtractor(opt).Run(*g));
  query::SchemaGuide guide(r.final_program, r.recast.assignment);
  ASSERT_OK_AND_ASSIGN(query::PathQuery q,
                       query::ParsePathQuery("author.name"));
  auto hits = guide.Evaluate(*g, q);
  EXPECT_FALSE(hits.empty());
}

TEST(IntegrationTest, JsonReportEndToEnd) {
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, json::ImportJson(R"([
    {"sku": "a1", "price": "9.99"},
    {"sku": "a2", "price": "19.99", "sale": "true"},
    {"sku": "a3", "price": "5.00"}
  ])"));
  extract::ExtractorOptions opt;
  opt.target_num_types = 2;
  ASSERT_OK_AND_ASSIGN(extract::ExtractionResult r,
                       extract::SchemaExtractor(opt).Run(g));
  catalog::Workspace ws;
  ws.SetGraph(g);
  ws.program = r.final_program;
  ws.assignment = r.recast.assignment;
  ASSERT_OK(ws.Validate());
  std::string report = catalog::RenderReport(ws);
  EXPECT_NE(report.find("sku"), std::string::npos);
  EXPECT_NE(report.find("defect"), std::string::npos);
}

TEST(IntegrationTest, ExplainWhyAfterExtraction) {
  auto g = gen::MakeDbgDataset();
  extract::ExtractorOptions opt;
  opt.target_num_types = 6;
  ASSERT_OK_AND_ASSIGN(extract::ExtractionResult r,
                       extract::SchemaExtractor(opt).Run(*g));
  // Pick any exactly-typed object and explain one of its GFP memberships.
  bool explained = false;
  for (graph::ObjectId o = 0; o < g->NumObjects() && !explained; ++o) {
    for (size_t t = 0; t < r.final_program.NumTypes(); ++t) {
      if (!r.recast.gfp.Contains(static_cast<typing::TypeId>(t), o)) {
        continue;
      }
      ASSERT_OK_AND_ASSIGN(
          typing::MembershipExplanation why,
          typing::ExplainMembership(r.final_program, *g, r.recast.gfp, o,
                                    static_cast<typing::TypeId>(t)));
      EXPECT_EQ(why.witnesses.size(),
                r.final_program.type(static_cast<typing::TypeId>(t))
                    .signature.size());
      explained = true;
      break;
    }
  }
  EXPECT_TRUE(explained);
}

}  // namespace
}  // namespace schemex
