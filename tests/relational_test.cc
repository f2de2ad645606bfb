#include <gtest/gtest.h>

#include "graph/graph_view.h"
#include "relational/csv.h"
#include "relational/import.h"
#include "tests/test_util.h"
#include "typing/perfect_typing.h"

namespace schemex::relational {
namespace {

TEST(CsvTest, BasicParsing) {
  ASSERT_OK_AND_ASSIGN(Csv csv, ParseCsv("a,b,c\n1,2,3\n4,5,6\n"));
  EXPECT_EQ(csv.header, (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(csv.NumRows(), 2u);
  EXPECT_EQ(csv.rows[1][2], "6");
  EXPECT_EQ(csv.FindColumn("b"), 1u);
  EXPECT_EQ(csv.FindColumn("z"), Csv::npos);
}

TEST(CsvTest, QuotingRules) {
  ASSERT_OK_AND_ASSIGN(
      Csv csv, ParseCsv("name,notes\n\"Smith, John\",\"said \"\"hi\"\"\"\n"
                        "plain,\"multi\nline\"\n"));
  EXPECT_EQ(csv.rows[0][0], "Smith, John");
  EXPECT_EQ(csv.rows[0][1], "said \"hi\"");
  EXPECT_EQ(csv.rows[1][1], "multi\nline");
}

TEST(CsvTest, MissingTrailingNewlineAndCrLf) {
  ASSERT_OK_AND_ASSIGN(Csv csv, ParseCsv("a,b\r\n1,2\r\n3,4"));
  EXPECT_EQ(csv.NumRows(), 2u);
  EXPECT_EQ(csv.rows[1][1], "4");
}

TEST(CsvTest, EmptyCellsSurvive) {
  ASSERT_OK_AND_ASSIGN(Csv csv, ParseCsv("a,b\n,x\ny,\n"));
  EXPECT_EQ(csv.rows[0][0], "");
  EXPECT_EQ(csv.rows[1][1], "");
}

TEST(CsvTest, Malformed) {
  EXPECT_FALSE(ParseCsv("").ok());
  EXPECT_FALSE(ParseCsv("a,b\n1\n").ok());          // ragged row
  EXPECT_FALSE(ParseCsv("a,b\n1,2,3\n").ok());      // ragged row
  EXPECT_FALSE(ParseCsv("a\n\"open\n").ok());       // unterminated quote
  EXPECT_FALSE(ParseCsv("a\nx\"y\n").ok());         // stray quote
}

TEST(ImportTest, SingleTableBipartite) {
  ASSERT_OK_AND_ASSIGN(
      graph::DataGraph g,
      ImportTables({{"emp", "name,dept\nada,cs\ngrace,navy\n"}}));
  EXPECT_EQ(g.NumComplexObjects(), 2u);
  EXPECT_TRUE(graph::IsBipartite(g));
  EXPECT_EQ(g.NumEdges(), 4u);
  EXPECT_EQ(g.Name(0), "emp#0");
  ASSERT_OK(g.Validate());
}

TEST(ImportTest, NullCellsMakeIrregularRows) {
  ImportOptions opt;
  opt.null_literal = "";
  ASSERT_OK_AND_ASSIGN(
      graph::DataGraph g,
      ImportTables({{"t", "a,b\n1,2\n3,\n"}}, opt));
  EXPECT_EQ(g.NumEdges(), 3u);  // second row has no b edge
}

TEST(ImportTest, AtomSharingToggle) {
  ImportOptions shared;
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g1,
                       ImportTables({{"t", "a\nx\nx\nx\n"}}, shared));
  EXPECT_EQ(g1.NumAtomicObjects(), 1u);

  ImportOptions fresh;
  fresh.share_atoms = false;
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g2,
                       ImportTables({{"t", "a\nx\nx\nx\n"}}, fresh));
  EXPECT_EQ(g2.NumAtomicObjects(), 3u);
}

TEST(ImportTest, ForeignKeysBecomeReferenceEdges) {
  ImportOptions opt;
  opt.foreign_keys = {{"emp", "dept_id", "dept", "id"}};
  ASSERT_OK_AND_ASSIGN(
      graph::DataGraph g,
      ImportTables({{"emp", "name,dept_id\nada,d1\ngrace,d2\nzed,d9\n"},
                    {"dept", "id,title\nd1,CS\nd2,Navy\n"}},
                   opt));
  EXPECT_FALSE(graph::IsBipartite(g));
  graph::LabelId dept_id = g.labels().Find("dept_id");
  ASSERT_NE(dept_id, graph::kInvalidLabel);
  // ada -> dept#0, grace -> dept#1; zed's dangling d9 dropped.
  size_t ref_edges = 0;
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    for (const graph::HalfEdge& e : g.OutEdges(o)) {
      if (e.label == dept_id) {
        EXPECT_TRUE(g.IsComplex(e.other));
        ++ref_edges;
      }
    }
  }
  EXPECT_EQ(ref_edges, 2u);
}

TEST(ImportTest, ForeignKeyValidation) {
  ImportOptions opt;
  opt.foreign_keys = {{"emp", "dept_id", "nosuch", "id"}};
  EXPECT_FALSE(
      ImportTables({{"emp", "name,dept_id\nada,d1\n"}}, opt).ok());
  opt.foreign_keys = {{"emp", "nocol", "emp", "name"}};
  EXPECT_FALSE(
      ImportTables({{"emp", "name,dept_id\nada,d1\n"}}, opt).ok());
}

TEST(ImportTest, ParseErrorNamesTheTable) {
  auto r = ImportTables({{"good", "a\n1\n"}, {"bad", "a,b\n1\n"}});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("bad"), std::string::npos);
}

TEST(ImportTest, PaperJustificationOneTypePerRelation) {
  // §2: "the previous typing would correctly classify the tuples ...
  // assuming that no two relations have the same set of attributes".
  ASSERT_OK_AND_ASSIGN(
      graph::DataGraph g,
      ImportTables({{"emp", "name,salary\nada,100\ngrace,120\nedsger,90\n"},
                    {"dept", "title,floor\nCS,1\nNavy,2\n"}}));
  ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult stage1,
                       typing::PerfectTypingViaGfp(g));
  EXPECT_EQ(stage1.program.NumTypes(), 2u);
  // ...and with identical attribute sets the tuples become
  // indistinguishable (the paper's caveat).
  ASSERT_OK_AND_ASSIGN(
      graph::DataGraph g2,
      ImportTables({{"r1", "a,b\n1,2\n"}, {"r2", "a,b\n3,4\n"}}));
  ASSERT_OK_AND_ASSIGN(typing::PerfectTypingResult s2,
                       typing::PerfectTypingViaGfp(g2));
  EXPECT_EQ(s2.program.NumTypes(), 1u);
}

}  // namespace
}  // namespace schemex::relational
