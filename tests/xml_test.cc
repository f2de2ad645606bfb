#include <gtest/gtest.h>

#include "extract/extractor.h"
#include "graph/graph_stats.h"
#include "tests/test_util.h"
#include "xml/import.h"
#include "xml/xml.h"

namespace schemex::xml {
namespace {

TEST(XmlParseTest, ElementsAttributesText) {
  ASSERT_OK_AND_ASSIGN(
      auto root,
      ParseXml(R"(<?xml version="1.0"?>
<person id="p1" dept='cs'>
  <name>Gates</name>
  <firm><name>Microsoft</name></firm>
  trailing words
</person>)"));
  EXPECT_EQ(root->tag, "person");
  ASSERT_EQ(root->attributes.size(), 2u);
  EXPECT_EQ(*root->FindAttribute("id"), "p1");
  EXPECT_EQ(*root->FindAttribute("dept"), "cs");
  EXPECT_EQ(root->FindAttribute("nope"), nullptr);
  ASSERT_EQ(root->children.size(), 2u);
  EXPECT_EQ(root->children[0]->tag, "name");
  EXPECT_EQ(root->children[0]->text, "Gates");
  EXPECT_EQ(root->children[1]->children[0]->text, "Microsoft");
  EXPECT_EQ(root->text, "trailing words");
}

TEST(XmlParseTest, SelfClosingCommentsCdataEntities) {
  ASSERT_OK_AND_ASSIGN(auto root, ParseXml(R"(
<!-- prologue comment -->
<doc>
  <empty flag="yes"/>
  <!-- inner comment -->
  <code><![CDATA[if (a < b) a &= b;]]></code>
  <esc>&lt;tag&gt; &amp; &quot;q&quot; &apos;a&apos; &#65;&#x42;</esc>
</doc>)"));
  ASSERT_EQ(root->children.size(), 3u);
  EXPECT_EQ(root->children[0]->tag, "empty");
  EXPECT_TRUE(root->children[0]->children.empty());
  EXPECT_EQ(root->children[1]->text, "if (a < b) a &= b;");
  EXPECT_EQ(root->children[2]->text, "<tag> & \"q\" 'a' AB");
}

TEST(XmlParseTest, Malformed) {
  EXPECT_FALSE(ParseXml("").ok());
  EXPECT_FALSE(ParseXml("<a><b></a></b>").ok());      // mismatched
  EXPECT_FALSE(ParseXml("<a>").ok());                 // unterminated
  EXPECT_FALSE(ParseXml("<a></a><b></b>").ok());      // two roots
  EXPECT_FALSE(ParseXml("<a x=unquoted></a>").ok());
  EXPECT_FALSE(ParseXml("<a>&bogus;</a>").ok());
  EXPECT_FALSE(ParseXml("just text").ok());
  EXPECT_FALSE(ParseXml("<a x=\"open></a>").ok());
  // A decimal character reference past 2^64 - 1 must not wrap into a
  // valid code point (2^64 + 65 would read as 'A').
  EXPECT_FALSE(ParseXml("<a>&#18446744073709551681;</a>").ok());
}

TEST(XmlImportTest, LeafCollapsingMatchesPaperModeling) {
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, ImportXml(R"(
<person>
  <name>Gates</name>
  <firm><name>Microsoft</name></firm>
</person>)"));
  // person (complex) -name-> "Gates" (atomic), -firm-> firm (complex)
  // -name-> "Microsoft".
  EXPECT_EQ(g.NumComplexObjects(), 2u);
  EXPECT_EQ(g.NumAtomicObjects(), 2u);
  EXPECT_EQ(g.NumEdges(), 3u);
  graph::LabelId name = g.labels().Find("name");
  ASSERT_NE(name, graph::kInvalidLabel);
  EXPECT_TRUE(graph::HasEdgeToAtomic(g, 0, name));
  ASSERT_OK(g.Validate());
}

TEST(XmlImportTest, AttributesAndMixedText) {
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, ImportXml(
      R"(<page url="http://x"><b>bold</b> plain tail</page>)"));
  graph::LabelId url = g.labels().Find("url");
  graph::LabelId text = g.labels().Find("text");
  ASSERT_NE(url, graph::kInvalidLabel);
  ASSERT_NE(text, graph::kInvalidLabel);
  EXPECT_TRUE(graph::HasEdgeToAtomic(g, 0, url));
  EXPECT_TRUE(graph::HasEdgeToAtomic(g, 0, text));
}

TEST(XmlImportTest, NoCollapseOption) {
  XmlImportOptions opt;
  opt.collapse_text_leaves = false;
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g,
                       ImportXml("<r><name>Gates</name></r>", opt));
  // name becomes a complex node with a text edge.
  EXPECT_EQ(g.NumComplexObjects(), 2u);
  EXPECT_EQ(g.NumAtomicObjects(), 1u);
  EXPECT_EQ(g.NumEdges(), 2u);
}

TEST(XmlImportTest, RepeatedChildrenFanOut) {
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, ImportXml(R"(
<group>
  <member><name>a</name><email>a@x</email></member>
  <member><name>b</name></member>
  <member><name>c</name><email>c@x</email><photo>c.gif</photo></member>
</group>)"));
  graph::GraphStats s = graph::ComputeStats(g);
  EXPECT_EQ(s.num_complex, 4u);  // group + 3 members
  // Irregular members: exactly the paper's home-page scenario. Extract!
  extract::ExtractorOptions opt;
  opt.target_num_types = 2;
  auto r = extract::SchemaExtractor(opt).Run(g);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_final_types, 2u);
  // Perfect typing distinguishes the three member variants + group.
  EXPECT_EQ(r->num_perfect_types, 4u);
}

TEST(XmlImportTest, DeepNesting) {
  std::string deep;
  for (int i = 0; i < 40; ++i) deep += "<n" + std::to_string(i) + ">";
  deep += "x";
  for (int i = 39; i >= 0; --i) deep += "</n" + std::to_string(i) + ">";
  ASSERT_OK_AND_ASSIGN(graph::DataGraph g, ImportXml(deep));
  // 39 complex wrappers; the innermost text leaf collapses to an atomic.
  EXPECT_EQ(g.NumObjects(), 40u);
  EXPECT_EQ(g.NumAtomicObjects(), 1u);
  ASSERT_OK(g.Validate());
}

}  // namespace
}  // namespace schemex::xml
