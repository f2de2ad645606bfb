#include <gtest/gtest.h>

#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "datalog/printer.h"
#include "gen/random_graph.h"
#include "tests/test_util.h"
#include "typing/gfp.h"
#include "typing/perfect_typing.h"
#include "typing/typing_program.h"

namespace schemex::typing {
namespace {

/// Builds the Figure 2 typing program over `g`'s labels:
///   person = ->is-manager-of^firm, ->name^0
///   firm   = ->is-managed-by^person, ->name^0
TypingProgram MakeFigure2Program(graph::DataGraph* g) {
  graph::LabelId manages = g->InternLabel("is-manager-of");
  graph::LabelId managed = g->InternLabel("is-managed-by");
  graph::LabelId name = g->InternLabel("name");
  TypingProgram p;
  TypeId person = p.AddType("person", {});
  TypeId firm = p.AddType("firm", {});
  p.type(person).signature = TypeSignature::FromLinks(
      {TypedLink::Out(manages, firm), TypedLink::OutAtomic(name)});
  p.type(firm).signature = TypeSignature::FromLinks(
      {TypedLink::Out(managed, person), TypedLink::OutAtomic(name)});
  return p;
}

TEST(TypingProgramTest, BasicAccessors) {
  graph::DataGraph g = test::MakeFigure2Database();
  TypingProgram p = MakeFigure2Program(&g);
  EXPECT_EQ(p.NumTypes(), 2u);
  EXPECT_EQ(p.FindType("person"), 0);
  EXPECT_EQ(p.FindType("firm"), 1);
  EXPECT_EQ(p.FindType("nope"), kInvalidType);
  EXPECT_EQ(p.TotalTypedLinks(), 4u);
  EXPECT_EQ(p.NumDistinctTypedLinks(), 3u);  // ->name^0 shared
  ASSERT_OK(p.Validate());
}

TEST(TypingProgramTest, ValidateRejectsBadTargets) {
  graph::LabelInterner labels;
  graph::LabelId a = labels.Intern("a");
  TypingProgram p;
  p.AddType("t", TypeSignature::FromLinks({TypedLink::Out(a, 7)}));
  EXPECT_FALSE(p.Validate().ok());

  TypingProgram p2;
  p2.AddType("t", TypeSignature::FromLinks(
                      {TypedLink{Direction::kIncoming, a, kAtomicType}}));
  EXPECT_FALSE(p2.Validate().ok());
}

TEST(TypingProgramTest, ToStringMatchesPaperStyle) {
  graph::DataGraph g = test::MakeFigure2Database();
  TypingProgram p = MakeFigure2Program(&g);
  std::string s = p.ToString(g.labels());
  EXPECT_NE(s.find("person : 1 ="), std::string::npos);
  EXPECT_NE(s.find("->is-manager-of^2"), std::string::npos);
  EXPECT_NE(s.find("->name^0"), std::string::npos);
}

TEST(TypingProgramTest, ToDatalogEvaluatesIdentically) {
  graph::DataGraph g = test::MakeFigure2Database();
  TypingProgram p = MakeFigure2Program(&g);

  ASSERT_OK_AND_ASSIGN(Extents fast, ComputeGfp(p, g));
  ASSERT_OK_AND_ASSIGN(datalog::Interpretation slow,
                       datalog::Evaluate(p.ToDatalog(), g));
  ASSERT_EQ(fast.per_type.size(), slow.extents.size());
  for (size_t t = 0; t < fast.per_type.size(); ++t) {
    EXPECT_EQ(fast.per_type[t], slow.extents[t]) << "type " << t;
  }
  // And the extents are the paper's: person={g,j}, firm={m,a}.
  EXPECT_EQ(fast.per_type[0].Count(), 2u);
  EXPECT_TRUE(fast.Contains(0, 0));  // g
  EXPECT_TRUE(fast.Contains(0, 1));  // j
  EXPECT_EQ(fast.per_type[1].Count(), 2u);
  EXPECT_TRUE(fast.Contains(1, 2));  // m
  EXPECT_TRUE(fast.Contains(1, 3));  // a
}

TEST(TypingProgramTest, FromDatalogRoundTrip) {
  graph::DataGraph g = test::MakeFigure2Database();
  TypingProgram p = MakeFigure2Program(&g);
  datalog::Program d = p.ToDatalog();
  ASSERT_OK_AND_ASSIGN(TypingProgram p2, TypingProgram::FromDatalog(d));
  EXPECT_EQ(p2.NumTypes(), p.NumTypes());
  for (size_t t = 0; t < p.NumTypes(); ++t) {
    EXPECT_EQ(p2.type(static_cast<TypeId>(t)).signature,
              p.type(static_cast<TypeId>(t)).signature);
    EXPECT_EQ(p2.type(static_cast<TypeId>(t)).name,
              p.type(static_cast<TypeId>(t)).name);
  }
}

TEST(TypingProgramTest, FromDatalogParsedText) {
  // A hand-written program in the restricted fragment lifts cleanly.
  graph::LabelInterner labels;
  ASSERT_OK_AND_ASSIGN(
      datalog::Program d,
      datalog::ParseProgram(
          "student(X) :- link(X, Y, advisor), prof(Y), link(X, Z, name), "
          "atomic(Z).\n"
          "prof(X) :- link(Y, X, advisor), student(Y).",
          &labels));
  ASSERT_OK_AND_ASSIGN(TypingProgram p, TypingProgram::FromDatalog(d));
  EXPECT_EQ(p.NumTypes(), 2u);
  TypeId student = p.FindType("student");
  TypeId prof = p.FindType("prof");
  EXPECT_EQ(p.type(student).signature.size(), 2u);
  EXPECT_TRUE(p.type(prof).signature.Contains(
      TypedLink::In(labels.Find("advisor"), student)));
}

TEST(TypingProgramTest, FromDatalogRejectsOutsideFragment) {
  graph::LabelInterner labels;
  // Two rules for one head.
  ASSERT_OK_AND_ASSIGN(
      datalog::Program two_rules,
      datalog::ParseProgram("t(X) :- atomic(X).\nt(X) :- link(X, Y, a), "
                            "atomic(Y).",
                            &labels));
  EXPECT_FALSE(TypingProgram::FromDatalog(two_rules).ok());

  // A body variable used by two link atoms (the paper's excluded
  // manager/managed-by example from §2).
  ASSERT_OK_AND_ASSIGN(
      datalog::Program shared_var,
      datalog::ParseProgram(
          "person(X) :- link(X, Y, m), firm(Y), link(Y, X, mb).\n"
          "firm(X) :- link(X, Z, name), atomic(Z).",
          &labels));
  EXPECT_FALSE(TypingProgram::FromDatalog(shared_var).ok());

  // Variable with a classifying atom but no link anchoring it to X.
  ASSERT_OK_AND_ASSIGN(
      datalog::Program floating,
      datalog::ParseProgram("t(X) :- atomic(Y).", &labels));
  EXPECT_FALSE(TypingProgram::FromDatalog(floating).ok());
}

TEST(GfpTest, PrefilterNeverDropsGfpMembers) {
  // Statistical check on random graphs: specialized GFP == generic
  // datalog GFP for arbitrary candidate-style typing programs.
  for (uint64_t seed : {1u, 2u, 3u}) {
    gen::RandomGraphOptions opt;
    opt.num_complex = 30;
    opt.num_atomic = 20;
    opt.num_edges = 70;
    opt.num_labels = 3;
    opt.seed = seed;
    graph::DataGraph g = gen::RandomGraph(opt);
    ASSERT_OK_AND_ASSIGN(PerfectTypingResult stage1,
                         PerfectTypingViaHashRefinement(g));
    ASSERT_OK_AND_ASSIGN(Extents fast, ComputeGfp(stage1.program, g));
    ASSERT_OK_AND_ASSIGN(datalog::Interpretation slow,
                         datalog::Evaluate(stage1.program.ToDatalog(), g));
    for (size_t t = 0; t < fast.per_type.size(); ++t) {
      EXPECT_EQ(fast.per_type[t], slow.extents[t])
          << "seed " << seed << " type " << t;
    }
  }
}

TEST(GfpTest, SatisfiesSignatureChecksWitnesses) {
  graph::DataGraph g = test::MakeFigure2Database();
  TypingProgram p = MakeFigure2Program(&g);
  ASSERT_OK_AND_ASSIGN(Extents m, ComputeGfp(p, g));
  EXPECT_TRUE(SatisfiesSignature(p.type(0).signature, g, m, 0));   // g
  EXPECT_FALSE(SatisfiesSignature(p.type(0).signature, g, m, 2));  // m
  // Empty signature is satisfied by anything.
  EXPECT_TRUE(SatisfiesSignature(TypeSignature(), g, m, 2));
}

TEST(GfpTest, StatsPopulated) {
  graph::DataGraph g = test::MakeFigure2Database();
  TypingProgram p = MakeFigure2Program(&g);
  GfpStats stats;
  ASSERT_OK_AND_ASSIGN(Extents m, ComputeGfp(p, g, &stats));
  (void)m;
  EXPECT_GT(stats.initial_candidates, 0u);
  EXPECT_GT(stats.rechecks, 0u);
}

}  // namespace
}  // namespace schemex::typing
