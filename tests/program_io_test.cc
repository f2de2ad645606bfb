#include <gtest/gtest.h>

#include "extract/extractor.h"
#include "gen/dbg.h"
#include "tests/test_util.h"
#include "typing/gfp.h"
#include "typing/program_io.h"

namespace schemex::typing {
namespace {

TEST(ProgramIoTest, RoundTripSimpleProgram) {
  graph::LabelInterner labels;
  graph::LabelId a = labels.Intern("a");
  graph::LabelId b = labels.Intern("b");
  TypingProgram p;
  TypeId t1 = p.AddType("alpha", {});
  TypeId t2 = p.AddType("beta", {});
  p.type(t1).signature = TypeSignature::FromLinks(
      {TypedLink::OutAtomic(a), TypedLink::Out(b, t2)});
  p.type(t2).signature = TypeSignature::FromLinks({TypedLink::In(b, t1)});

  std::string text = WriteTypingProgram(p, labels);
  ASSERT_OK_AND_ASSIGN(TypingProgram p2, ReadTypingProgram(text, &labels));
  EXPECT_EQ(p2.NumTypes(), 2u);
  EXPECT_EQ(p2.type(0).name, "alpha");
  EXPECT_EQ(p2.type(0).signature, p.type(0).signature);
  EXPECT_EQ(p2.type(1).signature, p.type(1).signature);
}

TEST(ProgramIoTest, ExtractedSchemaSurvivesSaveLoad) {
  // Extract on DBG, serialize, load into a FRESH graph's interner, and
  // check the reloaded program types the regenerated data identically.
  auto g = gen::MakeDbgDataset(9);
  extract::ExtractorOptions opt;
  opt.target_num_types = 6;
  auto r = extract::SchemaExtractor(opt).Run(*g);
  ASSERT_TRUE(r.ok());

  std::string text = WriteTypingProgram(r->final_program, g->labels());

  auto g2 = gen::MakeDbgDataset(9);  // same data, fresh interner
  ASSERT_OK_AND_ASSIGN(TypingProgram loaded,
                       ReadTypingProgram(text, &g2->labels()));
  ASSERT_OK_AND_ASSIGN(Extents original, ComputeGfp(r->final_program, *g));
  ASSERT_OK_AND_ASSIGN(Extents reloaded, ComputeGfp(loaded, *g2));
  ASSERT_EQ(original.per_type.size(), reloaded.per_type.size());
  for (size_t t = 0; t < original.per_type.size(); ++t) {
    EXPECT_EQ(original.per_type[t].Count(), reloaded.per_type[t].Count())
        << "type " << t;
  }
}

TEST(ProgramIoTest, TypeIdsFollowRuleOrder) {
  // alpha's rule names gamma before beta's rule appears. Predicates are
  // numbered by first mention, types by rule, so the read program keeps
  // the written ids and writes back the same text.
  graph::LabelInterner labels;
  graph::LabelId a = labels.Intern("a");
  graph::LabelId b = labels.Intern("b");
  TypingProgram p;
  TypeId alpha = p.AddType("alpha", {});
  TypeId beta = p.AddType("beta", {});
  TypeId gamma = p.AddType("gamma", {});
  p.type(alpha).signature = TypeSignature::FromLinks(
      {TypedLink::Out(a, gamma), TypedLink::Out(b, beta)});
  p.type(beta).signature = TypeSignature::FromLinks({TypedLink::In(b, alpha)});
  p.type(gamma).signature = TypeSignature::FromLinks(
      {TypedLink::In(a, alpha), TypedLink::OutAtomic(b)});
  const std::string text = WriteTypingProgram(p, labels);
  ASSERT_OK_AND_ASSIGN(TypingProgram back, ReadTypingProgram(text, &labels));
  EXPECT_EQ(back, p);
  EXPECT_EQ(WriteTypingProgram(back, labels), text);

  // A predicate with no rule comes after every ruled type.
  ASSERT_OK_AND_ASSIGN(
      TypingProgram open,
      ReadTypingProgram("s(X) :- link(X, Y, a), z(Y).\n"
                        "t(X) :- link(X, Y, b), atomic(Y).\n",
                        &labels));
  ASSERT_EQ(open.NumTypes(), 3u);
  EXPECT_EQ(open.type(0).name, "s");
  EXPECT_EQ(open.type(1).name, "t");
  EXPECT_EQ(open.type(2).name, "z");
  EXPECT_EQ(open.type(0).signature,
            TypeSignature::FromLinks({TypedLink::Out(a, 2)}));
  EXPECT_TRUE(open.type(2).signature.empty());
}

TEST(ProgramIoTest, EmptyBodyRoundTrips) {
  // A type with no links prints as `true`, which reads back as the empty
  // body; `true` followed by an argument is still an ordinary predicate.
  graph::LabelInterner labels;
  graph::LabelId a = labels.Intern("a");
  TypingProgram p;
  TypeId lonely = p.AddType("lonely", {});
  TypeId holder = p.AddType("holder", {});
  p.type(holder).signature =
      TypeSignature::FromLinks({TypedLink::Out(a, lonely)});
  const std::string text = WriteTypingProgram(p, labels);
  EXPECT_EQ(text.substr(0, text.find('\n')), "lonely(X) :- true.");
  ASSERT_OK_AND_ASSIGN(TypingProgram back, ReadTypingProgram(text, &labels));
  EXPECT_EQ(back, p);

  ASSERT_OK_AND_ASSIGN(
      TypingProgram named,
      ReadTypingProgram("t(X) :- link(X, Y, a), true(Y).\n"
                        "true(X) :- true.\n",
                        &labels));
  ASSERT_EQ(named.NumTypes(), 2u);
  EXPECT_EQ(named.type(1).name, "true");
  EXPECT_EQ(named.type(0).signature,
            TypeSignature::FromLinks({TypedLink::Out(a, 1)}));
  // `true` is a whole body, not a conjunct.
  EXPECT_FALSE(
      ReadTypingProgram("t(X) :- true, link(X, Y, a), atomic(Y).", &labels)
          .ok());
}

TEST(ProgramIoTest, RejectsNonFragmentText) {
  graph::LabelInterner labels;
  // Two rules for one head is legal datalog but not a typing program.
  EXPECT_FALSE(ReadTypingProgram(
                   "t(X) :- atomic(X).\nt(X) :- link(X, Y, a), atomic(Y).",
                   &labels)
                   .ok());
  // Plain parse errors propagate too.
  EXPECT_FALSE(ReadTypingProgram("not a program", &labels).ok());
}

TEST(ProgramIoTest, EmptyProgram) {
  graph::LabelInterner labels;
  TypingProgram p;
  EXPECT_EQ(WriteTypingProgram(p, labels), "");
  ASSERT_OK_AND_ASSIGN(TypingProgram p2, ReadTypingProgram("", &labels));
  EXPECT_EQ(p2.NumTypes(), 0u);
}

}  // namespace
}  // namespace schemex::typing
