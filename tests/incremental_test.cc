// §6 online typing of arrivals (TypeArrivals) over a DataGraph: the
// same path the service's apply_delta verb takes.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "extract/extractor.h"
#include "gen/dbg.h"
#include "graph/data_graph.h"
#include "graph/frozen_graph.h"
#include "tests/test_util.h"
#include "typing/incremental.h"

namespace schemex::typing {
namespace {

using graph::DataGraph;
using graph::ObjectId;

/// A record arriving after extraction: atomic fields (label -> value)
/// plus references to existing objects (label -> target id).
struct Record {
  std::vector<std::pair<std::string, std::string>> fields;
  std::vector<std::pair<std::string, ObjectId>> refs;
};

/// Adds `rec` to `ov` as a new complex object and returns its id.
ObjectId AddRecord(DataGraph& ov, const Record& rec) {
  ObjectId id = ov.AddComplex();
  for (const auto& [label, value] : rec.fields) {
    EXPECT_OK(ov.AddEdge(id, ov.AddAtomic(value), label));
  }
  for (const auto& [label, target] : rec.refs) {
    EXPECT_OK(ov.AddEdge(id, target, label));
  }
  return id;
}

/// Types one arrival and returns what happened to it.
ArrivalTyping TypeOne(const TypingProgram& program, const DataGraph& ov,
                      ObjectId id, TypeAssignment* tau) {
  auto typed = TypeArrivals(program, ov, std::vector<ObjectId>{id}, tau);
  EXPECT_TRUE(typed.ok()) << typed.status().ToString();
  EXPECT_EQ(typed->size(), 1u);
  return typed->empty() ? ArrivalTyping{} : typed->front();
}

/// A fixture with a 1-type schema: person = {->name^0, ->email^0}.
class IncrementalFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    graph::GraphBuilder b;
    ASSERT_OK(b.Atomic("n1", "ada"));
    ASSERT_OK(b.Atomic("e1", "ada@x"));
    ASSERT_OK(b.Edge("p1", "name", "n1"));
    ASSERT_OK(b.Edge("p1", "email", "e1"));
    util::Status st;
    graph::DataGraph base = std::move(b).Build(&st);
    ASSERT_OK(st);
    const graph::LabelInterner& labels = base.labels();
    program_.AddType("person", TypeSignature::FromLinks(
                                   {TypedLink::OutAtomic(labels.Find("name")),
                                    TypedLink::OutAtomic(labels.Find("email"))}));
    tau_ = TypeAssignment(base.NumObjects());
    tau_.Assign(0, 0);
    overlay_ = std::make_unique<DataGraph>(graph::Freeze(base));
  }

  TypingProgram program_;
  TypeAssignment tau_;
  std::unique_ptr<DataGraph> overlay_;
};

TEST_F(IncrementalFixture, ExactFitAssignedDirectly) {
  ObjectId id =
      AddRecord(*overlay_, {{{"name", "grace"}, {"email", "grace@x"}}, {}});
  ArrivalTyping t = TypeOne(program_, *overlay_, id, &tau_);
  EXPECT_EQ(t.id, id);
  EXPECT_EQ(t.exact_types, (std::vector<TypeId>{0}));
  EXPECT_EQ(t.fallback_type, kInvalidType);
  EXPECT_TRUE(tau_.Has(id, 0));
  EXPECT_EQ(tau_.NumObjects(), overlay_->NumObjects());
  EXPECT_EQ(graph::GraphView(*overlay_).NumComplexObjects(), 2u);
}

TEST_F(IncrementalFixture, MisfitFallsBackToNearest) {
  ObjectId id = AddRecord(*overlay_, {{{"name", "edsger"}}, {}});  // no email
  ArrivalTyping t = TypeOne(program_, *overlay_, id, &tau_);
  EXPECT_TRUE(t.exact_types.empty());
  EXPECT_EQ(t.fallback_type, 0);
  EXPECT_EQ(t.fallback_distance, 1u);
  EXPECT_TRUE(tau_.Has(id, 0));
}

TEST_F(IncrementalFixture, ReferencesToExistingObjects) {
  // An extra link is still an exact fit (GFP semantics tolerates extra
  // edges).
  ObjectId id = AddRecord(*overlay_,
                          {{{"name", "x"}, {"email", "x@x"}}, {{"friend", 0}}});
  EXPECT_EQ(TypeOne(program_, *overlay_, id, &tau_).exact_types.size(), 1u);

  // An id outside the graph is rejected before the assignment changes.
  TypeAssignment before = tau_;
  std::vector<ObjectId> bogus{static_cast<ObjectId>(overlay_->NumObjects())};
  auto r = TypeArrivals(program_, *overlay_, bogus, &tau_);
  EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(tau_, before);
}

TEST_F(IncrementalFixture, RetypeRecommendationThreshold) {
  // 8 exact arrivals, then misfits until the fraction crosses 25%.
  std::vector<ObjectId> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back(
        AddRecord(*overlay_, {{{"name", "n"}, {"email", "e"}}, {}}));
  }
  for (int i = 0; i < 4; ++i) {
    batch.push_back(AddRecord(*overlay_, {{{"nickname", "z"}}, {}}));
  }
  ASSERT_OK_AND_ASSIGN(std::vector<ArrivalTyping> typed,
                       TypeArrivals(program_, *overlay_, batch, &tau_));
  ASSERT_EQ(typed.size(), 12u);
  size_t fallback = 0;
  for (const ArrivalTyping& t : typed) {
    if (t.exact_types.empty()) ++fallback;
  }
  EXPECT_EQ(fallback, 4u);
  EXPECT_FALSE(RetypeRecommended(8, 0, 0.25, 10));  // too few arrivals
  // 4 of 12 arrivals misfit (33% > 25%), and >= 10 arrivals seen.
  EXPECT_TRUE(RetypeRecommended(typed.size(), fallback, 0.25, 10));
  EXPECT_FALSE(RetypeRecommended(typed.size(), fallback, 0.50, 10));
}

TEST(IncrementalTest, ChainedArrivalsSeeEachOther) {
  // An arrival can reference an earlier arrival of the same batch, and
  // the earlier object's assigned type witnesses the later one's
  // requirements. Atomic arrivals are skipped.
  graph::DataGraph g;
  TypingProgram p;
  graph::LabelId leader = g.InternLabel("leader");
  graph::LabelId name = g.InternLabel("name");
  TypeId boss = p.AddType(
      "boss", TypeSignature::FromLinks({TypedLink::OutAtomic(name)}));
  TypeId worker = p.AddType(
      "worker", TypeSignature::FromLinks({TypedLink::Out(leader, boss)}));
  DataGraph ov(graph::Freeze(g));
  ObjectId b = AddRecord(ov, {{{"name", "B"}}, {}});
  ObjectId w = AddRecord(ov, {{}, {{"leader", b}}});
  ObjectId atom = ov.AddAtomic("loose");

  TypeAssignment tau;
  ASSERT_OK_AND_ASSIGN(
      std::vector<ArrivalTyping> typed,
      TypeArrivals(p, ov, std::vector<ObjectId>{b, w, atom}, &tau));
  ASSERT_EQ(typed.size(), 2u);
  EXPECT_EQ(typed[0].exact_types, (std::vector<TypeId>{boss}));
  EXPECT_EQ(typed[1].exact_types, (std::vector<TypeId>{worker}));
  EXPECT_TRUE(tau.TypesOf(atom).empty());
}

TEST(IncrementalTest, EndToEndWithExtractor) {
  // Extract a 6-type DBG schema, then stream a new publication-shaped
  // object at it.
  auto g = gen::MakeDbgDataset();
  extract::ExtractorOptions opt;
  opt.target_num_types = 6;
  auto r = extract::SchemaExtractor(opt).Run(*g);
  ASSERT_TRUE(r.ok());

  // Find a db_person to author the new publication.
  ObjectId person = graph::kInvalidObject;
  for (ObjectId o = 0; o < g->NumObjects(); ++o) {
    if (g->Name(o).substr(0, 9) == "db_person") {
      person = o;
      break;
    }
  }
  ASSERT_NE(person, graph::kInvalidObject);
  DataGraph ov(graph::Freeze(*g));
  ObjectId pub = AddRecord(ov, {{{"name", "Extracting Schema"},
                                 {"conference", "SIGMOD"},
                                 {"postscript", "p.ps"}},
                                {{"author", person}}});
  TypeAssignment tau = r->recast.assignment;
  ArrivalTyping t = TypeOne(r->final_program, ov, pub, &tau);
  ASSERT_FALSE(t.exact_types.empty());
  // It should land in the publication type: the one whose signature has
  // an ->author link.
  graph::LabelId author = g->labels().Find("author");
  bool in_publication_type = false;
  for (TypeId tt : t.exact_types) {
    for (const TypedLink& l : r->final_program.type(tt).signature.links()) {
      if (l.label == author && l.dir == Direction::kOutgoing) {
        in_publication_type = true;
      }
    }
  }
  EXPECT_TRUE(in_publication_type);
}

}  // namespace
}  // namespace schemex::typing
