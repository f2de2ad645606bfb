#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "cluster/distance.h"
#include "typing/bit_signature.h"
#include "typing/type_signature.h"
#include "typing/typing_program.h"
#include "util/random.h"

namespace schemex::typing {
namespace {

/// A random typed link from a small pool: labels in [0, num_labels),
/// targets in {kAtomicType} ∪ [0, num_types) — outgoing may be atomic,
/// incoming never (the DataGraph invariant TypedLink documents).
TypedLink RandomLink(util::Rng& rng, size_t num_labels, size_t num_types) {
  auto label = static_cast<graph::LabelId>(rng.Uniform(num_labels));
  bool incoming = num_types > 0 && rng.Bernoulli(0.4);
  if (incoming) {
    return TypedLink::In(label, static_cast<TypeId>(rng.Uniform(num_types)));
  }
  if (num_types == 0 || rng.Bernoulli(0.3)) {
    return TypedLink::OutAtomic(label);
  }
  return TypedLink::Out(label, static_cast<TypeId>(rng.Uniform(num_types)));
}

TypeSignature RandomSignature(util::Rng& rng, size_t max_links,
                              size_t num_labels, size_t num_types) {
  std::vector<TypedLink> links;
  size_t n = rng.Uniform(max_links + 1);
  for (size_t i = 0; i < n; ++i) {
    links.push_back(RandomLink(rng, num_labels, num_types));
  }
  return TypeSignature::FromLinks(std::move(links));
}

/// A program whose rule bodies are `sigs`, in order: the universe a
/// BitSignatureIndex is built from.
TypingProgram ProgramOf(std::initializer_list<TypeSignature> sigs) {
  TypingProgram p;
  for (const TypeSignature& s : sigs) {
    p.AddType("t" + std::to_string(p.NumTypes()), s);
  }
  return p;
}

constexpr cluster::PsiKind kAllPsi[] = {
    cluster::PsiKind::kSimpleD, cluster::PsiKind::kPsi1,
    cluster::PsiKind::kPsi2,    cluster::PsiKind::kPsi3,
    cluster::PsiKind::kPsi4,    cluster::PsiKind::kPsi5};

TEST(BitDistanceTest, MatchesSortedReferenceOnRandomPairs) {
  for (uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    util::Rng rng(seed);
    for (int round = 0; round < 200; ++round) {
      TypeSignature a = RandomSignature(rng, 24, 8, 6);
      TypeSignature b = RandomSignature(rng, 24, 8, 6);

      BitSignatureIndex index(ProgramOf({a, b}));
      BitSignature ea = index.EncodeFrozen(a);
      BitSignature eb = index.EncodeFrozen(b);
      EXPECT_EQ(ea.extra + eb.extra, 0u);
      size_t ref = TypeSignature::SymmetricDifferenceSize(a, b);
      EXPECT_EQ(BitSignatureIndex::Distance(ea, eb), ref)
          << "seed " << seed << " round " << round;
      // Distance is symmetric and zero on the diagonal.
      EXPECT_EQ(BitSignatureIndex::Distance(eb, ea), ref);
      EXPECT_EQ(BitSignatureIndex::Distance(ea, ea), 0u);
    }
  }
}

TEST(BitDistanceTest, AllPsiKindsAgreeWithReferenceDistance) {
  // Every weighted function is a pure function of d, so feeding it the
  // kernel's d must reproduce the reference exactly (same doubles, not
  // approximately).
  util::Rng rng(99);
  for (int round = 0; round < 100; ++round) {
    TypeSignature a = RandomSignature(rng, 16, 6, 5);
    TypeSignature b = RandomSignature(rng, 16, 6, 5);
    BitSignatureIndex index(ProgramOf({a, b}));
    BitSignature ea = index.EncodeFrozen(a);
    BitSignature eb = index.EncodeFrozen(b);
    size_t bit_d = BitSignatureIndex::Distance(ea, eb);
    size_t ref_d = TypeSignature::SymmetricDifferenceSize(a, b);
    double w1 = 1 + static_cast<double>(rng.Uniform(100));
    double w2 = 1 + static_cast<double>(rng.Uniform(100));
    size_t L = 1 + rng.Uniform(40);
    for (cluster::PsiKind kind : kAllPsi) {
      double bit_cost = cluster::WeightedDistance(kind, w1, w2, bit_d, L);
      double ref_cost = cluster::WeightedDistance(kind, w1, w2, ref_d, L);
      EXPECT_EQ(bit_cost, ref_cost) << cluster::PsiKindName(kind);
    }
  }
}

TEST(BitDistanceTest, EmptySignatures) {
  TypeSignature empty;
  TypeSignature one = TypeSignature::FromLinks({TypedLink::OutAtomic(0)});
  BitSignatureIndex index(ProgramOf({empty, one}));
  BitSignature ee = index.EncodeFrozen(empty);
  BitSignature eo = index.EncodeFrozen(one);
  EXPECT_EQ(BitSignatureIndex::Distance(ee, ee), 0u);
  EXPECT_EQ(BitSignatureIndex::Distance(ee, eo), 1u);
  EXPECT_EQ(BitSignatureIndex::Distance(eo, ee), 1u);
  EXPECT_EQ(index.NumBits(), 1u);
}

TEST(BitDistanceTest, ZeroDistanceIsFreeAndOverflowGoesToInfinity) {
  // d = 0 must price at 0 for every kind; huge L^d must saturate to +inf
  // (which still orders correctly in min-loops).
  for (cluster::PsiKind kind : kAllPsi) {
    EXPECT_EQ(cluster::WeightedDistance(kind, 3, 4, 0, 1000), 0.0)
        << cluster::PsiKindName(kind);
  }
  double overflow =
      cluster::WeightedDistance(cluster::PsiKind::kPsi4, 1, 1, 5000, 1000);
  EXPECT_TRUE(std::isinf(overflow));
  EXPECT_GT(overflow, cluster::WeightedDistance(cluster::PsiKind::kPsi4, 1, 1,
                                                1, 1000));
}

/// Universe sizes straddling the word boundary: 63, 64, and 65 distinct
/// links exercise the full-word, exact-boundary, and spill-word paths of
/// the XOR + popcount loop.
TEST(BitDistanceTest, WordBoundaryUniverses) {
  for (size_t universe : {63u, 64u, 65u}) {
    std::vector<TypedLink> all;
    for (size_t i = 0; i < universe; ++i) {
      all.push_back(TypedLink::OutAtomic(static_cast<graph::LabelId>(i)));
    }
    util::Rng rng(1000 + universe);
    for (int round = 0; round < 50; ++round) {
      std::vector<TypedLink> la, lb;
      for (const TypedLink& l : all) {
        if (rng.Bernoulli(0.5)) la.push_back(l);
        if (rng.Bernoulli(0.5)) lb.push_back(l);
      }
      TypeSignature a = TypeSignature::FromLinks(la);
      TypeSignature b = TypeSignature::FromLinks(lb);
      // The whole universe is one rule body, so NumBits hits the
      // boundary; a and b encode to word vectors no longer than its.
      TypeSignature whole = TypeSignature::FromLinks(all);
      BitSignatureIndex index(ProgramOf({whole, a, b}));
      BitSignature all_enc = index.EncodeFrozen(whole);
      ASSERT_EQ(index.NumBits(), universe);
      ASSERT_EQ(index.NumWords(), (universe + 63) / 64);
      ASSERT_EQ(all_enc.words.size(), index.NumWords());
      BitSignature ea = index.EncodeFrozen(a);
      BitSignature eb = index.EncodeFrozen(b);
      EXPECT_EQ(BitSignatureIndex::Distance(ea, eb),
                TypeSignature::SymmetricDifferenceSize(a, b));
      EXPECT_EQ(BitSignatureIndex::Distance(all_enc, ea),
                universe - a.size());
      EXPECT_EQ(BitSignatureIndex::Distance(ea, all_enc),
                universe - a.size());
    }
  }
}

TEST(BitDistanceTest, EncodeFrozenCountsOutOfUniverseLinksAsExtras) {
  // Universe = {->0, ->1}; the probe carries two links outside it. Each
  // foreign link can never match a universe-only signature, so it adds
  // exactly +1 to any distance against one.
  TypeSignature t0 =
      TypeSignature::FromLinks({TypedLink::OutAtomic(0), TypedLink::OutAtomic(1)});
  BitSignatureIndex index(ProgramOf({t0}));
  BitSignature e0 = index.EncodeFrozen(t0);

  TypeSignature probe = TypeSignature::FromLinks(
      {TypedLink::OutAtomic(0), TypedLink::OutAtomic(7),
       TypedLink::In(3, 2)});
  BitSignature ep = index.EncodeFrozen(probe);
  EXPECT_EQ(ep.extra, 2u);
  EXPECT_EQ(index.NumBits(), 2u);  // frozen: universe did not grow
  EXPECT_EQ(BitSignatureIndex::Distance(ep, e0),
            TypeSignature::SymmetricDifferenceSize(probe, t0));
}

TEST(BitDistanceTest, RandomizedFrozenProbesMatchReference) {
  // EncodeFrozen probes against a fixed universe, with probe links drawn
  // from a wider pool than the universe was built from — the Stage-3
  // shape (object pictures vs program signatures).
  util::Rng rng(2024);
  for (int round = 0; round < 100; ++round) {
    TypeSignature u1 = RandomSignature(rng, 12, 4, 3);
    TypeSignature u2 = RandomSignature(rng, 12, 4, 3);
    BitSignatureIndex index(ProgramOf({u1, u2}));
    BitSignature e1 = index.EncodeFrozen(u1);
    BitSignature e2 = index.EncodeFrozen(u2);
    // Wider pool: labels up to 8, types up to 6.
    TypeSignature probe = RandomSignature(rng, 16, 8, 6);
    BitSignature ep = index.EncodeFrozen(probe);
    EXPECT_EQ(BitSignatureIndex::Distance(ep, e1),
              TypeSignature::SymmetricDifferenceSize(probe, u1));
    EXPECT_EQ(BitSignatureIndex::Distance(ep, e2),
              TypeSignature::SymmetricDifferenceSize(probe, u2));
  }
}

}  // namespace
}  // namespace schemex::typing
