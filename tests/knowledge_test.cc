// OdKnowledge: implication queries over a complete minimal discovery must
// agree *exactly* with validation against the data — the operational
// meaning of Theorem 8's completeness, exercised across random relations
// and the paper's examples.
#include <gtest/gtest.h>

#include <algorithm>

#include "algo/fastod.h"
#include "common/rng.h"
#include "data/encode.h"
#include "gen/date_dim.h"
#include "gen/generators.h"
#include "gen/random_table.h"
#include "od/knowledge.h"
#include "validate/brute_force.h"
#include "validate/od_validator.h"
#include "test_util.h"

namespace fastod {
namespace {

TEST(OdKnowledgeTest, TrivialOdsAlwaysImplied) {
  FastodResult empty;
  OdKnowledge k(empty);
  EXPECT_TRUE(k.ImpliesConstancy(AttributeSet::FromIndices({0, 1}), 1));
  EXPECT_TRUE(k.ImpliesCompatibility(AttributeSet::Empty(), 2, 2));
  EXPECT_TRUE(k.ImpliesCompatibility(AttributeSet::Single(3), 3, 4));
  EXPECT_FALSE(k.ImpliesConstancy(AttributeSet::Empty(), 0));
}

TEST(OdKnowledgeTest, AugmentationLiftsContexts) {
  FastodResult r;
  r.constancy_ods.push_back(ConstancyOd{AttributeSet::Single(0), 2});
  r.compatibility_ods.push_back(
      CompatibilityOd(AttributeSet::Single(1), 3, 4));
  OdKnowledge k(r);
  // Supersets of the emitted contexts are implied...
  EXPECT_TRUE(k.ImpliesConstancy(AttributeSet::FromIndices({0, 1}), 2));
  EXPECT_TRUE(
      k.ImpliesCompatibility(AttributeSet::FromIndices({1, 5}), 3, 4));
  // ...subsets are not.
  EXPECT_FALSE(k.ImpliesConstancy(AttributeSet::Empty(), 2));
  EXPECT_FALSE(k.ImpliesCompatibility(AttributeSet::Empty(), 3, 4));
}

TEST(OdKnowledgeTest, PropagateFromConstancy) {
  FastodResult r;
  r.constancy_ods.push_back(ConstancyOd{AttributeSet::Single(0), 2});
  OdKnowledge k(r);
  // {0}: [] -> 2 implies {0}: 2 ~ anything.
  EXPECT_TRUE(k.ImpliesCompatibility(AttributeSet::Single(0), 2, 5));
  EXPECT_TRUE(k.ImpliesCompatibility(AttributeSet::FromIndices({0, 3}), 5,
                                     2));
  EXPECT_FALSE(k.ImpliesCompatibility(AttributeSet::Empty(), 2, 5));
}

TEST(OdKnowledgeTest, DateDimOptimizerQueries) {
  Table t = GenDateDim(730, 2012);
  EncodedRelation rel = Encode(t);
  OdKnowledge k(Fastod().Discover(rel));
  const Schema& s = t.schema();
  int sk = *s.IndexOf("d_date_sk");
  int date = *s.IndexOf("d_date");
  int year = *s.IndexOf("d_year");
  int month = *s.IndexOf("d_month");
  int quarter = *s.IndexOf("d_quarter");
  int week = *s.IndexOf("d_week");
  int dom = *s.IndexOf("d_dom");
  // The rewrites of Section 1.1, asked the way an optimizer would.
  EXPECT_TRUE(k.Implies(ListOd{{sk}, {date}}));
  EXPECT_TRUE(k.Implies(ListOd{{sk}, {year}}));
  EXPECT_TRUE(k.Implies(ListOd{{month}, {quarter}}));
  EXPECT_TRUE(k.Implies(ListOd{{year, month}, {year, quarter}}));
  // And the known non-ODs.
  EXPECT_FALSE(k.Implies(ListOd{{month}, {week}}));  // no FD month->week
  EXPECT_FALSE(k.Implies(ListOd{{dom}, {month}}));
}

TEST(OdKnowledgeTest, UnaryListOdsMatchDirectValidation) {
  Table t = GenFlightLike(400, 10, 11);
  EncodedRelation rel = Encode(t);
  OdKnowledge k(Fastod().Discover(rel));
  OdValidator v(&rel);
  std::vector<ListOd> derived = k.UnaryListOds(10);
  for (int a = 0; a < 10; ++a) {
    for (int b = 0; b < 10; ++b) {
      if (a == b) continue;
      ListOd od{{a}, {b}};
      bool in_derived =
          std::find(derived.begin(), derived.end(), od) != derived.end();
      EXPECT_EQ(in_derived, v.Holds(od)) << od.ToString(t.schema());
    }
  }
}

TEST(OdKnowledgeTest, NumFactsCountsEmittedOds) {
  Table t = GenFlightLike(200, 8, 3);
  EncodedRelation rel = Encode(t);
  FastodResult r = Fastod().Discover(rel);
  OdKnowledge k(r);
  EXPECT_EQ(k.NumFacts(), r.num_constancy + r.num_compatibility);
}

// The decisive property: for a complete minimal discovery, implication
// from the emitted set agrees with ground truth on EVERY canonical OD and
// on random list ODs.
class KnowledgePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KnowledgePropertyTest, CanonicalQueriesMatchGroundTruth) {
  Table t = GenRandomTable(24, 4, 3, GetParam());
  EncodedRelation rel = Encode(t);
  OdKnowledge k(Fastod().Discover(rel));
  for (uint64_t mask = 0; mask < 16; ++mask) {
    AttributeSet ctx(mask);
    for (int a = 0; a < 4; ++a) {
      EXPECT_EQ(k.ImpliesConstancy(ctx, a),
                BruteIsConstant(rel, ctx, a))
          << "ctx=" << mask << " A=" << a;
      for (int b = a + 1; b < 4; ++b) {
        EXPECT_EQ(k.ImpliesCompatibility(ctx, a, b),
                  BruteIsOrderCompatible(rel, ctx, a, b))
            << "ctx=" << mask << " A=" << a << " B=" << b;
      }
    }
  }
}

TEST_P(KnowledgePropertyTest, ListOdQueriesMatchGroundTruth) {
  Rng rng(GetParam() * 131 + 7);
  Table t = GenRandomTable(20, 4, 3, GetParam() + 4000);
  EncodedRelation rel = Encode(t);
  OdKnowledge k(Fastod().Discover(rel));
  for (int trial = 0; trial < 60; ++trial) {
    auto random_spec = [&rng]() {
      OrderSpec spec;
      AttributeSet used;
      int len = 1 + static_cast<int>(rng.Uniform(3));
      for (int i = 0; i < len; ++i) {
        int a = static_cast<int>(rng.Uniform(4));
        if (!used.Contains(a)) {
          spec.push_back(a);
          used = used.With(a);
        }
      }
      return spec;
    };
    ListOd od{random_spec(), random_spec()};
    EXPECT_EQ(k.Implies(od), BruteHolds(rel, od)) << od.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnowledgePropertyTest,
                         ::testing::Values(501, 502, 503, 504, 505, 506));

}  // namespace
}  // namespace fastod
