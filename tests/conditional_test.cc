// Tests for conditional OD discovery (paper future-work item 3).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "algo/conditional.h"
#include "api/engines.h"
#include "api/registry.h"
#include "common/json.h"
#include "data/csv.h"
#include "data/encode.h"
#include "gen/random_table.h"
#include "validate/brute_force.h"
#include "test_util.h"

namespace fastod {
namespace {

// region 0: a ~ b increasing together; region 1: anti-correlated.
const char kRegional[] =
    "region,a,b\n"
    "0,1,10\n0,2,20\n0,3,30\n"
    "1,1,30\n1,2,20\n1,3,10\n";

TEST(ConditionalTest, RefineFindsTheGoodBinding) {
  auto t = ReadCsvString(kRegional);
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  ConditionalOdFinder finder(&rel);
  CanonicalOd od = CompatibilityOd(AttributeSet::Empty(), 1, 2);  // a ~ b
  EXPECT_FALSE(BruteHolds(rel, od));  // fails globally

  auto refined = finder.Refine(od, /*condition=*/0);
  ASSERT_TRUE(refined.has_value());
  // Only region 0 (rank 0) passes; half the tuples.
  EXPECT_EQ(refined->binding_ranks, (std::vector<int32_t>{0}));
  EXPECT_DOUBLE_EQ(refined->support, 0.5);
  EXPECT_EQ(refined->condition_attribute, 0);
}

TEST(ConditionalTest, RefineConstancyShape) {
  // d is constant per c-class only when region=0.
  auto t = ReadCsvString(
      "region,c,d\n0,1,5\n0,1,5\n0,2,6\n1,1,7\n1,1,8\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  ConditionalOdFinder finder(&rel);
  CanonicalOd od = ConstancyOd{AttributeSet::Single(1), 2};  // {c}: []->d
  ConditionalOdOptions options;
  options.min_support = 0.0;
  auto refined = finder.Refine(od, 0, options);
  ASSERT_TRUE(refined.has_value());
  EXPECT_EQ(refined->binding_ranks, (std::vector<int32_t>{0}));
  EXPECT_DOUBLE_EQ(refined->support, 3.0 / 5.0);
}

TEST(ConditionalTest, ConditionInsideOdRejected) {
  auto t = ReadCsvString(kRegional);
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  ConditionalOdFinder finder(&rel);
  CanonicalOd od = CompatibilityOd(AttributeSet::Empty(), 0, 1);
  EXPECT_FALSE(finder.Refine(od, 0).has_value());  // C is an endpoint
  CanonicalOd od2 = ConstancyOd{AttributeSet::Single(0), 2};
  EXPECT_FALSE(finder.Refine(od2, 0).has_value());  // C in context
}

TEST(ConditionalTest, SupportThresholdFilters) {
  auto t = ReadCsvString(kRegional);
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  ConditionalOdFinder finder(&rel);
  CanonicalOd od = CompatibilityOd(AttributeSet::Empty(), 1, 2);
  ConditionalOdOptions strict;
  strict.min_support = 0.6;  // the good binding covers only 0.5
  EXPECT_FALSE(finder.Refine(od, 0, strict).has_value());
}

TEST(ConditionalTest, DiscoverFindsPlantedConditional) {
  auto t = ReadCsvString(kRegional);
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  ConditionalOdFinder finder(&rel);
  ConditionalOdOptions options;
  options.min_support = 0.4;
  auto results = finder.DiscoverConditional(options);
  bool found = false;
  for (const ConditionalOd& c : results) {
    if (c.condition_attribute == 0 &&
        std::holds_alternative<CompatibilityOd>(c.od)) {
      const CompatibilityOd& p = std::get<CompatibilityOd>(c.od);
      if (p.a == 1 && p.b == 2) found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ConditionalTest, UnconditionalOdsNotReported) {
  // a ~ b holds globally: no conditional version should appear.
  auto t = ReadCsvString("region,a,b\n0,1,10\n0,2,20\n1,3,30\n1,4,40\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  ConditionalOdFinder finder(&rel);
  for (const ConditionalOd& c : finder.DiscoverConditional()) {
    if (std::holds_alternative<CompatibilityOd>(c.od)) {
      const CompatibilityOd& p = std::get<CompatibilityOd>(c.od);
      EXPECT_FALSE(p.a == 1 && p.b == 2) << c.od.index();
    }
  }
}

TEST(ConditionalTest, AllBindingsPassingIsNotConditional) {
  // a ~ b fails globally but holds within every region: that is the
  // ordinary OD {region}: a ~ b, so DiscoverConditional must skip it.
  auto t = ReadCsvString(
      "region,a,b\n0,1,20\n0,2,30\n1,1,5\n1,2,10\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  // Sanity: fails globally, holds per region.
  EXPECT_TRUE(BruteIsOrderCompatible(rel, AttributeSet::Single(0), 1, 2));
  ConditionalOdFinder finder(&rel);
  for (const ConditionalOd& c : finder.DiscoverConditional()) {
    if (std::holds_alternative<CompatibilityOd>(c.od) &&
        c.condition_attribute == 0) {
      const CompatibilityOd& p = std::get<CompatibilityOd>(c.od);
      EXPECT_FALSE(p.a == 1 && p.b == 2);
    }
  }
}

// Supports of k/3 have no short decimal form: the report must carry the
// full double, the same value a /stream line carries.
TEST(ConditionalTest, ReportSupportKeepsFullPrecision) {
  auto t = ReadCsvString(
      "region,a,b\n"
      "0,1,10\n0,2,20\n"
      "1,1,30\n1,2,20\n"
      "2,1,30\n2,2,10\n");
  ASSERT_TRUE(t.ok());
  auto algo = AlgorithmRegistry::Default().Create("conditional");
  ASSERT_TRUE(algo.ok());
  ASSERT_TRUE((*algo)->SetOption("min-support", "0").ok());
  ASSERT_TRUE((*algo)->BindDataset(DatasetOf(*t)).ok());
  ASSERT_TRUE((*algo)->Execute().ok());
  const auto& result =
      static_cast<ConditionalAlgorithm*>(algo->get())->result();
  Result<JsonValue> report = ParseJson((*algo)->ResultJson());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const JsonValue* ods = report->Find("conditional_ods");
  ASSERT_NE(ods, nullptr);
  ASSERT_EQ(ods->array_items().size(), result.size());
  bool saw_long_fraction = false;
  for (size_t i = 0; i < result.size(); ++i) {
    double support = ods->array_items()[i].Find("support")->number_value();
    EXPECT_NEAR(support, result[i].support, 1e-12);
    saw_long_fraction |=
        std::abs(result[i].support -
                 std::round(result[i].support * 1e6) / 1e6) > 1e-12;
  }
  EXPECT_TRUE(saw_long_fraction);
}

TEST(ConditionalTest, ToStringRendersBindingsAndSupport) {
  auto t = ReadCsvString(kRegional);
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  ConditionalOdFinder finder(&rel);
  auto refined =
      finder.Refine(CompatibilityOd(AttributeSet::Empty(), 1, 2), 0);
  ASSERT_TRUE(refined.has_value());
  std::string s = refined->ToString(t->schema());
  EXPECT_NE(s.find("region in {"), std::string::npos);
  EXPECT_NE(s.find("support 50%"), std::string::npos);
}

// Property: every binding the finder accepts truly satisfies the OD on
// the selected sub-relation, and every rejected binding truly violates it.
class ConditionalPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConditionalPropertyTest, BindingsAreExact) {
  Table t = GenRandomTable(30, 4, 3, GetParam());
  EncodedRelation rel = Encode(t);
  ConditionalOdFinder finder(&rel);
  ConditionalOdOptions options;
  options.min_support = 0.0;  // keep everything; we check exactness
  for (int cond = 0; cond < 2; ++cond) {
    CanonicalOd od = CompatibilityOd(AttributeSet::Empty(), 2, 3);
    auto refined = finder.Refine(od, cond, options);
    ASSERT_TRUE(refined.has_value());
    for (int32_t v = 0; v < rel.NumDistinct(cond); ++v) {
      // Sub-relation for binding v.
      std::vector<int64_t> rows;
      for (int64_t r = 0; r < rel.NumRows(); ++r) {
        if (rel.rank(r, cond) == v) rows.push_back(r);
      }
      EncodedRelation sub = Encode(t.SelectRows(rows));
      bool holds = BruteHolds(sub, od);
      bool accepted = std::binary_search(refined->binding_ranks.begin(),
                                         refined->binding_ranks.end(), v);
      EXPECT_EQ(holds, accepted) << "cond=" << cond << " v=" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConditionalPropertyTest,
                         ::testing::Values(91, 92, 93, 94, 95, 96));

}  // namespace
}  // namespace fastod
