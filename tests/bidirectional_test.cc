// Tests for the bidirectional-OD extension (paper future-work item 1):
// directional specs, descending-polarity compatibility, the discovery
// integration, and agreement with brute-force semantics.
#include <gtest/gtest.h>

#include <algorithm>

#include "algo/brute_force_discovery.h"
#include "algo/fastod.h"
#include "data/csv.h"
#include "data/encode.h"
#include "gen/generators.h"
#include "gen/random_table.h"
#include "validate/brute_force.h"
#include "validate/od_validator.h"
#include "test_util.h"

namespace fastod {
namespace {

TEST(DirectedSpecTest, ToStringShowsDirections) {
  DirectedSpec spec{Asc(0), Desc(2)};
  EXPECT_EQ(DirectedSpecToString(spec), "[A asc,C desc]");
  BidirectionalListOd od{{Asc(0)}, {Desc(1)}};
  EXPECT_EQ(od.ToString(), "[A asc] orders [B desc]");
}

TEST(DirectedSpecTest, SchemaNames) {
  Schema s = Schema::FromNames({"age", "birth_year"});
  BidirectionalListOd od{{Asc(0)}, {Desc(1)}};
  EXPECT_EQ(od.ToString(s), "[age asc] orders [birth_year desc]");
}

TEST(BidiCompatibilityOdTest, PairNormalizationAndTrivia) {
  BidiCompatibilityOd od(AttributeSet::Empty(), 3, 1);
  EXPECT_EQ(od.a, 1);
  EXPECT_EQ(od.b, 3);
  EXPECT_TRUE(BidiCompatibilityOd(AttributeSet::Single(1), 1, 2).IsTrivial());
  EXPECT_FALSE(BidiCompatibilityOd(AttributeSet::Empty(), 1, 2).IsTrivial());
  EXPECT_EQ(od.ToString(), "{}: B ~ D desc");
}

TEST(BidiValidatorTest, AntiCorrelatedColumnsAreOppositeCompatible) {
  // b = 10 - a: ascending a sorts b descending.
  auto t = ReadCsvString("a,b\n1,9\n2,8\n3,7\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  OdValidator v(&rel);
  EXPECT_FALSE(v.IsOrderCompatible(AttributeSet::Empty(), 0, 1));
  EXPECT_TRUE(v.IsBidiOrderCompatible(AttributeSet::Empty(), 0, 1));
  // And the corresponding bidirectional list OD holds.
  EXPECT_TRUE(v.Holds(BidirectionalListOd{{Asc(0)}, {Desc(1)}}));
  EXPECT_FALSE(v.Holds(BidirectionalListOd{{Asc(0)}, {Asc(1)}}));
}

TEST(BidiValidatorTest, TiesInAAreFreeInBothPolarities) {
  auto t = ReadCsvString("a,b\n1,1\n1,9\n2,0\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  OdValidator v(&rel);
  // Descending: B of the a=2 group (0) must be <= min B of a=1 group? No:
  // descending requires later groups to have *smaller or equal* B. max of
  // group a=1 is 9, value 0 < everything — fine.
  EXPECT_TRUE(v.IsBidiOrderCompatible(AttributeSet::Empty(), 0, 1));
}

TEST(BidiValidatorTest, OppositeViolationDetected) {
  // a and b both increase somewhere: opposite polarity fails.
  auto t = ReadCsvString("a,b\n1,1\n2,2\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  OdValidator v(&rel);
  EXPECT_FALSE(v.IsBidiOrderCompatible(AttributeSet::Empty(), 0, 1));
  EXPECT_TRUE(v.IsOrderCompatible(AttributeSet::Empty(), 0, 1));
}

TEST(BidiValidatorTest, ContextIsolatesClasses) {
  // Within ctx groups, b decreases with a; across groups it increases.
  auto t = ReadCsvString("ctx,a,b\n1,1,20\n1,2,10\n2,1,40\n2,2,30\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  OdValidator v(&rel);
  EXPECT_FALSE(v.IsBidiOrderCompatible(AttributeSet::Empty(), 1, 2));
  EXPECT_TRUE(v.IsBidiOrderCompatible(AttributeSet::Single(0), 1, 2));
}

TEST(BidiValidatorTest, MixedDirectionListOd) {
  // Sorting by [a asc, b desc] orders [c asc]: c = a*10 - b.
  auto t = ReadCsvString("a,b,c\n1,2,8\n1,1,9\n2,2,18\n2,1,19\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  OdValidator v(&rel);
  EXPECT_TRUE(v.Holds(BidirectionalListOd{{Asc(0), Desc(1)}, {Asc(2)}}));
  EXPECT_FALSE(v.Holds(BidirectionalListOd{{Asc(0), Asc(1)}, {Asc(2)}}));
}

TEST(BidiDiscoveryTest, FindsAntiCorrelatedPair) {
  // ncvoter's age/birth_year: invisible to ascending-only discovery,
  // found by the bidirectional extension.
  Table t = GenNcvoterLike(300, 8, 5);
  EncodedRelation rel = Encode(t);
  int age = *t.schema().IndexOf("age");
  int birth_year = *t.schema().IndexOf("birth_year");

  FastodResult plain = Fastod().Discover(rel);
  auto in_plain =
      std::find_if(plain.compatibility_ods.begin(),
                   plain.compatibility_ods.end(),
                   [&](const CompatibilityOd& od) {
                     return od.context.IsEmpty() &&
                            od == CompatibilityOd(od.context, age,
                                                  birth_year);
                   });
  EXPECT_EQ(in_plain, plain.compatibility_ods.end());

  FastodOptions opt;
  opt.discover_bidirectional = true;
  FastodResult bidi = Fastod(opt).Discover(rel);
  EXPECT_TRUE(std::find(bidi.bidirectional_ods.begin(),
                        bidi.bidirectional_ods.end(),
                        BidiCompatibilityOd(AttributeSet::Empty(), age,
                                            birth_year)) !=
              bidi.bidirectional_ods.end());
}

TEST(BidiDiscoveryTest, AscendingPreferredOverOpposite) {
  // A pair compatible in both polarities (e.g. constant b within classes)
  // must be reported ascending, not bidirectional.
  auto t = ReadCsvString("a,b\n1,5\n2,5\n3,5\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  FastodOptions opt;
  opt.discover_bidirectional = true;
  FastodResult r = Fastod(opt).Discover(rel);
  EXPECT_TRUE(r.bidirectional_ods.empty());
}

TEST(BidiDiscoveryTest, OffByDefault) {
  auto t = ReadCsvString("a,b\n1,9\n2,8\n3,7\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  FastodResult r = Fastod().Discover(rel);
  EXPECT_TRUE(r.bidirectional_ods.empty());
  EXPECT_EQ(r.num_bidirectional, 0);
}

TEST(BidiDiscoveryTest, ConstancySideUnchanged) {
  // The FD side never depends on the polarity extension. (The ascending
  // OCD side *can* shrink: a pair resolved descending at a small context
  // is not re-reported ascending higher up — pinned by the oracle test
  // below.)
  Table t = GenRandomTable(30, 4, 3, 314);
  EncodedRelation rel = Encode(t);
  FastodResult plain = Fastod().Discover(rel);
  FastodOptions opt;
  opt.discover_bidirectional = true;
  FastodResult bidi = Fastod(opt).Discover(rel);
  EXPECT_EQ(plain.num_constancy, bidi.num_constancy);
}

TEST(BidiDiscoveryTest, EmittedBidiOdsAreValidAndNonTrivial) {
  Table t = GenRandomTable(40, 5, 4, 2718);
  EncodedRelation rel = Encode(t);
  FastodOptions opt;
  opt.discover_bidirectional = true;
  FastodResult r = Fastod(opt).Discover(rel);
  for (const BidiCompatibilityOd& od : r.bidirectional_ods) {
    EXPECT_FALSE(od.IsTrivial()) << od.ToString();
    EXPECT_TRUE(BruteIsBidiOrderCompatible(rel, od.context, od.a, od.b))
        << od.ToString();
    // The ascending polarity must have failed at this context (otherwise
    // the pair would be ascending-reported).
    EXPECT_FALSE(BruteIsOrderCompatible(rel, od.context, od.a, od.b))
        << od.ToString();
  }
}

// Oracle test: bidirectional discovery must match the exhaustive oracle
// (either-polarity minimality, ascending preference) OD-for-OD.
class BidiOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BidiOracleTest, MatchesBruteForceOracle) {
  Table t = GenRandomTable(22, 4, 3, GetParam());
  EncodedRelation rel = Encode(t);
  FastodOptions opt;
  opt.discover_bidirectional = true;
  FastodResult got = Fastod(opt).Discover(rel);
  BruteForceDiscoveryResult want = BruteForceDiscoverOds(
      rel, /*max_error=*/0.0, /*discover_bidirectional=*/true);

  auto sort_c = [](std::vector<ConstancyOd> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  auto sort_p = [](std::vector<CompatibilityOd> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  auto sort_b = [](std::vector<BidiCompatibilityOd> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sort_c(got.constancy_ods), sort_c(want.constancy_ods));
  EXPECT_EQ(sort_p(got.compatibility_ods),
            sort_p(want.compatibility_ods));
  EXPECT_EQ(sort_b(got.bidirectional_ods),
            sort_b(want.bidirectional_ods));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BidiOracleTest,
                         ::testing::Values(601, 602, 603, 604, 605, 606,
                                           607, 608));

// Property: directed swap checks agree with brute force in both polarities
// and both strategies.
class BidiPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BidiPropertyTest, DirectedCheckerMatchesBruteForce) {
  Table t = GenRandomTable(25, 4, 3, GetParam());
  EncodedRelation rel = Encode(t);
  SortedPartitions sorted(rel);
  for (SwapCheckMethod method :
       {SwapCheckMethod::kSortBased, SwapCheckMethod::kTauBased}) {
    SwapChecker checker(&rel, &sorted, method);
    for (uint64_t mask = 0; mask < 4; ++mask) {  // contexts over attrs 0-1
      AttributeSet context(mask);
      StrippedPartition partition;
      if (context.IsEmpty()) {
        partition = StrippedPartition::Universe(rel.NumRows());
      } else {
        std::vector<const CodeColumn*> columns;
        for (int a = context.First(); a >= 0; a = context.Next(a)) {
          columns.push_back(&rel.codes(a));
        }
        partition =
            StrippedPartition::FromCodeColumns(columns, rel.NumRows());
      }
      for (int a = 2; a < 4; ++a) {
        for (int b = 2; b < 4; ++b) {
          if (a == b) continue;
          EXPECT_EQ(
              checker.IsOrderCompatibleDirected(partition, a, b, true),
              BruteIsBidiOrderCompatible(rel, context, a, b))
              << "ctx=" << mask << " a=" << a << " b=" << b;
        }
      }
    }
  }
}

TEST_P(BidiPropertyTest, OppositeEqualsAscendingOnNegatedColumn) {
  // Negating a column turns descending compatibility into ascending.
  Table t = GenRandomTable(30, 3, 5, GetParam() + 31);
  TableBuilder b(t.schema());
  for (int64_t r = 0; r < t.NumRows(); ++r) {
    b.AddRowUnchecked({t.at(r, 0), t.at(r, 1),
                       Value::Int(-t.at(r, 2).AsInt())});
  }
  Table negated = b.Build();
  EncodedRelation rel = Encode(t);
  EncodedRelation neg = Encode(negated);
  for (uint64_t mask = 0; mask < 2; ++mask) {
    AttributeSet ctx(mask);
    EXPECT_EQ(BruteIsBidiOrderCompatible(rel, ctx, 1, 2),
              BruteIsOrderCompatible(neg, ctx, 1, 2));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BidiPropertyTest,
                         ::testing::Values(41, 43, 47, 53, 59, 61));

}  // namespace
}  // namespace fastod
