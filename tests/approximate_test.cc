#include <gtest/gtest.h>

#include <algorithm>

#include "algo/approximate.h"
#include "algo/brute_force_discovery.h"
#include "algo/fastod.h"
#include "data/csv.h"
#include "data/encode.h"
#include "gen/random_table.h"
#include "validate/brute_force.h"
#include "test_util.h"

namespace fastod {
namespace {

StrippedPartition ContextOf(const EncodedRelation& rel, AttributeSet ctx) {
  if (ctx.IsEmpty()) return StrippedPartition::Universe(rel.NumRows());
  std::vector<const CodeColumn*> columns;
  for (int a = ctx.First(); a >= 0; a = ctx.Next(a)) {
    columns.push_back(&rel.codes(a));
  }
  return StrippedPartition::FromCodeColumns(columns, rel.NumRows());
}

TEST(ApproximateTest, ConstancyRemovalsCountMinorityValues) {
  // b within the single class: 5x value 1, 2x value 2 -> remove 2.
  auto t = ReadCsvString("b\n1\n1\n2\n1\n1\n2\n1\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  StrippedPartition universe = StrippedPartition::Universe(rel.NumRows());
  EXPECT_EQ(ConstancyRemovals(rel, universe, 0), 2);
  EXPECT_DOUBLE_EQ(ConstancyError(rel, universe, 0), 2.0 / 7.0);
}

TEST(ApproximateTest, ConstancyRemovalsZeroWhenExact) {
  auto t = ReadCsvString("a,b\n1,9\n1,9\n2,4\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  EXPECT_EQ(ConstancyRemovals(rel, ContextOf(rel, AttributeSet::Single(0)),
                              1),
            0);
}

TEST(ApproximateTest, CompatibilityRemovalsSingleOutlier) {
  // a ascending, b = 10,20,90,40,50: dropping the 90 yields swap-free.
  auto t = ReadCsvString("a,b\n1,10\n2,20\n3,90\n4,40\n5,50\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  StrippedPartition universe = StrippedPartition::Universe(rel.NumRows());
  EXPECT_EQ(CompatibilityRemovals(rel, universe, 0, 1), 1);
  EXPECT_DOUBLE_EQ(CompatibilityError(rel, universe, 0, 1), 0.2);
}

TEST(ApproximateTest, CompatibilityRemovalsRespectTies) {
  // Equal a values never swap; reversed b inside a tie costs nothing.
  auto t = ReadCsvString("a,b\n1,5\n1,1\n2,6\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  StrippedPartition universe = StrippedPartition::Universe(rel.NumRows());
  EXPECT_EQ(CompatibilityRemovals(rel, universe, 0, 1), 0);
}

TEST(ApproximateTest, CompatibilityFullReversal) {
  // b strictly decreasing in a: keep only one tuple (LNDS length 1)...
  // actually keep the longest non-decreasing subsequence, length 1.
  auto t = ReadCsvString("a,b\n1,4\n2,3\n3,2\n4,1\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  StrippedPartition universe = StrippedPartition::Universe(rel.NumRows());
  EXPECT_EQ(CompatibilityRemovals(rel, universe, 0, 1), 3);
}

TEST(ApproximateTest, CanonicalOdErrorDispatch) {
  auto t = ReadCsvString("a,b\n1,2\n1,3\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  CanonicalOd fd = ConstancyOd{AttributeSet::Single(0), 1};
  EXPECT_DOUBLE_EQ(CanonicalOdError(rel, fd), 0.5);
  CanonicalOd ocd = CompatibilityOd(AttributeSet::Empty(), 0, 1);
  EXPECT_DOUBLE_EQ(CanonicalOdError(rel, ocd), 0.0);
}

TEST(ApproximateTest, EmptyRelationHasZeroError) {
  TableBuilder b(Schema({{"a", DataType::kInt}, {"b", DataType::kInt}}));
  EncodedRelation rel = Encode(b.Build());
  CanonicalOd od = CompatibilityOd(AttributeSet::Empty(), 0, 1);
  EXPECT_DOUBLE_EQ(CanonicalOdError(rel, od), 0.0);
}

// Property: the removal count certifies a valid repair — the error is 0
// iff the exact OD holds.
class ApproximatePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ApproximatePropertyTest, ZeroErrorIffExact) {
  Table t = GenRandomTable(25, 4, 3, GetParam());
  EncodedRelation rel = Encode(t);
  for (uint64_t mask = 0; mask < 8; ++mask) {
    AttributeSet ctx(mask);
    StrippedPartition partition = ContextOf(rel, ctx);
    for (int a = 0; a < 4; ++a) {
      if (ctx.Contains(a)) continue;
      EXPECT_EQ(ConstancyRemovals(rel, partition, a) == 0,
                BruteIsConstant(rel, ctx, a));
      for (int b = a + 1; b < 4; ++b) {
        if (ctx.Contains(b)) continue;
        EXPECT_EQ(CompatibilityRemovals(rel, partition, a, b) == 0,
                  BruteIsOrderCompatible(rel, ctx, a, b));
      }
    }
  }
}

TEST_P(ApproximatePropertyTest, ErrorIsMonotoneInContext) {
  Table t = GenRandomTable(30, 4, 4, GetParam() + 50);
  EncodedRelation rel = Encode(t);
  // Growing the context can only lower the error (refined classes).
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) {
      double base = CompatibilityError(
          rel, ContextOf(rel, AttributeSet::Empty()), a, b);
      for (int z = 0; z < 4; ++z) {
        if (z == a || z == b) continue;
        double refined = CompatibilityError(
            rel, ContextOf(rel, AttributeSet::Single(z)), a, b);
        EXPECT_LE(refined, base + 1e-12);
      }
    }
  }
}

TEST_P(ApproximatePropertyTest, CompatibilityRemovalsMatchExhaustive) {
  // Exhaustive check on tiny classes: the LNDS-based removal count equals
  // the true minimum subset removal (over all 2^n subsets).
  Table t = GenRandomTable(10, 2, 4, GetParam() + 99);
  EncodedRelation rel = Encode(t);
  StrippedPartition universe = StrippedPartition::Universe(rel.NumRows());
  int64_t got = CompatibilityRemovals(rel, universe, 0, 1);

  const int64_t n = rel.NumRows();
  int64_t best_kept = 0;
  for (uint64_t keep = 0; keep < (uint64_t{1} << n); ++keep) {
    bool swap_free = true;
    for (int64_t i = 0; i < n && swap_free; ++i) {
      if (!(keep & (uint64_t{1} << i))) continue;
      for (int64_t j = 0; j < n && swap_free; ++j) {
        if (!(keep & (uint64_t{1} << j))) continue;
        if (rel.rank(i, 0) < rel.rank(j, 0) &&
            rel.rank(j, 1) < rel.rank(i, 1)) {
          swap_free = false;
        }
      }
    }
    if (swap_free) {
      best_kept = std::max<int64_t>(best_kept, __builtin_popcountll(keep));
    }
  }
  EXPECT_EQ(got, n - best_kept);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApproximatePropertyTest,
                         ::testing::Values(3, 6, 9, 12, 15, 18));

// Oracle test: approximate FASTOD must equal the exhaustive approximate
// oracle OD-for-OD (completeness + minimality under threshold validity).
class ApproximateOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ApproximateOracleTest, MatchesBruteForceAtVariousThresholds) {
  Table t = GenRandomTable(25, 4, 3, GetParam());
  EncodedRelation rel = Encode(t);
  for (double eps : {0.05, 0.15, 0.4}) {
    FastodOptions opt;
    opt.max_error = eps;
    FastodResult got = Fastod(opt).Discover(rel);
    BruteForceDiscoveryResult want = BruteForceDiscoverOds(rel, eps);
    std::vector<ConstancyOd> got_c = got.constancy_ods;
    std::vector<ConstancyOd> want_c = want.constancy_ods;
    std::sort(got_c.begin(), got_c.end());
    std::sort(want_c.begin(), want_c.end());
    EXPECT_EQ(got_c, want_c) << "eps=" << eps;
    std::vector<CompatibilityOd> got_p = got.compatibility_ods;
    std::vector<CompatibilityOd> want_p = want.compatibility_ods;
    std::sort(got_p.begin(), got_p.end());
    std::sort(want_p.begin(), want_p.end());
    EXPECT_EQ(got_p, want_p) << "eps=" << eps;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApproximateOracleTest,
                         ::testing::Values(71, 72, 73, 74, 75));

TEST(ApproximateDiscoveryTest, ThresholdZeroEqualsExact) {
  Table t = GenRandomTable(30, 4, 3, 2024);
  EncodedRelation rel = Encode(t);
  FastodResult exact = Fastod().Discover(rel);
  FastodOptions opt;
  opt.max_error = 0.0;  // explicit zero = exact path
  FastodResult approx = Fastod(opt).Discover(rel);
  EXPECT_EQ(exact.num_constancy, approx.num_constancy);
  EXPECT_EQ(exact.num_compatibility, approx.num_compatibility);
}

TEST(ApproximateDiscoveryTest, SmallThresholdToleratesInjectedNoise) {
  // A clean FD a -> b with one corrupted row out of 50: exact discovery
  // loses the context-{a} FD, approximate with 5% threshold keeps it.
  TableBuilder b(Schema({{"a", DataType::kInt}, {"b", DataType::kInt}}));
  for (int i = 0; i < 50; ++i) {
    int corrupt = (i == 17) ? 999 : 0;
    ASSERT_TRUE(
        b.AddRow({Value::Int(i % 10), Value::Int(i % 10 + corrupt)}).ok());
  }
  Table t = b.Build();
  EncodedRelation rel = Encode(t);

  FastodResult exact = Fastod().Discover(rel);
  bool exact_has = std::find(exact.constancy_ods.begin(),
                             exact.constancy_ods.end(),
                             ConstancyOd{AttributeSet::Single(0), 1}) !=
                   exact.constancy_ods.end();
  EXPECT_FALSE(exact_has);

  FastodOptions opt;
  opt.max_error = 0.05;
  FastodResult approx = Fastod(opt).Discover(rel);
  bool approx_has = std::find(approx.constancy_ods.begin(),
                              approx.constancy_ods.end(),
                              ConstancyOd{AttributeSet::Single(0), 1}) !=
                    approx.constancy_ods.end();
  EXPECT_TRUE(approx_has);
}

TEST(ApproximateDiscoveryTest, ThresholdOneAcceptsEverythingAtLevelOne) {
  // With ε = 1 every OD "holds", so the minimal set collapses to
  // {}: [] -> A per attribute.
  Table t = GenRandomTable(20, 3, 4, 11);
  EncodedRelation rel = Encode(t);
  FastodOptions opt;
  opt.max_error = 1.0;
  FastodResult r = Fastod(opt).Discover(rel);
  EXPECT_EQ(r.num_constancy, 3);
  EXPECT_EQ(r.num_compatibility, 0);
}

TEST(ApproximateDiscoveryTest, EveryApproximateOdMeetsTheThreshold) {
  Table t = GenRandomTable(40, 4, 4, 7777);
  EncodedRelation rel = Encode(t);
  FastodOptions opt;
  opt.max_error = 0.1;
  FastodResult r = Fastod(opt).Discover(rel);
  for (const ConstancyOd& od : r.constancy_ods) {
    EXPECT_LE(CanonicalOdError(rel, od), 0.1 + 1e-12) << od.ToString();
  }
  for (const CompatibilityOd& od : r.compatibility_ods) {
    EXPECT_LE(CanonicalOdError(rel, od), 0.1 + 1e-12) << od.ToString();
  }
}

}  // namespace
}  // namespace fastod
