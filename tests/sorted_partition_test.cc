#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/csv.h"
#include "data/encode.h"
#include "gen/random_table.h"
#include "partition/sorted_partition.h"
#include "validate/brute_force.h"
#include "test_util.h"

namespace fastod {
namespace {

// Two integer columns a,b with one row per index.
EncodedRelation EncodeColumns(const std::vector<int>& a,
                              const std::vector<int>& b) {
  std::string csv = "a,b\n";
  for (size_t i = 0; i < a.size(); ++i) {
    csv += std::to_string(a[i]) + "," + std::to_string(b[i]) + "\n";
  }
  auto t = ReadCsvString(csv);
  EXPECT_TRUE(t.ok());
  return Encode(*t);
}

// a = b = 0..n-1: one context class (the universe) with no swap.
EncodedRelation Identity(int n) {
  std::vector<int> a(n);
  for (int i = 0; i < n; ++i) a[i] = i;
  return EncodeColumns(a, a);
}

// a = 0..n-1, b = n-1..0: every pair of the one class swaps.
EncodedRelation Reversed(int n) {
  std::vector<int> a(n), b(n);
  for (int i = 0; i < n; ++i) {
    a[i] = i;
    b[i] = n - 1 - i;
  }
  return EncodeColumns(a, b);
}

TEST(SortedPartitionsTest, TupleOrderSortsByRankThenId) {
  auto t = ReadCsvString("a\n3\n1\n2\n1\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  SortedPartitions sorted(rel);
  // values 3,1,2,1 -> ascending: rows 1,3 (value 1), 2, 0.
  EXPECT_EQ(sorted.TupleOrder(0), (std::vector<int32_t>{1, 3, 2, 0}));
}

// τ orders are built on first use; threads asking for them at once, each
// in its own attribute order, all get the order an eager stable sort by
// rank (ties by tuple id) gives.
TEST(SortedPartitionsTest, ConcurrentFirstUseBuildsEachOrderOnce) {
  Table t = GenRandomTable(3000, 6, 40, 17);
  EncodedRelation rel = Encode(t);
  std::vector<std::vector<int32_t>> expected(rel.NumAttributes());
  for (int a = 0; a < rel.NumAttributes(); ++a) {
    expected[a].resize(rel.NumRows());
    std::iota(expected[a].begin(), expected[a].end(), 0);
    std::stable_sort(expected[a].begin(), expected[a].end(),
                     [&](int32_t s, int32_t u) {
                       return rel.rank(s, a) < rel.rank(u, a);
                     });
  }
  SortedPartitions sorted(rel);
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] {
      for (int k = 0; k < rel.NumAttributes(); ++k) {
        const int a = (k + i) % rel.NumAttributes();
        EXPECT_EQ(sorted.TupleOrder(a), expected[a])
            << "thread " << i << " attr " << a;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

TEST(SwapCheckerTest, DetectsSimpleSwap) {
  // A: 1,2  B: 2,1 within one class -> swap.
  auto t = ReadCsvString("a,b\n1,2\n2,1\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  SortedPartitions sorted(rel);
  SwapChecker checker(&rel, &sorted, SwapCheckMethod::kSortBased);
  StrippedPartition universe = StrippedPartition::Universe(2);
  EXPECT_FALSE(checker.IsOrderCompatible(universe, 0, 1));
}

TEST(SwapCheckerTest, TiesOnADoNotConstrain) {
  // Equal A values with opposite B order: no swap (needs strict A order).
  auto t = ReadCsvString("a,b\n1,2\n1,1\n2,3\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  SortedPartitions sorted(rel);
  SwapChecker checker(&rel, &sorted, SwapCheckMethod::kSortBased);
  StrippedPartition universe = StrippedPartition::Universe(3);
  EXPECT_TRUE(checker.IsOrderCompatible(universe, 0, 1));
}

TEST(SwapCheckerTest, SwapHiddenAcrossGroups) {
  // A groups: {1,1},{2}; B max of group 1 is 5, group 2 has 4 -> swap.
  auto t = ReadCsvString("a,b\n1,5\n1,1\n2,4\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  SortedPartitions sorted(rel);
  SwapChecker checker(&rel, &sorted, SwapCheckMethod::kTauBased);
  StrippedPartition universe = StrippedPartition::Universe(3);
  EXPECT_FALSE(checker.IsOrderCompatible(universe, 0, 1));
}

TEST(SwapCheckerTest, ContextSeparatesClasses) {
  // Within ctx classes {rows 0,1} and {rows 2,3} orders agree; across
  // classes they would swap, but context isolation makes it compatible.
  auto t = ReadCsvString("ctx,a,b\n1,1,10\n1,2,20\n2,1,2\n2,2,3\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  SortedPartitions sorted(rel);
  SwapChecker checker(&rel, &sorted, SwapCheckMethod::kSortBased);
  StrippedPartition ctx = StrippedPartition::ForAttribute(rel.codes(0));
  EXPECT_TRUE(checker.IsOrderCompatible(ctx, 1, 2));
}

TEST(SwapCheckerTest, MethodCountersTrackUsage) {
  auto t = ReadCsvString("a,b\n1,1\n2,2\n3,3\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  SortedPartitions sorted(rel);
  SwapChecker tau(&rel, &sorted, SwapCheckMethod::kTauBased);
  SwapChecker srt(&rel, &sorted, SwapCheckMethod::kSortBased);
  StrippedPartition universe = StrippedPartition::Universe(3);
  tau.IsOrderCompatible(universe, 0, 1);
  srt.IsOrderCompatible(universe, 0, 1);
  EXPECT_EQ(tau.num_tau_checks(), 1);
  EXPECT_EQ(tau.num_sort_checks(), 0);
  EXPECT_EQ(srt.num_sort_checks(), 1);
  EXPECT_EQ(srt.num_tau_checks(), 0);
}

TEST(SwapCheckerTest, WithoutTauOrdersFallsBackToSort) {
  // Larger than the witness sample, so kAuto needs a full scan.
  EncodedRelation rel = Identity(1000);
  SwapChecker checker(&rel, nullptr, SwapCheckMethod::kAuto);
  StrippedPartition universe = StrippedPartition::Universe(rel.NumRows());
  EXPECT_TRUE(checker.IsOrderCompatible(universe, 0, 1));
  EXPECT_EQ(checker.num_sort_checks(), 1);
  EXPECT_EQ(checker.num_tau_checks(), 0);
}

TEST(SwapCheckerTest, SwapOutsideTheSampleFallsThroughToFullScan) {
  // One 5,000-tuple class whose only swap is its last two tuples. The
  // strided sample's last position is floor(63·5000/64) = 4921 (k = 64), so the
  // sample sees no swap and the τ scan must find it.
  constexpr int n = 5000;
  constexpr int k = SwapChecker::kSamplePerClass;
  static_assert((k - 1) * n / k < n - 2);
  std::vector<int> a(n), b(n);
  for (int i = 0; i < n; ++i) a[i] = b[i] = i;
  std::swap(b[n - 2], b[n - 1]);
  EncodedRelation rel = EncodeColumns(a, b);
  SortedPartitions sorted(rel);
  SwapChecker checker(&rel, &sorted, SwapCheckMethod::kAuto);
  StrippedPartition universe = StrippedPartition::Universe(n);
  EXPECT_FALSE(checker.IsOrderCompatible(universe, 0, 1));
  EXPECT_EQ(checker.num_sample_refutes(), 0);
  EXPECT_EQ(checker.num_tau_checks(), 1);
  EXPECT_EQ(checker.num_sort_checks(), 0);
}

TEST(SwapCheckerTest, SampledSwapRefutesWithoutFullScan) {
  EncodedRelation rel = Reversed(5000);
  SortedPartitions sorted(rel);
  SwapChecker checker(&rel, &sorted, SwapCheckMethod::kAuto);
  StrippedPartition universe = StrippedPartition::Universe(rel.NumRows());
  EXPECT_FALSE(checker.IsOrderCompatible(universe, 0, 1));
  EXPECT_EQ(checker.num_sample_refutes(), 1);
  EXPECT_EQ(checker.num_full_scans(), 0);
  // The opposite polarity holds: b descends exactly as a ascends. The
  // sample cannot settle it (5,000 > 256 tuples), so τ decides.
  EXPECT_TRUE(checker.IsOrderCompatibleDirected(universe, 0, 1,
                                                /*opposite=*/true));
  EXPECT_EQ(checker.num_sample_refutes(), 1);
  EXPECT_EQ(checker.num_tau_checks(), 1);
}

TEST(SwapCheckerTest, CompleteSampleSettlesSmallContexts) {
  EncodedRelation rel = Identity(3);
  SortedPartitions sorted(rel);
  SwapChecker checker(&rel, &sorted, SwapCheckMethod::kAuto);
  StrippedPartition universe = StrippedPartition::Universe(rel.NumRows());
  EXPECT_TRUE(checker.IsOrderCompatible(universe, 0, 1));
  EXPECT_FALSE(checker.IsOrderCompatibleDirected(universe, 0, 1,
                                                 /*opposite=*/true));
  EXPECT_EQ(checker.num_full_scans(), 0);
  EXPECT_EQ(checker.num_sample_refutes(), 1);  // the opposite polarity
  // A superkey context (no classes) is complete with an empty sample.
  StrippedPartition key = StrippedPartition::ForAttribute(rel.codes(0));
  ASSERT_TRUE(key.IsSuperkey());
  EXPECT_TRUE(checker.IsOrderCompatible(key, 0, 1));
  EXPECT_EQ(checker.num_full_scans(), 0);
}

TEST(SwapCheckerTest, ExplicitMethodsNeverUseTheSample) {
  EncodedRelation rel = Reversed(5000);
  SortedPartitions sorted(rel);
  StrippedPartition universe = StrippedPartition::Universe(rel.NumRows());
  for (SwapCheckMethod method :
       {SwapCheckMethod::kSortBased, SwapCheckMethod::kTauBased}) {
    SwapChecker checker(&rel, &sorted, method);
    EXPECT_FALSE(checker.IsOrderCompatible(universe, 0, 1));
    EXPECT_TRUE(checker.IsOrderCompatibleDirected(universe, 0, 1,
                                                  /*opposite=*/true));
    EXPECT_EQ(checker.num_sample_refutes(), 0);
    EXPECT_EQ(checker.num_full_scans(), 2);
    EXPECT_EQ(method == SwapCheckMethod::kSortBased
                  ? checker.num_sort_checks()
                  : checker.num_tau_checks(),
              2);
  }
}

// Property: every swap-check method agrees with the brute-force
// definitional check on random tables, over random contexts and in both
// polarities. The 2,000-row low-cardinality tables have classes larger
// than the witness sample, so kAuto runs all three of its stages.
struct SwapParam {
  uint64_t seed;
  SwapCheckMethod method;
  int64_t rows = 30;
};

// Named by its fields, so the test names ctest discovers are the same in
// every build (the default printer dumps the struct's bytes, padding
// included).
// It also names the instances.
void PrintTo(const SwapParam& p, std::ostream* os) {
  const char* method = p.method == SwapCheckMethod::kAuto       ? "auto"
                       : p.method == SwapCheckMethod::kSortBased ? "sort"
                                                                 : "tau";
  *os << method << "_seed" << p.seed << "_rows" << p.rows;
}

class SwapCheckerPropertyTest : public ::testing::TestWithParam<SwapParam> {};

TEST_P(SwapCheckerPropertyTest, AgreesWithBruteForce) {
  Table t = GenRandomTable(GetParam().rows, 5, 4, GetParam().seed);
  EncodedRelation rel = Encode(t);
  SortedPartitions sorted(rel);
  SwapChecker checker(&rel, &sorted, GetParam().method);
  for (uint64_t mask = 0; mask < 8; ++mask) {  // contexts over attrs 0-2
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
    for (int a = 3; a < 5; ++a) {
      // A ~ A holds by definition, so on large classes it exercises the
      // full scan behind an inconclusive sample.
      EXPECT_TRUE(checker.IsOrderCompatible(partition, a, a));
      for (int b = 3; b < 5; ++b) {
        EXPECT_EQ(checker.IsOrderCompatible(partition, a, b),
                  BruteIsOrderCompatible(rel, context, a, b))
            << "mask=" << mask << " a=" << a << " b=" << b;
        EXPECT_EQ(checker.IsOrderCompatibleDirected(partition, a, b,
                                                    /*opposite=*/true),
                  BruteIsBidiOrderCompatible(rel, context, a, b))
            << "opposite mask=" << mask << " a=" << a << " b=" << b;
      }
    }
  }
  if (GetParam().method != SwapCheckMethod::kAuto) {
    EXPECT_EQ(checker.num_sample_refutes(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndMethods, SwapCheckerPropertyTest,
    ::testing::Values(SwapParam{101, SwapCheckMethod::kSortBased},
                      SwapParam{101, SwapCheckMethod::kTauBased},
                      SwapParam{202, SwapCheckMethod::kSortBased},
                      SwapParam{202, SwapCheckMethod::kTauBased},
                      SwapParam{303, SwapCheckMethod::kAuto},
                      SwapParam{404, SwapCheckMethod::kAuto},
                      SwapParam{505, SwapCheckMethod::kAuto, 2000},
                      SwapParam{606, SwapCheckMethod::kAuto, 2000},
                      SwapParam{707, SwapCheckMethod::kTauBased, 2000}),
    [](const ::testing::TestParamInfo<SwapParam>& info) {
      return ::testing::PrintToString(info.param);
    });

}  // namespace
}  // namespace fastod
