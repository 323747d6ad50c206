#include <gtest/gtest.h>

#include <algorithm>

#include "data/csv.h"
#include "data/encode.h"
#include "gen/generators.h"
#include "validate/violation_scanner.h"
#include "test_util.h"

namespace fastod {
namespace {

class EmployeeViolationTest : public ::testing::Test {
 protected:
  EmployeeViolationTest()
      : table_(EmployeeTaxTable()), rel_(Encode(table_)), scanner_(&rel_) {}

  int Col(const std::string& name) {
    auto idx = table_.schema().IndexOf(name);
    EXPECT_TRUE(idx.ok());
    return *idx;
  }

  Table table_;
  EncodedRelation rel_;
  ViolationScanner scanner_;
};

TEST_F(EmployeeViolationTest, PaperExample3ThreePositionSplits) {
  // Example 3: three splits w.r.t. [position] ↦ [position, salary]
  // (pairs t1/t4, t2/t5, t3/t6 — 0-based: 0/3, 1/4, 2/5).
  auto violations = scanner_.ScanConstancy(
      AttributeSet::Single(Col("posit")), Col("sal"));
  ASSERT_EQ(violations.size(), 3u);
  for (const Violation& v : violations) {
    EXPECT_EQ(v.kind, ViolationKind::kSplit);
    EXPECT_EQ(v.tuple_t - v.tuple_s, 3);  // paired across the two years
  }
}

TEST_F(EmployeeViolationTest, PaperExample3SalarySubgroupSwap) {
  auto violations = scanner_.ScanCompatibility(AttributeSet::Empty(),
                                               Col("sal"), Col("subg"));
  EXPECT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].kind, ViolationKind::kSwap);
}

TEST_F(EmployeeViolationTest, CleanOdHasNoViolations) {
  EXPECT_TRUE(scanner_
                  .ScanCompatibility(AttributeSet::Empty(), Col("sal"),
                                     Col("tax"))
                  .empty());
  EXPECT_TRUE(scanner_
                  .ScanConstancy(AttributeSet::Single(Col("posit")),
                                 Col("bin"))
                  .empty());
}

TEST_F(EmployeeViolationTest, ListOdScanDeduplicatesPairs) {
  // [position] ↦ [salary] violates via splits; the canonical image has
  // several pieces but pairs are reported once.
  auto violations =
      scanner_.Scan(ListOd{{Col("posit")}, {Col("sal")}});
  std::vector<std::pair<int64_t, int64_t>> pairs;
  for (const Violation& v : violations) {
    auto mm = std::minmax(v.tuple_s, v.tuple_t);
    pairs.push_back({mm.first, mm.second});
  }
  std::sort(pairs.begin(), pairs.end());
  EXPECT_TRUE(std::adjacent_find(pairs.begin(), pairs.end()) == pairs.end());
}

TEST(ViolationScannerTest, MaxViolationsCapsOutput) {
  // A column pair swapping everywhere produces ~n^2 candidate pairs; the
  // scanner must respect the cap.
  auto t = ReadCsvString("a,b\n1,9\n2,8\n3,7\n4,6\n5,5\n6,4\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  ViolationScanner scanner(&rel);
  ScanOptions opt;
  opt.max_violations = 2;
  auto v = scanner.ScanCompatibility(AttributeSet::Empty(), 0, 1, opt);
  EXPECT_EQ(v.size(), 2u);
}

TEST(ViolationScannerTest, TupleCountsAccumulate) {
  auto t = ReadCsvString("a,b\n1,2\n1,3\n1,4\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  ViolationScanner scanner(&rel);
  // a constant -> b must be constant for {}: []->b ... it is not: splits
  // against tuple 0.
  auto v = scanner.ScanConstancy(AttributeSet::Single(0), 1);
  ASSERT_EQ(v.size(), 2u);
  auto counts = scanner.TupleViolationCounts(v);
  EXPECT_EQ(counts[0], 2);  // participates in both pairs
  EXPECT_EQ(counts[1], 1);
  EXPECT_EQ(counts[2], 1);
}

TEST(ViolationScannerTest, ViolationToString) {
  Violation v{ViolationKind::kSwap, 3, 7};
  EXPECT_EQ(v.ToString(), "swap(t3, t7)");
  Violation s{ViolationKind::kSplit, 0, 1};
  EXPECT_EQ(s.ToString(), "split(t0, t1)");
}

// ---- Delta-limited scans (ScanOptions::delta_start) -----------------
// The incremental engine's phase 1: only equivalence classes touching a
// tuple at or past delta_start are scanned, which is exact when the
// prefix satisfied the dependency.

TEST(ViolationScannerDeltaTest, EmptyDeltaScansNothing) {
  // delta_start == NumRows: every class lives in the prefix, so even a
  // dependency the relation violates reports no violations — the caller
  // vouched for the prefix and there is no delta to blame.
  auto t = ReadCsvString("a,b\n1,10\n2,90\n3,40\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  ViolationScanner scanner(&rel);
  ASSERT_FALSE(
      scanner.ScanCompatibility(AttributeSet::Empty(), 0, 1).empty());
  ScanOptions options;
  options.delta_start = rel.NumRows();
  EXPECT_TRUE(
      scanner.ScanCompatibility(AttributeSet::Empty(), 0, 1, options)
          .empty());
  EXPECT_TRUE(scanner.ScanConstancy(AttributeSet::Single(0), 1, options)
                  .empty());
}

TEST(ViolationScannerDeltaTest, SingleRowAppendFindsItsViolation) {
  // Prefix rows 0..3 satisfy a ~ b; appended row 4 swaps against row 3.
  auto t = ReadCsvString("a,b\n1,10\n2,20\n3,30\n4,40\n5,35\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  ViolationScanner scanner(&rel);
  ScanOptions options;
  options.delta_start = 4;
  auto violations =
      scanner.ScanCompatibility(AttributeSet::Empty(), 0, 1, options);
  ASSERT_FALSE(violations.empty());
  // Every reported pair implicates the appended tuple's class.
  for (const Violation& v : violations) {
    EXPECT_TRUE(v.tuple_s == 4 || v.tuple_t == 4) << v.ToString();
  }
}

TEST(ViolationScannerDeltaTest, AppendDuplicatingExistingKeyRow) {
  // Row 4 duplicates row 1's key (a=2) with a conflicting b: its class
  // gains a delta tuple, so the delta-limited constancy scan must fire
  // even though the conflicting partner row is in the prefix.
  auto t = ReadCsvString("a,b\n1,10\n2,20\n3,30\n4,40\n2,25\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  ViolationScanner scanner(&rel);
  ScanOptions options;
  options.delta_start = 4;
  auto violations =
      scanner.ScanConstancy(AttributeSet::Single(0), 1, options);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].kind, ViolationKind::kSplit);
  // An exact duplicate of an existing row, by contrast, breaks nothing.
  auto dup = ReadCsvString("a,b\n1,10\n2,20\n3,30\n4,40\n2,20\n");
  ASSERT_TRUE(dup.ok());
  EncodedRelation dup_rel = Encode(*dup);
  ViolationScanner dup_scanner(&dup_rel);
  EXPECT_TRUE(dup_scanner.ScanConstancy(AttributeSet::Single(0), 1, options)
                  .empty());
  EXPECT_TRUE(
      dup_scanner.ScanCompatibility(AttributeSet::Empty(), 0, 1, options)
          .empty());
}

TEST(ViolationScannerDeltaTest, AllEqualColumnAppendStaysConstant) {
  // Appending rows that repeat a constant column's single value keeps
  // [] -> b violation-free; appending a second value breaks it and the
  // delta-limited scan sees it (the single class contains delta rows).
  auto same = ReadCsvString("a,b\n1,7\n2,7\n3,7\n4,7\n");
  ASSERT_TRUE(same.ok());
  EncodedRelation same_rel = Encode(*same);
  ViolationScanner same_scanner(&same_rel);
  ScanOptions options;
  options.delta_start = 3;
  EXPECT_TRUE(same_scanner.ScanConstancy(AttributeSet::Empty(), 1, options)
                  .empty());

  auto broken = ReadCsvString("a,b\n1,7\n2,7\n3,7\n4,9\n");
  ASSERT_TRUE(broken.ok());
  EncodedRelation broken_rel = Encode(*broken);
  ViolationScanner broken_scanner(&broken_rel);
  EXPECT_FALSE(
      broken_scanner.ScanConstancy(AttributeSet::Empty(), 1, options)
          .empty());
}

TEST(ViolationScannerDeltaTest, DefaultDisablesTheFilter) {
  auto t = ReadCsvString("a,b\n1,10\n2,90\n3,40\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  ViolationScanner scanner(&rel);
  ScanOptions options;  // delta_start = -1
  EXPECT_FALSE(
      scanner.ScanCompatibility(AttributeSet::Empty(), 0, 1, options)
          .empty());
}

TEST(ViolationScannerTest, InjectedErrorIsLocated) {
  // Clean monotone data plus one corrupted row: the scanner should
  // implicate the corrupted tuple most often.
  auto t = ReadCsvString("a,b\n1,10\n2,20\n3,90\n4,40\n5,50\n");
  ASSERT_TRUE(t.ok());  // row 2 (b=90) breaks a ~ b against rows 3 and 4
  EncodedRelation rel = Encode(*t);
  ViolationScanner scanner(&rel);
  auto v = scanner.ScanCompatibility(AttributeSet::Empty(), 0, 1);
  ASSERT_FALSE(v.empty());
  auto counts = scanner.TupleViolationCounts(v);
  int64_t dirtiest =
      std::max_element(counts.begin(), counts.end()) - counts.begin();
  EXPECT_EQ(dirtiest, 2);
}

}  // namespace
}  // namespace fastod
