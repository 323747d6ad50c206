// Tests of the ORDER baseline, centered on Section 4.5 of the paper: ORDER
// is sound but *incomplete* — its candidate shape and aggressive pruning
// make it miss (a) constants, (b) ODs with repeated attributes across sides
// (embedded FDs), and (c) same-prefix ODs, all of which FASTOD finds.
#include <gtest/gtest.h>

#include <algorithm>

#include "algo/fastod.h"
#include "algo/order.h"
#include "data/csv.h"
#include "data/encode.h"
#include "gen/generators.h"
#include "gen/random_table.h"
#include "od/mapping.h"
#include "validate/brute_force.h"
#include "test_util.h"

namespace fastod {
namespace {

bool HasOd(const OrderResult& r, const ListOd& od) {
  return std::find(r.ods.begin(), r.ods.end(), od) != r.ods.end();
}

TEST(OrderTest, FindsSimpleOd) {
  // b strictly increases with a: [A] ↦ [B] and [B] ↦ [A].
  auto t = ReadCsvString("a,b\n1,10\n2,20\n3,30\n");
  ASSERT_TRUE(t.ok());
  OrderResult r = OrderBaseline().Discover(Encode(*t));
  EXPECT_TRUE(HasOd(r, ListOd{{0}, {1}}));
  EXPECT_TRUE(HasOd(r, ListOd{{1}, {0}}));
}

TEST(OrderTest, RejectsSwappedPair) {
  auto t = ReadCsvString("a,b\n1,20\n2,10\n");
  ASSERT_TRUE(t.ok());
  OrderResult r = OrderBaseline().Discover(Encode(*t));
  EXPECT_TRUE(r.ods.empty());
}

TEST(OrderTest, AllReportedOdsAreValid) {
  Table t = GenRandomTable(30, 4, 3, 12345);
  EncodedRelation rel = Encode(t);
  OrderResult r = OrderBaseline().Discover(rel);
  for (const ListOd& od : r.ods) {
    EXPECT_TRUE(BruteHolds(rel, od)) << od.ToString();
  }
}

TEST(OrderTest, MissesConstantColumns) {
  // Column a is constant: FASTOD reports {}: []->a; ORDER's candidate
  // shape (non-empty lhs, disjoint sides) cannot express it.
  auto t = ReadCsvString("a,b,c\n7,1,10\n7,2,20\n7,3,15\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  OrderResult order = OrderBaseline().Discover(rel);
  FastodResult fast = Fastod().Discover(rel);
  bool fastod_found_constant =
      std::find(fast.constancy_ods.begin(), fast.constancy_ods.end(),
                ConstancyOd{AttributeSet::Empty(), 0}) !=
      fast.constancy_ods.end();
  EXPECT_TRUE(fastod_found_constant);
  // Everything ORDER finds about column a keeps a on one side only, so the
  // constant-ness is representable only as b ↦ a etc. — derived facts that
  // FASTOD's canonical form renders redundant.
  for (const ListOd& od : order.ods) {
    EXPECT_FALSE(od.lhs.empty());
  }
}

TEST(OrderTest, MissesEmbeddedFdWhenCompatibilityFails) {
  // c determines d (FD), but c ~ d has swaps: the valid OD [C] ↦ [C,D]
  // (an embedded FD) exists while [C] ↦ [D] does not. ORDER generates
  // only disjoint-side candidates, so it cannot report it; FASTOD's
  // constancy side captures it as {c}: [] -> d.
  auto t = ReadCsvString("c,d\n1,20\n2,10\n3,30\n1,20\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  // Sanity: the embedded FD holds, the plain OD does not.
  EXPECT_TRUE(BruteHolds(rel, ListOd{{0}, {0, 1}}));
  EXPECT_FALSE(BruteHolds(rel, ListOd{{0}, {1}}));

  OrderResult order = OrderBaseline().Discover(rel);
  EXPECT_FALSE(HasOd(order, ListOd{{0}, {0, 1}}));

  FastodResult fast = Fastod().Discover(rel);
  EXPECT_TRUE(std::find(fast.constancy_ods.begin(),
                        fast.constancy_ods.end(),
                        ConstancyOd{AttributeSet::Single(0), 1}) !=
              fast.constancy_ods.end());
}

TEST(OrderTest, MissesOrderCompatibilityWhenFdFails) {
  // Example 2's shape: month ~ week holds but month does not determine
  // week. ORDER's split check kills [month] ↦ [week] and nothing in its
  // output captures the swap-freeness; FASTOD reports {}: month ~ week.
  auto t = ReadCsvString("m,w\n1,1\n1,2\n2,2\n2,3\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  EXPECT_TRUE(BruteIsOrderCompatible(rel, AttributeSet::Empty(), 0, 1));
  EXPECT_FALSE(BruteIsConstant(rel, AttributeSet::Single(0), 1));

  OrderResult order = OrderBaseline().Discover(rel);
  EXPECT_FALSE(HasOd(order, ListOd{{0}, {1}}));

  FastodResult fast = Fastod().Discover(rel);
  EXPECT_TRUE(std::find(fast.compatibility_ods.begin(),
                        fast.compatibility_ods.end(),
                        CompatibilityOd(AttributeSet::Empty(), 0, 1)) !=
              fast.compatibility_ods.end());
}

TEST(OrderTest, MinimalityDropsPrefixImpliedOds) {
  // If [A] ↦ [B] is valid then [A,C] ↦ [B] is implied and must not be
  // re-reported.
  auto t = ReadCsvString("a,b,c\n1,10,5\n2,20,4\n3,30,6\n");
  ASSERT_TRUE(t.ok());
  OrderResult r = OrderBaseline().Discover(Encode(*t));
  EXPECT_TRUE(HasOd(r, ListOd{{0}, {1}}));
  EXPECT_FALSE(HasOd(r, ListOd{{0, 2}, {1}}));
}

TEST(OrderTest, TimeoutFlagPropagates) {
  Table t = GenNcvoterLike(300, 14, 4);
  ExecutionControl control;
  ExpireDeadline(&control);
  OrderOptions opt;
  opt.control = &control;
  OrderResult r = OrderBaseline(opt).Discover(Encode(t));
  EXPECT_TRUE(r.timed_out);
}

TEST(OrderTest, MaxLevelBoundsListLength) {
  Table t = GenFlightLike(100, 6, 9);
  OrderOptions opt;
  opt.max_level = 3;
  OrderResult r = OrderBaseline(opt).Discover(Encode(t));
  for (const ListOd& od : r.ods) {
    EXPECT_LE(od.lhs.size() + od.rhs.size(), 3u);
  }
}

TEST(OrderTest, PruningReducesWorkOnSwappyData) {
  // On swap-heavy data, subtree pruning collapses the factorial frontier.
  // Compare at the same depth cap (4 levels of an 8-attribute list lattice
  // = 2080 nodes unpruned).
  Table t = GenHepatitisLike(60, 8, 17);
  EncodedRelation rel = Encode(t);
  OrderOptions pruned_opt;
  pruned_opt.max_level = 4;
  OrderResult pruned = OrderBaseline(pruned_opt).Discover(rel);
  OrderOptions full_opt;
  full_opt.enable_pruning = false;
  full_opt.max_level = 4;
  OrderResult full = OrderBaseline(full_opt).Discover(rel);
  EXPECT_LT(pruned.total_nodes, full.total_nodes);
  EXPECT_LT(pruned.candidates_checked, full.candidates_checked);
  // Pruning must not change soundness: both outputs identical here.
  EXPECT_EQ(pruned.ods.size(), full.ods.size());
}

TEST(OrderTest, MappedCountsDeduplicateCanonicalImages) {
  // [A] ↦ [B] and [A] ↦ [B,C] share canonical pieces; counts must merge.
  std::vector<ListOd> ods{{{0}, {1}}, {{0}, {1, 2}}};
  MappedCounts counts = MapToCanonicalCounts(ods);
  // Pieces: {A}:[]->B (shared), {A}:[]->C, {}:A~B (shared), {B}:A~C.
  EXPECT_EQ(counts.num_constancy, 2);
  EXPECT_EQ(counts.num_compatibility, 2);
  EXPECT_EQ(counts.Total(), 4);
}

TEST(OrderTest, FastodSubsumesOrderOnRandomData) {
  // Completeness comparison: every list OD ORDER reports must be implied
  // by FASTOD's output — its canonical image pieces must all be valid,
  // and FASTOD (being complete+minimal) must agree with brute force on
  // each piece. Spot-check via validity of mapped pieces.
  Table t = GenRandomTable(25, 4, 3, 777);
  EncodedRelation rel = Encode(t);
  OrderResult order = OrderBaseline().Discover(rel);
  for (const ListOd& od : order.ods) {
    for (const CanonicalOd& piece : MapListOdToCanonical(od)) {
      EXPECT_TRUE(BruteHolds(rel, piece))
          << od.ToString() << " piece " << CanonicalOdToString(piece);
    }
  }
}

}  // namespace
}  // namespace fastod
