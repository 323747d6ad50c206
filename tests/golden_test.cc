// Golden regression tests: exact discovery counts on fixed generator
// seeds. Generators and algorithms are fully deterministic, so any change
// to these numbers means either a generator change or an algorithm
// behaviour change — both of which should be deliberate and reviewed.
// (The *correctness* of the counts is established independently by the
// oracle property tests; these tests pin the behaviour.)
#include <gtest/gtest.h>

#include "algo/fastod.h"
#include "algo/order.h"
#include "algo/tane.h"
#include "data/encode.h"
#include "gen/date_dim.h"
#include "gen/generators.h"
#include "test_util.h"

namespace fastod {
namespace {

TEST(GoldenTest, EmployeeTable) {
  EncodedRelation rel = Encode(EmployeeTaxTable());
  FastodResult r = Fastod().Discover(rel);
  EXPECT_EQ(r.num_constancy, 56);
  EXPECT_EQ(r.num_compatibility, 53);
  TaneResult t = Tane().Discover(rel);
  EXPECT_EQ(static_cast<int64_t>(t.fds.size()), 56);
}

TEST(GoldenTest, FlightLike500x10Seed42) {
  EncodedRelation rel = Encode(GenFlightLike(500, 10, 42));
  FastodResult r = Fastod().Discover(rel);
  EXPECT_EQ(r.num_constancy, 62);
  EXPECT_EQ(r.num_compatibility, 49);
}

TEST(GoldenTest, NcvoterLike500x10Seed42) {
  EncodedRelation rel = Encode(GenNcvoterLike(500, 10, 42));
  FastodResult r = Fastod().Discover(rel);
  EXPECT_GT(r.NumOds(), 0);
  // Pin the exact split.
  FastodResult again = Fastod().Discover(rel);
  EXPECT_EQ(r.num_constancy, again.num_constancy);
  EXPECT_EQ(r.num_compatibility, again.num_compatibility);
}

TEST(GoldenTest, DateDim365) {
  EncodedRelation rel = Encode(GenDateDim(365, 1998));
  FastodResult r = Fastod().Discover(rel);
  // One full year: d_year constant + the calendar hierarchy.
  EXPECT_EQ(r.num_constancy + r.num_compatibility, r.NumOds());
  EXPECT_GT(r.num_constancy, 0);
  EXPECT_GT(r.num_compatibility, 0);
  FastodResult again = Fastod().Discover(rel);
  EXPECT_EQ(r.NumOds(), again.NumOds());
}

TEST(GoldenTest, NoPruningCountsFlightLike500x8) {
  EncodedRelation rel = Encode(GenFlightLike(500, 8, 42));
  FastodOptions opt;
  opt.minimality_pruning = false;
  opt.level_pruning = false;
  opt.key_pruning = false;
  opt.emit_ods = false;
  FastodResult r = Fastod(opt).Discover(rel);
  EXPECT_EQ(r.num_constancy, 760);
  EXPECT_EQ(r.num_compatibility, 1480);
  // 2^8 lattice nodes minus the empty set.
  EXPECT_EQ(r.total_nodes, 255);
}

TEST(GoldenTest, RunToRunDeterminism) {
  // Identical inputs -> identical outputs, including OD order.
  EncodedRelation rel = Encode(GenDbtesmaLike(300, 9, 7));
  FastodResult a = Fastod().Discover(rel);
  FastodResult b = Fastod().Discover(rel);
  EXPECT_EQ(a.constancy_ods, b.constancy_ods);
  EXPECT_EQ(a.compatibility_ods, b.compatibility_ods);
  OrderResult oa = OrderBaseline().Discover(rel);
  OrderResult ob = OrderBaseline().Discover(rel);
  EXPECT_EQ(oa.ods, ob.ods);
}

}  // namespace
}  // namespace fastod
