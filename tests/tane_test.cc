#include <gtest/gtest.h>

#include <algorithm>

#include "algo/brute_force_discovery.h"
#include "algo/tane.h"
#include "data/csv.h"
#include "data/encode.h"
#include "gen/generators.h"
#include "gen/random_table.h"
#include "validate/brute_force.h"
#include "test_util.h"

namespace fastod {
namespace {

bool HasFd(const TaneResult& r, AttributeSet lhs, int rhs) {
  return std::find(r.fds.begin(), r.fds.end(), ConstancyOd{lhs, rhs}) !=
         r.fds.end();
}

TEST(TaneTest, TextbookFd) {
  // b = a/2: FD a -> b, no FD b -> a.
  auto t = ReadCsvString("a,b\n0,0\n1,0\n2,1\n3,1\n");
  ASSERT_TRUE(t.ok());
  TaneResult r = Tane().Discover(Encode(*t));
  EXPECT_TRUE(HasFd(r, AttributeSet::Single(0), 1));
  EXPECT_FALSE(HasFd(r, AttributeSet::Single(1), 0));
}

TEST(TaneTest, CompositeKeyFd) {
  // Neither a nor b alone determines c, but together they do.
  auto t = ReadCsvString("a,b,c\n1,1,1\n1,2,2\n2,1,2\n2,2,1\n");
  ASSERT_TRUE(t.ok());
  TaneResult r = Tane().Discover(Encode(*t));
  EXPECT_TRUE(HasFd(r, AttributeSet::FromIndices({0, 1}), 2));
  EXPECT_FALSE(HasFd(r, AttributeSet::Single(0), 2));
  EXPECT_FALSE(HasFd(r, AttributeSet::Single(1), 2));
}

TEST(TaneTest, ConstantColumn) {
  auto t = ReadCsvString("a,b\n5,1\n5,2\n5,3\n");
  ASSERT_TRUE(t.ok());
  TaneResult r = Tane().Discover(Encode(*t));
  EXPECT_TRUE(HasFd(r, AttributeSet::Empty(), 0));
  // {}: -> a subsumes {b}: -> a; the latter must not appear.
  EXPECT_FALSE(HasFd(r, AttributeSet::Single(1), 0));
}

TEST(TaneTest, KeyColumnDeterminesEverything) {
  auto t = ReadCsvString("k,x,y\n1,5,5\n2,5,6\n3,6,6\n");
  ASSERT_TRUE(t.ok());
  TaneResult r = Tane().Discover(Encode(*t));
  EXPECT_TRUE(HasFd(r, AttributeSet::Single(0), 1));
  EXPECT_TRUE(HasFd(r, AttributeSet::Single(0), 2));
}

TEST(TaneTest, EmployeeTableFds) {
  Table t = EmployeeTaxTable();
  TaneResult r = Tane().Discover(Encode(t));
  const Schema& s = t.schema();
  int posit = *s.IndexOf("posit");
  int bin = *s.IndexOf("bin");
  int sal = *s.IndexOf("sal");
  int tax = *s.IndexOf("tax");
  EXPECT_TRUE(HasFd(r, AttributeSet::Single(posit), bin));
  EXPECT_TRUE(HasFd(r, AttributeSet::Single(sal), tax));
  // position does not determine salary.
  EXPECT_FALSE(HasFd(r, AttributeSet::Single(posit), sal));
}

TEST(TaneTest, TimeoutFlagPropagates) {
  Table t = GenDbtesmaLike(500, 20, 3);
  ExecutionControl control;
  ExpireDeadline(&control);
  TaneOptions opt;
  opt.control = &control;
  TaneResult r = Tane(opt).Discover(Encode(t));
  EXPECT_TRUE(r.timed_out);
}

TEST(TaneTest, StopRequestedBeforeTheRunEmitsNothing) {
  // The node tasks poll the control before any validation, as FASTOD's
  // do: a run whose control is already cancelled ends inside level 1.
  EncodedRelation rel = Encode(EmployeeTaxTable());
  ExecutionControl control;
  control.RequestCancel();
  for (int threads : {1, 4}) {
    TaneOptions opt;
    opt.control = &control;
    opt.num_threads = threads;
    TaneResult r = Tane(opt).Discover(rel);
    EXPECT_TRUE(r.cancelled) << threads << " threads";
    EXPECT_FALSE(r.timed_out) << threads << " threads";
    EXPECT_EQ(r.levels_processed, 0) << threads << " threads";
    EXPECT_EQ(r.num_fds, 0) << threads << " threads";
    EXPECT_TRUE(r.fds.empty()) << threads << " threads";
  }
}

TEST(TaneTest, MaxLevelLimitsContexts) {
  Table t = GenDbtesmaLike(200, 9, 3);
  TaneOptions opt;
  opt.max_level = 2;
  TaneResult r = Tane(opt).Discover(Encode(t));
  for (const ConstancyOd& fd : r.fds) {
    EXPECT_LE(fd.context.Count(), 2);
  }
}

// Property: TANE == the FD side of the brute-force oracle.
class TaneOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TaneOracleTest, MatchesBruteForceMinimalFds) {
  Table t = GenRandomTable(25, 5, 3, GetParam());
  EncodedRelation rel = Encode(t);
  TaneResult got = Tane().Discover(rel);
  BruteForceDiscoveryResult want = BruteForceDiscoverOds(rel);
  std::vector<ConstancyOd> got_fds = got.fds;
  std::vector<ConstancyOd> want_fds = want.constancy_ods;
  std::sort(got_fds.begin(), got_fds.end());
  std::sort(want_fds.begin(), want_fds.end());
  EXPECT_EQ(got_fds, want_fds);
}

TEST_P(TaneOracleTest, AllReportedFdsHold) {
  Table t = GenRandomTable(35, 5, 4, GetParam() + 77);
  EncodedRelation rel = Encode(t);
  TaneResult got = Tane().Discover(rel);
  for (const ConstancyOd& fd : got.fds) {
    EXPECT_TRUE(BruteIsConstant(rel, fd.context, fd.attribute))
        << fd.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TaneOracleTest,
                         ::testing::Values(31, 62, 93, 124, 155, 186, 217,
                                           248));

}  // namespace
}  // namespace fastod
