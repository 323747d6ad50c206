#include <gtest/gtest.h>

#include <algorithm>

#include "algo/fastod.h"
#include "data/csv.h"
#include "gen/date_dim.h"
#include "gen/generators.h"
#include "test_util.h"

namespace fastod {
namespace {

bool HasConstancy(const FastodResult& r, AttributeSet ctx, int a) {
  return std::find(r.constancy_ods.begin(), r.constancy_ods.end(),
                   ConstancyOd{ctx, a}) != r.constancy_ods.end();
}

bool HasCompatibility(const FastodResult& r, AttributeSet ctx, int a, int b) {
  return std::find(r.compatibility_ods.begin(), r.compatibility_ods.end(),
                   CompatibilityOd(ctx, a, b)) != r.compatibility_ods.end();
}

class EmployeeFastodTest : public ::testing::Test {
 protected:
  EmployeeFastodTest() : table_(EmployeeTaxTable()) {
    result_ = Fastod().Discover(Encode(table_));
  }

  int Col(const std::string& name) {
    auto idx = table_.schema().IndexOf(name);
    EXPECT_TRUE(idx.ok());
    return *idx;
  }

  Table table_;
  FastodResult result_;
};

TEST_F(EmployeeFastodTest, FindsPositionDeterminesBin) {
  // Example 4: {position}: [] -> bin, and it is minimal (bin is not
  // constant outright).
  EXPECT_TRUE(
      HasConstancy(result_, AttributeSet::Single(Col("posit")), Col("bin")));
  EXPECT_FALSE(HasConstancy(result_, AttributeSet::Empty(), Col("bin")));
}

TEST_F(EmployeeFastodTest, FindsSalaryTaxStructure) {
  // salary -> tax as an FD and salary ~ tax as a top-level OCD, which
  // together give [salary] ↦ [tax] by Theorem 5.
  EXPECT_TRUE(
      HasConstancy(result_, AttributeSet::Single(Col("sal")), Col("tax")));
  EXPECT_TRUE(
      HasCompatibility(result_, AttributeSet::Empty(), Col("sal"),
                       Col("tax")));
}

TEST_F(EmployeeFastodTest, SalaryGroupCompatible) {
  EXPECT_TRUE(HasCompatibility(result_, AttributeSet::Empty(), Col("sal"),
                               Col("grp")));
}

TEST_F(EmployeeFastodTest, SalarySubgroupIncompatibleAtTopLevel) {
  // Example 3's swap: no {}: sal ~ subg.
  EXPECT_FALSE(HasCompatibility(result_, AttributeSet::Empty(), Col("sal"),
                                Col("subg")));
}

TEST_F(EmployeeFastodTest, NoConstantColumns) {
  for (int a = 0; a < table_.NumColumns(); ++a) {
    EXPECT_FALSE(HasConstancy(result_, AttributeSet::Empty(), a))
        << table_.schema().name(a);
  }
}

TEST_F(EmployeeFastodTest, EmittedOdsAreNonTrivial) {
  for (const ConstancyOd& od : result_.constancy_ods) {
    EXPECT_FALSE(od.IsTrivial()) << od.ToString(table_.schema());
  }
  for (const CompatibilityOd& od : result_.compatibility_ods) {
    EXPECT_FALSE(od.IsTrivial()) << od.ToString(table_.schema());
  }
}

TEST_F(EmployeeFastodTest, CountsMatchVectors) {
  EXPECT_EQ(result_.num_constancy,
            static_cast<int64_t>(result_.constancy_ods.size()));
  EXPECT_EQ(result_.num_compatibility,
            static_cast<int64_t>(result_.compatibility_ods.size()));
  EXPECT_GT(result_.NumOds(), 0);
}

TEST(FastodTest, ConstantColumnFoundAtLevelOne) {
  auto t = ReadCsvString("a,b\n7,1\n7,2\n7,3\n");
  ASSERT_TRUE(t.ok());
  FastodResult result = Fastod().Discover(Encode(*t));
  EXPECT_TRUE(HasConstancy(result, AttributeSet::Empty(), 0));
  // Nothing above {}: []->a should mention a as a target again.
  for (const ConstancyOd& od : result.constancy_ods) {
    if (od.attribute == 0) {
      EXPECT_TRUE(od.context.IsEmpty());
    }
  }
}

TEST(FastodTest, KeyColumnShortCircuits) {
  // b is a key: every X ⊇ {b} is a superkey; minimal FDs {b}: []->a etc.
  auto t = ReadCsvString("a,b\n1,10\n1,20\n2,30\n");
  ASSERT_TRUE(t.ok());
  FastodResult result = Fastod().Discover(Encode(*t));
  EXPECT_TRUE(HasConstancy(result, AttributeSet::Single(1), 0));
}

TEST(FastodTest, TpcDsDateDimOds) {
  // The Section 4.1 examples: {d_date_sk}: [] -> d_date, {}: d_date_sk ~
  // d_date, {d_date_sk}: [] -> d_year, {}: d_date_sk ~ d_year,
  // {d_month}: [] -> d_quarter and {}: d_month ~ d_quarter.
  Table t = GenDateDim(365, 1998);
  FastodResult result = Fastod().Discover(Encode(t));
  const Schema& s = t.schema();
  int sk = *s.IndexOf("d_date_sk");
  int date = *s.IndexOf("d_date");
  int year = *s.IndexOf("d_year");
  int quarter = *s.IndexOf("d_quarter");
  int month = *s.IndexOf("d_month");
  EXPECT_TRUE(HasConstancy(result, AttributeSet::Single(sk), date));
  EXPECT_TRUE(HasCompatibility(result, AttributeSet::Empty(), sk, date));
  // With 365 days of one year, d_year is constant — found at the top.
  EXPECT_TRUE(HasConstancy(result, AttributeSet::Empty(), year));
  EXPECT_TRUE(HasConstancy(result, AttributeSet::Single(month), quarter));
  EXPECT_TRUE(HasCompatibility(result, AttributeSet::Empty(), month,
                               quarter));
}

TEST(FastodTest, EmptyRelation) {
  TableBuilder b(Schema({{"a", DataType::kInt}, {"b", DataType::kInt}}));
  FastodResult result = Fastod().Discover(Encode(b.Build()));
  // Everything is constant on zero tuples; minimal set: {}: []->A per
  // attribute, nothing else.
  EXPECT_EQ(result.num_constancy, 2);
  EXPECT_EQ(result.num_compatibility, 0);
}

TEST(FastodTest, SingleTupleRelation) {
  auto t = ReadCsvString("a,b,c\n1,2,3\n");
  ASSERT_TRUE(t.ok());
  FastodResult result = Fastod().Discover(Encode(*t));
  EXPECT_EQ(result.num_constancy, 3);
  EXPECT_EQ(result.num_compatibility, 0);
}

TEST(FastodTest, SingleColumnRelation) {
  auto t = ReadCsvString("a\n1\n2\n1\n");
  ASSERT_TRUE(t.ok());
  FastodResult result = Fastod().Discover(Encode(*t));
  EXPECT_EQ(result.NumOds(), 0);  // nothing non-trivial to say
}

TEST(FastodTest, MaxLevelCapsSearch) {
  Table t = GenFlightLike(200, 8, 3);
  FastodOptions opt;
  opt.max_level = 2;
  FastodResult result = Fastod(opt).Discover(Encode(t));
  EXPECT_LE(result.levels_processed, 2);
  for (const ConstancyOd& od : result.constancy_ods) {
    EXPECT_LE(od.context.Count(), 1);
  }
  for (const CompatibilityOd& od : result.compatibility_ods) {
    EXPECT_TRUE(od.context.IsEmpty());
  }
}

TEST(FastodTest, TimeoutProducesPartialResult) {
  Table t = GenHepatitisLike(150, 18, 5);
  ExecutionControl control;
  ExpireDeadline(&control);
  FastodOptions opt;
  opt.control = &control;
  FastodResult result = Fastod(opt).Discover(Encode(t));
  EXPECT_TRUE(result.timed_out);
}

TEST(FastodTest, LevelStatsAreRecorded) {
  Table t = GenFlightLike(100, 6, 4);
  FastodResult result = Fastod().Discover(Encode(t));
  ASSERT_FALSE(result.level_stats.empty());
  EXPECT_EQ(result.level_stats[0].level, 1);
  EXPECT_EQ(result.level_stats[0].nodes, 6);
  int64_t found = 0;
  for (const FastodLevelStats& s : result.level_stats) {
    found += s.constancy_found + s.compatibility_found;
  }
  EXPECT_EQ(found, result.NumOds());
}

TEST(FastodTest, SixtyFourAttributeBoundary) {
  // The widest legal relation: exercises attribute index 63 in every
  // bitset operation (FullSet, Without, Next past the top bit). Depth is
  // capped — the point is the width edge, not a 2^64 lattice.
  Table t = GenHepatitisLike(40, 64, 9);
  auto rel = EncodedRelation::FromTable(t);
  ASSERT_TRUE(rel.ok());
  FastodOptions opt;
  opt.max_level = 2;
  FastodResult r = Fastod(opt).Discover(*rel);
  EXPECT_LE(r.levels_processed, 2);
  EXPECT_EQ(r.level_stats[0].nodes, 64);
  EXPECT_EQ(r.level_stats[1].nodes, 64 * 63 / 2);
  for (const ConstancyOd& od : r.constancy_ods) {
    EXPECT_FALSE(od.IsTrivial());
  }
}

TEST(FastodTest, CountsToStringFormat) {
  FastodResult r;
  r.num_constancy = 16;
  r.num_compatibility = 1;
  EXPECT_EQ(r.CountsToString(), "17 (16 + 1)");
}

TEST(FastodTest, EmitOdsOffStillCounts) {
  Table t = GenFlightLike(100, 6, 4);
  FastodOptions opt;
  opt.emit_ods = false;
  FastodResult counted = Fastod(opt).Discover(Encode(t));
  FastodResult emitted = Fastod().Discover(Encode(t));
  EXPECT_TRUE(counted.constancy_ods.empty());
  EXPECT_EQ(counted.num_constancy, emitted.num_constancy);
  EXPECT_EQ(counted.num_compatibility, emitted.num_compatibility);
}

}  // namespace
}  // namespace fastod
