#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "data/csv.h"
#include "data/encode.h"
#include "gen/date_dim.h"
#include "gen/generators.h"
#include "gen/random_table.h"
#include "validate/od_validator.h"
#include "test_util.h"

namespace fastod {
namespace {

TEST(GeneratorsTest, EmployeeTableMatchesPaper) {
  Table t = EmployeeTaxTable();
  EXPECT_EQ(t.NumRows(), 6);
  EXPECT_EQ(t.NumColumns(), 9);
  EXPECT_EQ(t.at(0, 0).AsInt(), 10);
  EXPECT_EQ(t.at(2, 2).AsString(), "direct");
  EXPECT_EQ(t.at(5, 6).AsInt(), 2000);  // t6 tax = 2K
}

TEST(GeneratorsTest, DeterministicAcrossCalls) {
  Table a = GenFlightLike(200, 12, 99);
  Table b = GenFlightLike(200, 12, 99);
  EXPECT_EQ(WriteCsvString(a), WriteCsvString(b));
  Table c = GenFlightLike(200, 12, 100);
  EXPECT_NE(WriteCsvString(a), WriteCsvString(c));
}

TEST(GeneratorsTest, FlightLikeShape) {
  Table t = GenFlightLike(300, 40, 7);
  EXPECT_EQ(t.NumRows(), 300);
  EXPECT_EQ(t.NumColumns(), 40);
  EXPECT_EQ(t.schema().name(0), "year");
  EXPECT_EQ(t.schema().name(14), "year_1");
}

TEST(GeneratorsTest, FlightLikePlantedStructure) {
  Table t = GenFlightLike(400, 12, 7);
  EncodedRelation rel = Encode(t);
  OdValidator v(&rel);
  const Schema& s = t.schema();
  // year is constant (the OD ORDER misses).
  EXPECT_TRUE(v.IsConstant(AttributeSet::Empty(), *s.IndexOf("year")));
  // flight_id is a key.
  EXPECT_EQ(rel.NumDistinct(*s.IndexOf("flight_id")), 400);
  // month ↦ quarter (FD + compatibility).
  int month = *s.IndexOf("month");
  int quarter = *s.IndexOf("quarter");
  EXPECT_TRUE(v.Holds(ListOd{{month}, {quarter}}));
  // date_sk ~ month at the top level.
  EXPECT_TRUE(v.IsOrderCompatible(AttributeSet::Empty(),
                                  *s.IndexOf("date_sk"), month));
  // distance ~ duration and the FD {origin,dest} -> distance.
  EXPECT_TRUE(v.IsOrderCompatible(AttributeSet::Empty(),
                                  *s.IndexOf("distance"),
                                  *s.IndexOf("duration")));
  EXPECT_TRUE(v.IsConstant(
      AttributeSet::FromIndices({*s.IndexOf("origin"), *s.IndexOf("dest")}),
      *s.IndexOf("distance")));
}

TEST(GeneratorsTest, NcvoterLikePlantedStructure) {
  Table t = GenNcvoterLike(500, 12, 21);
  EncodedRelation rel = Encode(t);
  OdValidator v(&rel);
  const Schema& s = t.schema();
  // city -> zip FD with order compatibility (zip increases with city id).
  int city = *s.IndexOf("city");
  int zip = *s.IndexOf("zip");
  EXPECT_TRUE(v.IsConstant(AttributeSet::Single(city), zip));
  EXPECT_TRUE(v.IsOrderCompatible(AttributeSet::Empty(), city, zip));
  // age/birth_year anti-correlate: swaps under ascending semantics.
  EXPECT_FALSE(v.IsOrderCompatible(AttributeSet::Empty(), *s.IndexOf("age"),
                                   *s.IndexOf("birth_year")));
  // But the FD age -> birth_year holds.
  EXPECT_TRUE(v.IsConstant(AttributeSet::Single(*s.IndexOf("age")),
                           *s.IndexOf("birth_year")));
}

TEST(GeneratorsTest, HepatitisLikeSmallDomains) {
  Table t = GenHepatitisLike(155, 20, 3);
  EXPECT_EQ(t.NumRows(), 155);
  EXPECT_EQ(t.NumColumns(), 20);
  EncodedRelation rel = Encode(t);
  // Column 2 is constant by construction.
  EXPECT_EQ(rel.NumDistinct(2), 1);
  // All domains are small.
  for (int c = 0; c < t.NumColumns(); ++c) {
    EXPECT_LE(rel.NumDistinct(c), 7);
  }
}

TEST(GeneratorsTest, DbtesmaLikeFdChains) {
  Table t = GenDbtesmaLike(300, 9, 13);
  EncodedRelation rel = Encode(t);
  OdValidator v(&rel);
  // Within each group of three, base determines both derivations.
  for (int g = 0; g < 3; ++g) {
    EXPECT_TRUE(v.IsConstant(AttributeSet::Single(g * 3), g * 3 + 1));
    EXPECT_TRUE(v.IsConstant(AttributeSet::Single(g * 3), g * 3 + 2));
  }
}

TEST(GeneratorsTest, DateDimCalendarIsCorrect) {
  Table t = GenDateDim(800, 1999);
  const Schema& s = t.schema();
  int year_col = *s.IndexOf("d_year");
  int month_col = *s.IndexOf("d_month");
  int dom_col = *s.IndexOf("d_dom");
  // Row 0: 1999-01-01.
  EXPECT_EQ(t.at(0, *s.IndexOf("d_date")).AsString(), "1999-01-01");
  // 1999 is not a leap year: Feb has 28 days -> row 31+28 = index 59 is
  // March 1.
  EXPECT_EQ(t.at(59, month_col).AsInt(), 3);
  EXPECT_EQ(t.at(59, dom_col).AsInt(), 1);
  // 2000 IS a leap year (divisible by 400): Feb 29 exists.
  // Day index of 2000-02-29: 365 + 31 + 28 = 424.
  EXPECT_EQ(t.at(424, month_col).AsInt(), 2);
  EXPECT_EQ(t.at(424, dom_col).AsInt(), 29);
  EXPECT_EQ(t.at(424, year_col).AsInt(), 2000);
}

TEST(GeneratorsTest, DateDimSurrogateKeysAreSequential) {
  Table t = GenDateDim(10, 1998, 1000);
  int sk = *t.schema().IndexOf("d_date_sk");
  for (int64_t r = 0; r < t.NumRows(); ++r) {
    EXPECT_EQ(t.at(r, sk).AsInt(), 1000 + r);
  }
}

TEST(GeneratorsTest, RandomTableRespectsOptions) {
  RandomTableOptions opt;
  opt.num_rows = 33;
  opt.num_columns = 7;
  opt.max_domain = 5;
  opt.derived_fraction = 0.0;
  opt.seed = 3;
  Table t = GenRandomTable(opt);
  EXPECT_EQ(t.NumRows(), 33);
  EXPECT_EQ(t.NumColumns(), 7);
  EncodedRelation rel = Encode(t);
  for (int c = 0; c < 7; ++c) {
    EXPECT_LE(rel.NumDistinct(c), 5);
  }
}

TEST(GeneratorsTest, SampleRowsBasics) {
  Table t = GenFlightLike(100, 5, 1);
  Table s = SampleRows(t, 30, 7);
  EXPECT_EQ(s.NumRows(), 30);
  EXPECT_EQ(s.NumColumns(), 5);
  // Oversampling and zero are clamped.
  EXPECT_EQ(SampleRows(t, 1000, 7).NumRows(), 100);
  EXPECT_EQ(SampleRows(t, 0, 7).NumRows(), 0);
}

TEST(GeneratorsTest, SampleRowsPreservesSourceOrder) {
  // flight_id equals the row index, so a sorted sample must be strictly
  // increasing in that column.
  Table t = GenFlightLike(200, 5, 1);
  int id = *t.schema().IndexOf("flight_id");
  Table s = SampleRows(t, 50, 99);
  for (int64_t r = 1; r < s.NumRows(); ++r) {
    EXPECT_LT(s.at(r - 1, id).AsInt(), s.at(r, id).AsInt());
  }
}

TEST(GeneratorsTest, SampleRowsIsDeterministicAndSeedSensitive) {
  Table t = GenFlightLike(100, 4, 1);
  EXPECT_EQ(WriteCsvString(SampleRows(t, 40, 5)),
            WriteCsvString(SampleRows(t, 40, 5)));
  EXPECT_NE(WriteCsvString(SampleRows(t, 40, 5)),
            WriteCsvString(SampleRows(t, 40, 6)));
}

TEST(GeneratorsTest, SampleRowsHasDistinctRows) {
  Table t = GenFlightLike(60, 5, 1);
  int id = *t.schema().IndexOf("flight_id");
  Table s = SampleRows(t, 59, 3);
  std::vector<int64_t> ids;
  for (int64_t r = 0; r < s.NumRows(); ++r) {
    ids.push_back(s.at(r, id).AsInt());
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
}

TEST(GeneratorsTest, RandomTableDerivedColumnsCreateFds) {
  RandomTableOptions opt;
  opt.num_rows = 50;
  opt.num_columns = 6;
  opt.max_domain = 8;
  opt.derived_fraction = 1.0;  // every column after the first is derived
  opt.seed = 5;
  Table t = GenRandomTable(opt);
  EncodedRelation rel = Encode(t);
  OdValidator v(&rel);
  // Column 1 must be derived from column 0 (the only candidate).
  EXPECT_TRUE(v.IsConstant(AttributeSet::Single(0), 1));
  EXPECT_TRUE(v.IsOrderCompatible(AttributeSet::Empty(), 0, 1));
}

}  // namespace
}  // namespace fastod
