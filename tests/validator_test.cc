#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/csv.h"
#include "data/encode.h"
#include "gen/date_dim.h"
#include "gen/generators.h"
#include "gen/random_table.h"
#include "validate/brute_force.h"
#include "validate/od_validator.h"
#include "test_util.h"

namespace fastod {
namespace {

class EmployeeValidatorTest : public ::testing::Test {
 protected:
  EmployeeValidatorTest()
      : table_(EmployeeTaxTable()), rel_(Encode(table_)), v_(&rel_) {}

  int Col(const std::string& name) {
    auto idx = table_.schema().IndexOf(name);
    EXPECT_TRUE(idx.ok());
    return *idx;
  }

  Table table_;
  EncodedRelation rel_;
  OdValidator v_;
};

TEST_F(EmployeeValidatorTest, PaperExample1SalaryOrdersTax) {
  // [salary] ↦ [tax], [salary] ↦ [percentage],
  // [salary] ↦ [group, subgroup], [year, salary] ↦ [year, bin].
  EXPECT_TRUE(v_.Holds(ListOd{{Col("sal")}, {Col("tax")}}));
  EXPECT_TRUE(v_.Holds(ListOd{{Col("sal")}, {Col("perc")}}));
  EXPECT_TRUE(v_.Holds(ListOd{{Col("sal")}, {Col("grp"), Col("subg")}}));
  EXPECT_TRUE(v_.Holds(
      ListOd{{Col("yr"), Col("sal")}, {Col("yr"), Col("bin")}}));
}

TEST_F(EmployeeValidatorTest, PaperExample3PositionSplits) {
  // position does not functionally determine salary -> [posit] ↦
  // [posit, sal] fails (splits), and so does the plain OD to salary.
  EXPECT_FALSE(v_.Holds(ListOd{{Col("posit")}, {Col("posit"), Col("sal")}}));
  EXPECT_FALSE(v_.IsConstant(AttributeSet::Single(Col("posit")), Col("sal")));
}

TEST_F(EmployeeValidatorTest, PaperExample3SalarySubgroupSwap) {
  // There is a swap w.r.t. [salary] ~ [subgroup] (tuples t1, t2).
  EXPECT_FALSE(v_.AreOrderCompatible({Col("sal")}, {Col("subg")}));
  EXPECT_FALSE(
      v_.IsOrderCompatible(AttributeSet::Empty(), Col("sal"), Col("subg")));
}

TEST_F(EmployeeValidatorTest, PaperExample4ConstancyAndCompatibility) {
  // {position}: [] -> bin holds; {year}: bin ~ salary holds;
  // {position}: [] -> salary does not.
  EXPECT_TRUE(v_.IsConstant(AttributeSet::Single(Col("posit")), Col("bin")));
  EXPECT_TRUE(v_.IsOrderCompatible(AttributeSet::Single(Col("yr")),
                                   Col("bin"), Col("sal")));
  EXPECT_FALSE(
      v_.IsConstant(AttributeSet::Single(Col("posit")), Col("sal")));
}

TEST_F(EmployeeValidatorTest, OrderEquivalenceViaSuffixRule) {
  // X ↦ Y implies X ↔ YX (Suffix axiom): check on salary/tax.
  EXPECT_TRUE(v_.AreOrderEquivalent({Col("sal")},
                                    {Col("tax"), Col("sal")}));
}

TEST(ValidatorDateDimTest, PaperExample2MonthWeekCompatibility) {
  // [d_month] ~ [d_week] is valid, but [d_month] ↦ [d_week] is not
  // (month does not functionally determine week).
  Table t = GenDateDim(730, 1998);
  EncodedRelation rel = Encode(t);
  OdValidator v(&rel);
  int month = *t.schema().IndexOf("d_month");
  int week = *t.schema().IndexOf("d_week");
  EXPECT_TRUE(v.AreOrderCompatible({month}, {week}));
  EXPECT_FALSE(v.Holds(ListOd{{month}, {week}}));
}

TEST(ValidatorDateDimTest, SurrogateKeyOrdersDateAndYear) {
  Table t = GenDateDim(400, 1998);
  EncodedRelation rel = Encode(t);
  OdValidator v(&rel);
  int sk = *t.schema().IndexOf("d_date_sk");
  EXPECT_TRUE(v.Holds(ListOd{{sk}, {*t.schema().IndexOf("d_date")}}));
  EXPECT_TRUE(v.Holds(ListOd{{sk}, {*t.schema().IndexOf("d_year")}}));
  EXPECT_TRUE(v.Holds(ListOd{{*t.schema().IndexOf("d_month")},
                             {*t.schema().IndexOf("d_quarter")}}));
}

TEST(ValidatorTest, EmptyLhsOrdersOnlyConstants) {
  auto t = ReadCsvString("a,b\n1,7\n2,7\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  OdValidator v(&rel);
  EXPECT_TRUE(v.Holds(ListOd{{}, {1}}));   // b constant
  EXPECT_FALSE(v.Holds(ListOd{{}, {0}}));  // a is not
}

TEST(ValidatorTest, EmptyRhsAlwaysHolds) {
  auto t = ReadCsvString("a\n2\n1\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  OdValidator v(&rel);
  EXPECT_TRUE(v.Holds(ListOd{{0}, {}}));
  EXPECT_TRUE(v.Holds(ListOd{{}, {}}));
}

TEST(ValidatorTest, ListOrderMatters) {
  // [A,B] ↦ [B,A] generally differs from reflexive ODs: construct data
  // where [A] ↦ [B] holds but [B] ↦ [A] fails.
  auto t = ReadCsvString("a,b\n1,1\n2,1\n3,2\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  OdValidator v(&rel);
  EXPECT_TRUE(v.Holds(ListOd{{0}, {1}}));
  EXPECT_FALSE(v.Holds(ListOd{{1}, {0}}));  // split: b=1 has a∈{1,2}
}

TEST(ValidatorTest, ContextPartitionIsCached) {
  auto t = ReadCsvString("a,b,c\n1,1,1\n1,2,2\n2,1,3\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  OdValidator v(&rel);
  const StrippedPartition& p1 = v.ContextPartition(AttributeSet::Single(0));
  const StrippedPartition& p2 = v.ContextPartition(AttributeSet::Single(0));
  EXPECT_EQ(&p1, &p2);  // same object, not a rebuild
}

// Property: the partition-based validator agrees with brute force on all
// three judgement kinds over random relations.
class ValidatorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ValidatorPropertyTest, CanonicalJudgementsMatchBruteForce) {
  Table t = GenRandomTable(24, 4, 3, GetParam());
  EncodedRelation rel = Encode(t);
  OdValidator v(&rel);
  for (uint64_t mask = 0; mask < 16; ++mask) {
    AttributeSet context(mask);
    for (int a = 0; a < 4; ++a) {
      EXPECT_EQ(v.IsConstant(context, a),
                BruteIsConstant(rel, context, a))
          << "ctx=" << mask << " A=" << a;
      for (int b = a + 1; b < 4; ++b) {
        EXPECT_EQ(v.IsOrderCompatible(context, a, b),
                  BruteIsOrderCompatible(rel, context, a, b))
            << "ctx=" << mask << " A=" << a << " B=" << b;
      }
    }
  }
}

TEST_P(ValidatorPropertyTest, ListOdJudgementsMatchBruteForce) {
  Rng rng(GetParam() * 977 + 5);
  Table t = GenRandomTable(20, 4, 3, GetParam() + 1000);
  EncodedRelation rel = Encode(t);
  OdValidator v(&rel);
  for (int trial = 0; trial < 50; ++trial) {
    auto random_spec = [&rng]() {
      OrderSpec spec;
      AttributeSet used;
      int len = 1 + static_cast<int>(rng.Uniform(3));
      for (int i = 0; i < len; ++i) {
        int a = static_cast<int>(rng.Uniform(4));
        if (!used.Contains(a)) {
          spec.push_back(a);
          used = used.With(a);
        }
      }
      return spec;
    };
    ListOd od{random_spec(), random_spec()};
    EXPECT_EQ(v.Holds(od), BruteHolds(rel, od)) << od.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValidatorPropertyTest,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128));

}  // namespace
}  // namespace fastod
