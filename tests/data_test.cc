#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "data/schema.h"
#include "data/table.h"
#include "data/value.h"

namespace fastod {
namespace {

TEST(ValueTest, TypesReportCorrectly) {
  EXPECT_EQ(Value::Null().type(), DataType::kNull);
  EXPECT_EQ(Value::Int(1).type(), DataType::kInt);
  EXPECT_EQ(Value::Double(1.5).type(), DataType::kDouble);
  EXPECT_EQ(Value::Str("x").type(), DataType::kString);
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_FALSE(Value::Int(0).is_null());
}

TEST(ValueTest, NumericComparisonOrdersByMagnitude) {
  EXPECT_LT(Value::Compare(Value::Int(1), Value::Int(2)), 0);
  EXPECT_GT(Value::Compare(Value::Int(5), Value::Int(-3)), 0);
  EXPECT_EQ(Value::Compare(Value::Int(4), Value::Int(4)), 0);
}

TEST(ValueTest, CrossTypeNumericComparison) {
  EXPECT_EQ(Value::Compare(Value::Int(2), Value::Double(2.0)), 0);
  EXPECT_LT(Value::Compare(Value::Int(2), Value::Double(2.5)), 0);
  EXPECT_GT(Value::Compare(Value::Double(3.1), Value::Int(3)), 0);
}

TEST(ValueTest, LargeIntsCompareExactly) {
  // Beyond 2^53, doubles cannot distinguish adjacent ints; the int-int
  // path must stay exact.
  int64_t big = (int64_t{1} << 60) + 1;
  EXPECT_LT(Value::Compare(Value::Int(big), Value::Int(big + 1)), 0);
}

TEST(ValueTest, IntDoubleComparisonIsExact) {
  // 2^53 + 1 rounds to the double 2^53; compared exactly it is larger.
  const int64_t above = (int64_t{1} << 53) + 1;
  const double rounded = 9007199254740992.0;  // 2^53
  EXPECT_GT(Value::Compare(Value::Int(above), Value::Double(rounded)), 0);
  EXPECT_LT(Value::Compare(Value::Double(rounded), Value::Int(above)), 0);
  EXPECT_EQ(Value::Compare(Value::Int(above - 1), Value::Double(rounded)), 0);
  EXPECT_LT(Value::Compare(Value::Int(INT64_MAX), Value::Double(9.3e18)), 0);
  EXPECT_GT(Value::Compare(Value::Int(-3), Value::Double(-3.5)), 0);
  EXPECT_EQ(Value::Compare(Value::Double(-0.0), Value::Int(0)), 0);
}

TEST(ValueTest, NanEqualsOnlyNanAndSortsAfterNumbers) {
  const Value nan = Value::Double(std::nan(""));
  const Value negative_nan = Value::Double(-std::nan(""));
  const Value inf = Value::Double(HUGE_VAL);
  EXPECT_EQ(Value::Compare(nan, negative_nan), 0);
  EXPECT_GT(Value::Compare(nan, inf), 0);
  EXPECT_GT(Value::Compare(nan, Value::Int(INT64_MAX)), 0);
  EXPECT_LT(Value::Compare(Value::Double(0.0), nan), 0);
  EXPECT_LT(Value::Compare(Value::Int(0), nan), 0);
  EXPECT_LT(Value::Compare(nan, Value::Str("")), 0);
  EXPECT_GT(Value::Compare(nan, Value::Null()), 0);
}

TEST(ValueTest, NullsSortFirstStringsLast) {
  EXPECT_LT(Value::Compare(Value::Null(), Value::Int(-100)), 0);
  EXPECT_LT(Value::Compare(Value::Null(), Value::Str("")), 0);
  EXPECT_LT(Value::Compare(Value::Int(999), Value::Str("0")), 0);
  EXPECT_EQ(Value::Compare(Value::Null(), Value::Null()), 0);
}

TEST(ValueTest, StringLexicographicOrder) {
  EXPECT_LT(Value::Compare(Value::Str("abc"), Value::Str("abd")), 0);
  EXPECT_LT(Value::Compare(Value::Str("ab"), Value::Str("abc")), 0);
  EXPECT_EQ(Value::Compare(Value::Str("x"), Value::Str("x")), 0);
}

TEST(ValueTest, ToStringRendersAllTypes) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int(-3).ToString(), "-3");
  EXPECT_EQ(Value::Str("hi").ToString(), "hi");
  EXPECT_EQ(Value::Double(2.5).ToString(), "2.5");
}

TEST(SchemaTest, IndexLookups) {
  Schema s({{"a", DataType::kInt}, {"b", DataType::kString}});
  EXPECT_EQ(s.NumAttributes(), 2);
  EXPECT_EQ(*s.IndexOf("b"), 1);
  EXPECT_FALSE(s.IndexOf("z").ok());
  auto multi = s.IndicesOf({"b", "a"});
  ASSERT_TRUE(multi.ok());
  EXPECT_EQ(*multi, (std::vector<int>{1, 0}));
  EXPECT_FALSE(s.IndicesOf({"a", "nope"}).ok());
}

TEST(SchemaTest, FromNamesDefaultsToString) {
  Schema s = Schema::FromNames({"x", "y"});
  EXPECT_EQ(s.type(0), DataType::kString);
  EXPECT_EQ(s.name(1), "y");
}

TEST(SchemaTest, EqualityComparesNamesAndTypes) {
  Schema a({{"x", DataType::kInt}});
  Schema b({{"x", DataType::kInt}});
  Schema c({{"x", DataType::kDouble}});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

Table MakeSmallTable() {
  TableBuilder b(Schema({{"id", DataType::kInt}, {"name", DataType::kString}}));
  EXPECT_TRUE(b.AddRow({Value::Int(1), Value::Str("one")}).ok());
  EXPECT_TRUE(b.AddRow({Value::Int(2), Value::Str("two")}).ok());
  EXPECT_TRUE(b.AddRow({Value::Int(3), Value::Str("three")}).ok());
  return b.Build();
}

TEST(TableTest, BuilderRejectsWrongArity) {
  TableBuilder b(Schema({{"id", DataType::kInt}}));
  Status s = b.AddRow({Value::Int(1), Value::Int(2)});
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(TableTest, BuilderRejectsWrongType) {
  TableBuilder b(Schema({{"id", DataType::kInt}}));
  EXPECT_FALSE(b.AddRow({Value::Str("oops")}).ok());
  // NULL is allowed in any column.
  EXPECT_TRUE(b.AddRow({Value::Null()}).ok());
}

TEST(TableTest, CellAccess) {
  Table t = MakeSmallTable();
  EXPECT_EQ(t.NumRows(), 3);
  EXPECT_EQ(t.NumColumns(), 2);
  EXPECT_EQ(t.at(1, 0).AsInt(), 2);
  EXPECT_EQ(t.at(2, 1).AsString(), "three");
}

TEST(TableTest, ProjectReordersColumns) {
  Table t = MakeSmallTable().Project({1, 0});
  EXPECT_EQ(t.schema().name(0), "name");
  EXPECT_EQ(t.at(0, 1).AsInt(), 1);
}

TEST(TableTest, HeadTruncates) {
  Table t = MakeSmallTable();
  EXPECT_EQ(t.Head(2).NumRows(), 2);
  EXPECT_EQ(t.Head(99).NumRows(), 3);
  EXPECT_EQ(t.Head(0).NumRows(), 0);
}

TEST(TableTest, SelectRowsAllowsDuplicates) {
  Table t = MakeSmallTable().SelectRows({2, 0, 2});
  EXPECT_EQ(t.NumRows(), 3);
  EXPECT_EQ(t.at(0, 0).AsInt(), 3);
  EXPECT_EQ(t.at(1, 0).AsInt(), 1);
  EXPECT_EQ(t.at(2, 0).AsInt(), 3);
}

TEST(TableTest, ToStringShowsHeaderAndRows) {
  std::string s = MakeSmallTable().ToString(2);
  EXPECT_NE(s.find("id | name"), std::string::npos);
  EXPECT_NE(s.find("1 | one"), std::string::npos);
  EXPECT_NE(s.find("more rows"), std::string::npos);
}

TEST(TableTest, EmptyTableIsWellFormed) {
  TableBuilder b(Schema({{"a", DataType::kInt}}));
  Table t = b.Build();
  EXPECT_EQ(t.NumRows(), 0);
  EXPECT_EQ(t.NumColumns(), 1);
}

}  // namespace
}  // namespace fastod
