#include <gtest/gtest.h>

#include "data/csv.h"
#include "data/encode.h"
#include "gen/random_table.h"

namespace fastod {
namespace {

// The columnar relation no longer exposes a rank vector; gather one for
// the value-order assertions below.
std::vector<int32_t> RanksOf(const EncodedRelation& rel, int c) {
  std::vector<int32_t> out(static_cast<size_t>(rel.NumRows()));
  for (int64_t r = 0; r < rel.NumRows(); ++r) {
    out[r] = rel.rank(r, c);
  }
  return out;
}

TEST(EncodeTest, RanksAreDenseAndOrderPreserving) {
  auto t = ReadCsvString("a\n30\n10\n20\n10\n");
  ASSERT_TRUE(t.ok());
  auto rel = EncodedRelation::FromTable(*t);
  ASSERT_TRUE(rel.ok());
  // values 30,10,20,10 -> ranks 2,0,1,0
  EXPECT_EQ(RanksOf(*rel, 0), (std::vector<int32_t>{2, 0, 1, 0}));
  EXPECT_EQ(rel->NumDistinct(0), 3);
}

TEST(EncodeTest, StringsRankLexicographically) {
  auto t = ReadCsvString("s\nbeta\nalpha\ngamma\n");
  ASSERT_TRUE(t.ok());
  auto rel = EncodedRelation::FromTable(*t);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(RanksOf(*rel, 0), (std::vector<int32_t>{1, 0, 2}));
}

TEST(EncodeTest, NullsRankFirst) {
  // (Two columns: a single-column CSV cannot carry a NULL row, since blank
  // lines are skipped by the reader.)
  auto t = ReadCsvString("a,b\n5,x\n,y\n1,z\n");
  ASSERT_TRUE(t.ok());
  auto rel = EncodedRelation::FromTable(*t);
  ASSERT_TRUE(rel.ok());
  // NULL < 1 < 5
  EXPECT_EQ(RanksOf(*rel, 0), (std::vector<int32_t>{2, 0, 1}));
}

TEST(EncodeTest, EmptyTable) {
  TableBuilder b(Schema({{"a", DataType::kInt}}));
  auto rel = EncodedRelation::FromTable(b.Build());
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->NumRows(), 0);
  EXPECT_EQ(rel->NumDistinct(0), 0);
}

TEST(EncodeTest, TooManyAttributesRejected) {
  std::vector<AttributeDef> defs(65, AttributeDef{"c", DataType::kInt});
  for (int i = 0; i < 65; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    defs[i].name = name;
  }
  TableBuilder b{Schema(defs)};
  auto rel = EncodedRelation::FromTable(b.Build());
  EXPECT_FALSE(rel.ok());
  EXPECT_EQ(rel.status().code(), StatusCode::kInvalidArgument);
}

// Tuple ids are int32_t: the row limit is checked on the count alone,
// before anything is allocated for the rows.
TEST(EncodeTest, MoreRowsThanTupleIdsHoldRejected) {
  EXPECT_TRUE(CheckRelationShape(kMaxRows, 64).ok());
  EXPECT_TRUE(CheckRelationShape(0, 0).ok());
  const Status rows = CheckRelationShape(kMaxRows + 1, 1);
  EXPECT_EQ(rows.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rows.message().find("2147483648 rows"), std::string::npos)
      << rows.message();
  EXPECT_NE(rows.message().find("at most 2147483647 rows"), std::string::npos)
      << rows.message();
  EXPECT_EQ(CheckRelationShape(1, 65).code(), StatusCode::kInvalidArgument);
}

TEST(EncodeTest, SchemaCarriedThrough) {
  auto t = ReadCsvString("x,y\n1,2\n");
  ASSERT_TRUE(t.ok());
  auto rel = EncodedRelation::FromTable(*t);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->schema().name(1), "y");
  EXPECT_EQ(rel->NumAttributes(), 2);
}

// Property: for every pair of tuples and every column, the rank comparison
// agrees with the Value comparison. This is the entire contract that lets
// all downstream algorithms work on integers (Section 4.6).
class EncodePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EncodePropertyTest, RankOrderMatchesValueOrder) {
  Table t = GenRandomTable(40, 4, 6, GetParam());
  auto rel = EncodedRelation::FromTable(t);
  ASSERT_TRUE(rel.ok());
  for (int c = 0; c < t.NumColumns(); ++c) {
    for (int64_t i = 0; i < t.NumRows(); ++i) {
      for (int64_t j = 0; j < t.NumRows(); ++j) {
        int value_cmp = Value::Compare(t.at(i, c), t.at(j, c));
        int32_t ri = rel->rank(i, c);
        int32_t rj = rel->rank(j, c);
        int rank_cmp = ri < rj ? -1 : (ri > rj ? 1 : 0);
        EXPECT_EQ(value_cmp < 0, rank_cmp < 0);
        EXPECT_EQ(value_cmp == 0, rank_cmp == 0);
      }
    }
  }
}

TEST_P(EncodePropertyTest, RanksAreDense) {
  Table t = GenRandomTable(30, 3, 8, GetParam());
  auto rel = EncodedRelation::FromTable(t);
  ASSERT_TRUE(rel.ok());
  for (int c = 0; c < t.NumColumns(); ++c) {
    std::vector<bool> seen(rel->NumDistinct(c), false);
    for (int32_t r : RanksOf(*rel, c)) {
      ASSERT_GE(r, 0);
      ASSERT_LT(r, rel->NumDistinct(c));
      seen[r] = true;
    }
    for (bool s : seen) EXPECT_TRUE(s);  // no gaps
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncodePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 11, 17, 23));

}  // namespace
}  // namespace fastod
