#include <gtest/gtest.h>

#include <cstdint>

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/timer.h"

namespace fastod {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad column");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad column");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad column");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Internal("boom").ToString(), "Internal: boom");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("gone"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string(100, 'x'));
  std::string moved = std::move(r).value();
  EXPECT_EQ(moved.size(), 100u);
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','),
            (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("x", ','), (std::vector<std::string>{"x"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilTest, JoinRoundTripsSplit) {
  std::vector<std::string> parts{"a", "bb", "", "c"};
  EXPECT_EQ(Split(Join(parts, "|"), '|'), parts);
}

TEST(StringUtilTest, TrimStripsAsciiWhitespace) {
  EXPECT_EQ(Trim("  x y \t\r\n"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t "), "");
  EXPECT_EQ(Trim("abc"), "abc");
}

TEST(StringUtilTest, ParseIntStrict) {
  EXPECT_EQ(ParseInt("42"), 42);
  EXPECT_EQ(ParseInt("-7"), -7);
  EXPECT_EQ(ParseInt(" 13 "), 13);  // trimmed
  EXPECT_FALSE(ParseInt("4.2").has_value());
  EXPECT_FALSE(ParseInt("x42").has_value());
  EXPECT_FALSE(ParseInt("42x").has_value());
  EXPECT_FALSE(ParseInt("").has_value());
}

// The digits-only fast path must agree with the strtoll fallback at the
// 18/19-digit boundary and on signs, zeros and overflow.
TEST(StringUtilTest, ParseIntFastPathMatchesStrtoll) {
  EXPECT_EQ(ParseInt("+5"), 5);
  EXPECT_EQ(ParseInt("-0"), 0);
  EXPECT_EQ(ParseInt("007"), 7);
  EXPECT_EQ(ParseInt("999999999999999999"), 999999999999999999);
  EXPECT_EQ(ParseInt("-1000000000000000000"), -1000000000000000000);
  EXPECT_EQ(ParseInt("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(ParseInt("-9223372036854775808"), INT64_MIN);
  EXPECT_FALSE(ParseInt("9223372036854775808").has_value());
  EXPECT_FALSE(ParseInt("+").has_value());
  EXPECT_FALSE(ParseInt("-").has_value());
  EXPECT_FALSE(ParseInt("1 2").has_value());
  EXPECT_FALSE(ParseInt("--1").has_value());
}

TEST(StringUtilTest, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e3").value(), -1000.0);
  EXPECT_DOUBLE_EQ(ParseDouble("7").value(), 7.0);
  EXPECT_FALSE(ParseDouble("3.5z").has_value());
  EXPECT_FALSE(ParseDouble("").has_value());
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next64(), b.Next64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differ = 0;
  for (int i = 0; i < 10; ++i) {
    if (a.Next64() != b.Next64()) ++differ;
  }
  EXPECT_GT(differ, 0);
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(10);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 10);
    int64_t w = rng.UniformRange(-5, 5);
    EXPECT_GE(w, -5);
    EXPECT_LE(w, 5);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(TimerTest, ElapsedIsMonotone) {
  WallTimer t;
  double first = t.ElapsedSeconds();
  double second = t.ElapsedSeconds();
  EXPECT_GE(second, first);
  EXPECT_GE(first, 0.0);
}

}  // namespace
}  // namespace fastod
