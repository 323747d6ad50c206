// Tests for the shared JSON utility (common/json.h): writer shape,
// parser round-trips, and the defensive limits the HTTP server relies
// on (duplicate keys, depth, trailing garbage).
#include <gtest/gtest.h>

#include <string>

#include "common/json.h"

namespace fastod {
namespace {

TEST(JsonWriterTest, ObjectsArraysAndCommas) {
  JsonWriter w;
  w.BeginObject()
      .Key("id")
      .Int(7)
      .Key("name")
      .String("flight \"a\"\n")
      .Key("ok")
      .Bool(true)
      .Key("none")
      .Null()
      .Key("ratio")
      .Double(0.25)
      .Key("tags")
      .BeginArray()
      .String("x")
      .Int(-3)
      .EndArray()
      .Key("nested")
      .BeginObject()
      .EndObject()
      .EndObject();
  EXPECT_EQ(w.str(),
            "{\"id\": 7, \"name\": \"flight \\\"a\\\"\\n\", "
            "\"ok\": true, \"none\": null, \"ratio\": 0.25, "
            "\"tags\": [\"x\", -3], \"nested\": {}}");
}

TEST(JsonWriterTest, DoubleKeepsSmallAndLargeMagnitudes) {
  JsonWriter w;
  w.BeginArray().Double(1e-7).Double(1e30).Double(0.0).EndArray();
  EXPECT_EQ(w.str(), "[1e-07, 1e+30, 0]");
}

TEST(JsonWriterTest, RawSplicesPrerenderedJson) {
  JsonWriter w;
  w.BeginObject().Key("result").Raw("{\"a\": 1}").EndObject();
  EXPECT_EQ(w.str(), "{\"result\": {\"a\": 1}}");
}

TEST(JsonWriterTest, SpliceAddsTheLastMember) {
  std::string report = "{\"a\": [1]}\n";
  SpliceJsonMember(&report, "trace", "{\"spans\": []}");
  EXPECT_EQ(report, "{\"a\": [1],\"trace\":{\"spans\": []}}\n");
  std::string empty = "{}";
  SpliceJsonMember(&empty, "k\"", "1");
  Result<JsonValue> parsed = ParseJson(empty);
  ASSERT_TRUE(parsed.ok()) << empty;
  EXPECT_EQ(parsed->Find("k\"")->int_value(), 1);
  std::string not_object = "[1]";
  SpliceJsonMember(&not_object, "k", "1");
  EXPECT_EQ(not_object, "[1]");
}

TEST(JsonParseTest, RoundTripsScalarsAndContainers) {
  auto value = ParseJson(
      " {\"a\": [1, 2.5, -3e2], \"b\": {\"c\": null, \"d\": false}, "
      "\"e\": \"tab\\there\"} ");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  ASSERT_TRUE(value->is_object());
  const JsonValue* a = value->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array_items().size(), 3u);
  EXPECT_EQ(a->array_items()[0].int_value(), 1);
  EXPECT_DOUBLE_EQ(a->array_items()[1].number_value(), 2.5);
  EXPECT_DOUBLE_EQ(a->array_items()[2].number_value(), -300.0);
  EXPECT_TRUE(value->Find("b")->Find("c")->is_null());
  EXPECT_FALSE(value->Find("b")->Find("d")->bool_value());
  EXPECT_EQ(value->Find("e")->string_value(), "tab\there");
  EXPECT_EQ(value->Find("missing"), nullptr);
}

TEST(JsonParseTest, UnicodeEscapesDecodeToUtf8) {
  auto value = ParseJson("\"\\u0041\\u00e9\\u20ac\"");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->string_value(), "A\xC3\xA9\xE2\x82\xAC");
}

TEST(JsonParseTest, DumpRoundTrips) {
  const std::string text =
      "{\"a\": [1, true, null, \"x\"], \"b\": {\"c\": -2}}";
  auto value = ParseJson(text);
  ASSERT_TRUE(value.ok());
  auto again = ParseJson(value->Dump());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(value->Dump(), again->Dump());
}

TEST(JsonParseTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
  EXPECT_FALSE(ParseJson("treu").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("\"bad\\q\"").ok());
  EXPECT_FALSE(ParseJson("{} trailing").ok());
  EXPECT_FALSE(ParseJson("1 2").ok());
}

TEST(JsonParseTest, RejectsDuplicateKeys) {
  auto value = ParseJson("{\"a\": 1, \"a\": 2}");
  ASSERT_FALSE(value.ok());
  EXPECT_NE(value.status().message().find("duplicate"), std::string::npos);
}

TEST(JsonParseTest, RejectsExcessiveNesting) {
  std::string deep;
  for (int i = 0; i < 80; ++i) deep += '[';
  deep += '1';
  for (int i = 0; i < 80; ++i) deep += ']';
  auto value = ParseJson(deep);
  ASSERT_FALSE(value.ok());
  EXPECT_NE(value.status().message().find("deep"), std::string::npos);
}

TEST(JsonParseTest, EscapeHelperCoversControls) {
  EXPECT_EQ(JsonEscape("a\"b\\c\n\t\x01"), "a\\\"b\\\\c\\n\\t\\u0001");
}

}  // namespace
}  // namespace fastod
