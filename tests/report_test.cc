#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "algo/fastod.h"
#include "algo/tane.h"
#include "api/od_sink.h"
#include "api/registry.h"
#include "common/json.h"
#include "data/csv.h"
#include "data/encode.h"
#include "data/table.h"
#include "report/report.h"
#include "test_util.h"

namespace fastod {
namespace {

TEST(JsonEscapeTest, EscapesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

class ReportTest : public ::testing::Test {
 protected:
  ReportTest() {
    auto t = ReadCsvString("x,y\n1,10\n2,20\n3,30\n");
    EXPECT_TRUE(t.ok());
    table_ = std::move(t).value();
    auto rel = EncodedRelation::FromTable(table_);
    EXPECT_TRUE(rel.ok());
    rel_ = std::move(rel).value();
  }

  RelationInfo Info() {
    return RelationInfo{rel_.NumRows(), &rel_.schema()};
  }

  Table table_;
  EncodedRelation rel_;
};

TEST_F(ReportTest, FastodJsonHasAllSections) {
  FastodResult r = Fastod().Discover(rel_);
  std::string json = FastodResultToJson(r, Info());
  EXPECT_NE(json.find("\"algorithm\": \"fastod\""), std::string::npos);
  EXPECT_NE(json.find("\"rows\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"constancy_ods\""), std::string::npos);
  EXPECT_NE(json.find("\"compatibility_ods\""), std::string::npos);
  EXPECT_NE(json.find("\"bidirectional_ods\""), std::string::npos);
  // x ~ y holds at the top level on this data.
  EXPECT_NE(json.find("\"a\": \"x\", \"b\": \"y\""), std::string::npos);
}

TEST_F(ReportTest, FastodTextSummaryLine) {
  FastodResult r = Fastod().Discover(rel_);
  std::string text = FastodResultToText(r, Info());
  EXPECT_NE(text.find("FASTOD:"), std::string::npos);
  EXPECT_NE(text.find("x ~ y"), std::string::npos);
}

TEST_F(ReportTest, TaneJsonAndText) {
  TaneResult r = Tane().Discover(rel_);
  std::string json = TaneResultToJson(r, Info());
  EXPECT_NE(json.find("\"algorithm\": \"tane\""), std::string::npos);
  EXPECT_NE(json.find("\"fds\""), std::string::npos);
  std::string text = TaneResultToText(r, Info());
  EXPECT_NE(text.find("TANE:"), std::string::npos);
}

TEST_F(ReportTest, OrderJsonAndText) {
  OrderResult r = OrderBaseline().Discover(rel_);
  std::string json = OrderResultToJson(r, Info());
  EXPECT_NE(json.find("\"algorithm\": \"order\""), std::string::npos);
  EXPECT_NE(json.find("\"ods\""), std::string::npos);
  std::string text = OrderResultToText(r, Info());
  EXPECT_NE(text.find("ORDER:"), std::string::npos);
  EXPECT_NE(text.find("orders"), std::string::npos);
}

TEST_F(ReportTest, JsonIsBalanced) {
  // Cheap structural check: equal counts of braces/brackets and an even
  // number of unescaped quotes.
  FastodResult r = Fastod().Discover(rel_);
  std::string json = FastodResultToJson(r, Info());
  int braces = 0;
  int brackets = 0;
  int quotes = 0;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    bool escaped = i > 0 && json[i - 1] == '\\';
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    if (c == '"' && !escaped) ++quotes;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_EQ(quotes % 2, 0);
}

TEST_F(ReportTest, TimedOutFlagRendered) {
  FastodResult r;
  r.timed_out = true;
  std::string json = FastodResultToJson(r, Info());
  EXPECT_NE(json.find("\"timed_out\": true"), std::string::npos);
  std::string text = FastodResultToText(r, Info());
  EXPECT_NE(text.find("[TIMED OUT]"), std::string::npos);
}

TEST_F(ReportTest, CancelledFlagRendered) {
  FastodResult r;
  r.cancelled = true;
  Result<JsonValue> json = ParseJson(FastodResultToJson(r, Info()));
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  const JsonValue* cancelled = json->Find("stats")->Find("cancelled");
  ASSERT_NE(cancelled, nullptr);
  EXPECT_TRUE(cancelled->bool_value());
  EXPECT_FALSE(json->Find("stats")->Find("timed_out")->bool_value());
  EXPECT_NE(FastodResultToText(r, Info()).find("[CANCELLED]"),
            std::string::npos);
  TaneResult tane;
  tane.cancelled = true;
  EXPECT_NE(TaneResultToText(tane, Info()).find("[CANCELLED]"),
            std::string::npos);
  OrderResult order;
  order.cancelled = true;
  EXPECT_NE(OrderResultToText(order, Info()).find("[CANCELLED]"),
            std::string::npos);
}

// ------------------------------------------------ names that need escaping

// A quote, a backslash, a control byte, and non-ASCII UTF-8.
const std::vector<std::string>& HostileNames() {
  static const std::vector<std::string> names = {
      "q\"uote", "back\\slash", std::string("ctl\x01") + "byte",
      "utf8 \xc3\xa9\xe2\x86\x92"};
  return names;
}

// Rows 0-3 hold region 0 (the last column rises with the first), rows
// 4-7 region 1 (it falls): the first four rows are the incremental base,
// and the delta revokes ODs that held on them.
Table HostileTable(int rows) {
  const std::vector<std::string>& names = HostileNames();
  TableBuilder builder(Schema({{names[0], DataType::kInt},
                               {names[1], DataType::kInt},
                               {names[2], DataType::kInt},
                               {names[3], DataType::kInt}}));
  for (int r = 0; r < rows; ++r) {
    int region = r < 4 ? 0 : 1;
    EXPECT_TRUE(builder
                    .AddRow({Value::Int(r), Value::Int(r / 2),
                             Value::Int(region),
                             Value::Int(region == 0 ? r : 100 - r)})
                    .ok());
  }
  return builder.Build();
}

// Checks every attribute-name string under `value` against the schema's
// names (a mangled escape would not match) and counts those found in OD
// members.
int CheckNames(const JsonValue& value) {
  static const std::set<std::string> kNameKeys = {
      "context", "lhs", "rhs", "attribute", "a", "b", "condition"};
  const std::set<std::string> names(HostileNames().begin(),
                                    HostileNames().end());
  int found = 0;
  auto check = [&](const JsonValue& name) {
    EXPECT_TRUE(name.is_string() && names.count(name.string_value()) > 0)
        << name.Dump();
    ++found;
  };
  if (value.is_array()) {
    for (const JsonValue& item : value.array_items()) {
      found += CheckNames(item);
    }
  }
  for (const auto& [key, member] : value.object_items()) {
    if (key == "attributes") {
      std::vector<std::string> got;
      for (const JsonValue& name : member.array_items()) {
        got.push_back(name.string_value());
      }
      EXPECT_EQ(got, HostileNames());
    } else if (key == "od") {
      // The conditional OD's rendering embeds names.
      bool mentions = false;
      for (const std::string& name : names) {
        mentions |= member.string_value().find(name) != std::string::npos;
      }
      EXPECT_TRUE(mentions) << member.Dump();
    } else if (kNameKeys.count(key) > 0 && member.is_array()) {
      for (const JsonValue& name : member.array_items()) check(name);
    } else if (kNameKeys.count(key) > 0) {
      check(member);
    } else {
      found += CheckNames(member);
    }
  }
  return found;
}

TEST(ReportEscapingTest, EveryEngineReportAndStreamLineRoundTripsNames) {
  const Table full = HostileTable(8);
  const Table base = HostileTable(4);
  auto prior_engine = AlgorithmRegistry::Default().Create("fastod");
  ASSERT_TRUE(prior_engine.ok());
  ASSERT_TRUE((*prior_engine)->BindDataset(DatasetOf(base)).ok());
  ASSERT_TRUE((*prior_engine)->Execute().ok());
  const std::string prior = (*prior_engine)->ResultJson();

  bool saw_revoked = false;
  for (const char* name : {"fastod", "tane", "order", "brute-force",
                           "approximate", "conditional", "incremental"}) {
    SCOPED_TRACE(name);
    auto algo = AlgorithmRegistry::Default().Create(name);
    ASSERT_TRUE(algo.ok());
    if (std::string(name) == "conditional") {
      ASSERT_TRUE((*algo)->SetOption("min-support", "0").ok());
    }
    if (std::string(name) == "incremental") {
      ASSERT_TRUE((*algo)->SetOption("prior", prior).ok());
      ASSERT_TRUE((*algo)->SetOption("base-rows", "4").ok());
    }
    ASSERT_TRUE((*algo)->BindDataset(DatasetOf(full)).ok());
    Status executed = (*algo)->Execute();
    ASSERT_TRUE(executed.ok()) << executed.ToString();
    Result<JsonValue> report = ParseJson((*algo)->ResultJson());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_GT(CheckNames(*report), 0);

    // The same run streamed: every event renders to one parseable line.
    ChannelOdSink channel(1 << 12);
    (*algo)->SetSink(&channel);
    ASSERT_TRUE((*algo)->Execute().ok());
    channel.Close();
    OdEvent event;
    int lines = 0;
    while (channel.Pop(&event, std::chrono::milliseconds(0))) {
      saw_revoked |= std::holds_alternative<RevokedOd>(event);
      std::string line = EventJsonLine(event, *(*algo)->loaded_relation());
      ASSERT_EQ(line.back(), '\n');
      Result<JsonValue> parsed = ParseJson(line);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << line;
      EXPECT_GT(CheckNames(*parsed), 0) << line;
      ++lines;
    }
    EXPECT_GT(lines, 0);
  }
  EXPECT_TRUE(saw_revoked);
}

}  // namespace
}  // namespace fastod
