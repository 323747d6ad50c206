// Tests for per-session trace spans (src/obs/trace.{h,cc}) and their
// wiring through DiscoverySession: the recorder's JSON shape, and —
// the acceptance bar — that the per-level counters a session's trace
// reports are bit-for-bit the counters a direct engine run produces on
// the same data.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>

#include "api/algorithm.h"
#include "api/registry.h"
#include "common/json.h"
#include "data/csv.h"
#include "gen/generators.h"
#include "obs/metrics.h"
#include "service/discovery_service.h"
#include "test_util.h"

namespace fastod {
namespace {

class EnabledGuard {
 public:
  EnabledGuard() : saved_(obs::Enabled()) {}
  ~EnabledGuard() { obs::SetEnabled(saved_); }

 private:
  bool saved_;
};

TEST(TraceRecorder, RecordsSpansInOrder) {
  obs::TraceRecorder trace;
  trace.RecordSpan("first", 0.0, 0.5);
  trace.RecordSpan("second", 0.5, 0.25);
  Result<JsonValue> parsed = ParseJson(trace.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* spans = parsed->Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_TRUE(spans->is_array());
  ASSERT_EQ(spans->array_items().size(), 2u);
  EXPECT_EQ(spans->array_items()[0].Find("name")->string_value(), "first");
  EXPECT_EQ(spans->array_items()[1].Find("name")->string_value(),
            "second");
  EXPECT_DOUBLE_EQ(
      spans->array_items()[0].Find("duration_ms")->number_value(), 500.0);
  // No engine stats installed yet.
  EXPECT_TRUE(parsed->Find("engine")->is_null());
}

TEST(TraceRecorder, RaiiSpanRecordsOnScopeExit) {
  obs::TraceRecorder trace;
  { auto span = trace.StartSpan("scoped"); }
  Result<JsonValue> parsed = ParseJson(trace.ToJson());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->Find("spans")->array_items().size(), 1u);
  EXPECT_EQ(parsed->Find("spans")->array_items()[0]
                .Find("name")->string_value(),
            "scoped");
}

TEST(TraceRecorder, EngineStatsRenderTotalsAndLevels) {
  obs::TraceRecorder trace;
  obs::EngineStats stats;
  stats.levels_processed = 2;
  stats.nodes_visited = 7;
  stats.ods_emitted = 3;
  stats.levels.push_back(obs::LevelStats{1, 4, 0, 4, 0, 0, 1, 0.0});
  stats.levels.push_back(obs::LevelStats{2, 3, 1, 2, 2, 1, 2, 0.0});
  trace.SetEngineStats(stats);
  EXPECT_TRUE(trace.has_engine_stats());
  Result<JsonValue> parsed = ParseJson(trace.ToJson());
  ASSERT_TRUE(parsed.ok());
  const JsonValue* engine = parsed->Find("engine");
  ASSERT_TRUE(engine->is_object());
  EXPECT_EQ(engine->Find("nodes_visited")->int_value(), 7);
  EXPECT_EQ(engine->Find("ods_emitted")->int_value(), 3);
  ASSERT_EQ(engine->Find("levels")->array_items().size(), 2u);
  EXPECT_EQ(engine->Find("levels")->array_items()[1]
                .Find("nodes")->int_value(),
            3);
}

std::string WriteEmployeeCsvFile(const std::string& name) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << WriteCsvString(EmployeeTaxTable());
  return path;
}

/// Session trace vs a direct engine run on the same CSV: the per-level
/// node/validation counters must agree bit-for-bit (the engine is
/// deterministic; the session adds observation, not behavior).
TEST(SessionTrace, LevelCountersMatchDirectRun) {
  EnabledGuard guard;
  obs::SetEnabled(true);
  std::string path = WriteEmployeeCsvFile("trace_match.csv");

  Result<std::unique_ptr<Algorithm>> direct =
      AlgorithmRegistry::Default().Create("fastod");
  ASSERT_TRUE(direct.ok());
  Result<Table> table = ReadCsvFile(path, CsvOptions());
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*direct)->BindDataset(DatasetOf(std::move(table).value())).ok());
  ASSERT_TRUE((*direct)->Execute().ok());
  const obs::EngineStats& expected = (*direct)->stats();
  ASSERT_GT(expected.levels.size(), 0u);

  DiscoveryService service(2);
  Result<SessionId> id = service.Create("fastod");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.SubmitCsv(*id, path, CsvOptions()).ok());
  ASSERT_EQ(*service.Wait(*id), SessionState::kDone);

  Result<std::string> trace_json = service.TraceJson(*id);
  ASSERT_TRUE(trace_json.ok());
  Result<JsonValue> parsed = ParseJson(*trace_json);
  ASSERT_TRUE(parsed.ok()) << *trace_json;
  const JsonValue* engine = parsed->Find("engine");
  ASSERT_TRUE(engine != nullptr && engine->is_object()) << *trace_json;
  EXPECT_EQ(engine->Find("nodes_visited")->int_value(),
            expected.nodes_visited);
  EXPECT_EQ(engine->Find("ods_emitted")->int_value(),
            expected.ods_emitted);
  EXPECT_EQ(engine->Find("swap_sample_refutes")->int_value(),
            expected.swap_sample_refutes);
  // The employee table's FDs let some nodes share a parent's partition.
  EXPECT_GT(expected.partitions_reused, 0);
  EXPECT_EQ(engine->Find("partitions_reused")->int_value(),
            expected.partitions_reused);
  const JsonValue* levels = engine->Find("levels");
  ASSERT_TRUE(levels != nullptr && levels->is_array());
  ASSERT_EQ(levels->array_items().size(), expected.levels.size());
  for (size_t i = 0; i < expected.levels.size(); ++i) {
    const JsonValue& level = levels->array_items()[i];
    EXPECT_EQ(level.Find("level")->int_value(), expected.levels[i].level);
    EXPECT_EQ(level.Find("nodes")->int_value(), expected.levels[i].nodes);
    EXPECT_EQ(level.Find("nodes_pruned")->int_value(),
              expected.levels[i].nodes_pruned);
    EXPECT_EQ(level.Find("constancy_checks")->int_value(),
              expected.levels[i].constancy_checks);
    EXPECT_EQ(level.Find("swap_checks")->int_value(),
              expected.levels[i].swap_checks);
    EXPECT_EQ(level.Find("swap_sample_refutes")->int_value(),
              expected.levels[i].swap_sample_refutes);
    EXPECT_EQ(level.Find("partitions_reused")->int_value(),
              expected.levels[i].partitions_reused);
    EXPECT_EQ(level.Find("ods_found")->int_value(),
              expected.levels[i].ods_found);
  }
}

TEST(SessionTrace, DeferredCsvSessionRecordsPhaseSpans) {
  EnabledGuard guard;
  obs::SetEnabled(true);
  std::string path = WriteEmployeeCsvFile("trace_spans.csv");
  DiscoveryService service(1);
  Result<SessionId> id = service.Create("fastod");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.SubmitCsv(*id, path, CsvOptions()).ok());
  ASSERT_EQ(*service.Wait(*id), SessionState::kDone);
  std::string trace = *service.TraceJson(*id);
  // The deferred load reads straight into code columns and builds the
  // session-local dataset: tokenizing under csv.parse, interning under
  // encode, the level-1 partitions under partitions.level1, in that
  // order and before the run.
  const size_t parse = trace.find("\"csv.parse\"");
  const size_t encode = trace.find("\"encode\"");
  const size_t level1 = trace.find("\"partitions.level1\"");
  const size_t execute = trace.find("\"execute\"");
  ASSERT_NE(parse, std::string::npos) << trace;
  ASSERT_NE(execute, std::string::npos) << trace;
  EXPECT_LT(parse, encode) << trace;
  EXPECT_LT(encode, level1) << trace;
  EXPECT_LT(level1, execute) << trace;
  EXPECT_NE(trace.find("\"level[1]\""), std::string::npos) << trace;
}

// A poller that sees kDone must already find the session's engine stats
// in its trace and its terminal transition in the metrics registry: the
// session records both before it publishes the terminal state.
TEST(SessionTrace, DoneStateImpliesTraceAndMetricsRecorded) {
  EnabledGuard guard;
  obs::SetEnabled(true);
  obs::Counter* done = obs::Registry::Global().GetCounter(
      "fastod_sessions_total",
      "Discovery sessions reaching a terminal state",
      {{"algorithm", "fastod"}, {"state", "done"}});
  const int64_t before = done->Value();
  DiscoveryService service(2);
  for (int i = 0; i < 20; ++i) {
    Result<SessionId> id = service.Create("fastod");
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(service.BindDataset(*id, DatasetOf(EmployeeTaxTable())).ok());
    ASSERT_TRUE(service.Submit(*id).ok());
    SessionState state = SessionState::kQueued;
    while (!IsTerminal(state)) {
      Result<DiscoveryService::PollInfo> info = service.Poll(*id);
      ASSERT_TRUE(info.ok());
      state = info->state;
    }
    // The counter first: it is the last thing the session records.
    EXPECT_EQ(done->Value(), before + i + 1) << "session " << i;
    ASSERT_EQ(state, SessionState::kDone) << "session " << i;
    Result<std::string> trace = service.TraceJson(*id);
    ASSERT_TRUE(trace.ok());
    EXPECT_NE(trace->find("\"nodes_visited\""), std::string::npos)
        << "session " << i << ": " << *trace;
  }
}

TEST(SessionTrace, DisabledMetricsLeaveTraceEmpty) {
  EnabledGuard guard;
  obs::SetEnabled(false);
  DiscoveryService service(1);
  Result<SessionId> id = service.Create("fastod");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.BindDataset(*id, DatasetOf(EmployeeTaxTable())).ok());
  ASSERT_TRUE(service.Submit(*id).ok());
  ASSERT_EQ(*service.Wait(*id), SessionState::kDone);
  std::string trace = *service.TraceJson(*id);
  EXPECT_EQ(trace, "{\"spans\": [], \"engine\": null}") << trace;
}

}  // namespace
}  // namespace fastod
