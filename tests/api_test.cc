// Tests for the unified Algorithm API (src/api/): the typed option
// registry, the factory, the streaming OdSink, cancellation, and —
// centrally — that every engine reached through
// AlgorithmRegistry::Create(name) produces bit-for-bit the same output as
// its legacy direct entry point.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "algo/brute_force_discovery.h"
#include "algo/conditional.h"
#include "algo/fastod.h"
#include "algo/order.h"
#include "algo/tane.h"
#include "api/engines.h"
#include "api/od_sink.h"
#include "api/registry.h"
#include "common/json.h"
#include "gen/generators.h"
#include "test_util.h"

namespace fastod {
namespace {

// ------------------------------------------------------ option registry

TEST(OptionRegistryTest, TypedParseSuccess) {
  FastodAlgorithm algo;
  EXPECT_TRUE(algo.SetOption("threads", "4").ok());
  EXPECT_TRUE(algo.SetOption("max-error", "0.25").ok());
  EXPECT_TRUE(algo.SetOption("bidirectional", "true").ok());
  EXPECT_TRUE(algo.SetOption("swap-method", "tau").ok());
  EXPECT_EQ(algo.discovery_options().num_threads, 4);
  EXPECT_DOUBLE_EQ(algo.discovery_options().max_error, 0.25);
  EXPECT_TRUE(algo.discovery_options().discover_bidirectional);
}

TEST(OptionRegistryTest, BareBoolMeansTrue) {
  // --bidirectional with no value, as the CLI forwards it.
  FastodAlgorithm algo;
  EXPECT_TRUE(algo.SetOption("bidirectional", "").ok());
  EXPECT_TRUE(algo.discovery_options().discover_bidirectional);
  EXPECT_TRUE(algo.SetOption("bidirectional", "false").ok());
  EXPECT_FALSE(algo.discovery_options().discover_bidirectional);
}

TEST(OptionRegistryTest, TypedParseFailures) {
  FastodAlgorithm algo;
  // Wrong shapes.
  EXPECT_FALSE(algo.SetOption("threads", "four").ok());
  EXPECT_FALSE(algo.SetOption("max-error", "lots").ok());
  EXPECT_FALSE(algo.SetOption("bidirectional", "maybe").ok());
  EXPECT_FALSE(algo.SetOption("swap-method", "psychic").ok());
  // Out of range.
  EXPECT_FALSE(algo.SetOption("threads", "0").ok());
  EXPECT_FALSE(algo.SetOption("max-error", "1.5").ok());
  EXPECT_FALSE(algo.SetOption("max-level", "-3").ok());
  // A failed set leaves the previous value intact.
  EXPECT_EQ(algo.discovery_options().num_threads, 1);
}

TEST(OptionRegistryTest, ErrorsNameTheOption) {
  FastodAlgorithm algo;
  Status s = algo.SetOption("threads", "four");
  EXPECT_NE(s.message().find("threads"), std::string::npos);
  EXPECT_NE(s.message().find("four"), std::string::npos);
}

TEST(OptionRegistryTest, UnknownOptionListsAvailable) {
  TaneAlgorithm algo;
  Status s = algo.SetOption("swap-method", "sort");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("unknown option 'swap-method'"),
            std::string::npos);
  EXPECT_NE(s.message().find("timeout-ms"), std::string::npos);
  EXPECT_NE(s.message().find("max-level"), std::string::npos);
}

TEST(OptionRegistryTest, GetNeededOptions) {
  FastodAlgorithm fastod;
  std::vector<std::string> names = fastod.GetNeededOptions();
  for (const char* expected :
       {"timeout-ms", "threads", "max-level", "max-error",
        "bidirectional", "emit-ods", "minimality-pruning", "level-pruning",
        "key-pruning", "level-stats", "swap-method"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  EXPECT_EQ(names.size(), 11u);
}

TEST(OptionRegistryTest, FindOptionMetadata) {
  FastodAlgorithm algo;
  const OptionInfo* info = algo.FindOption("swap-method");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->type_name, "enum");
  EXPECT_EQ(info->default_repr, "auto");
  EXPECT_EQ(info->enum_values.size(), 3u);
  EXPECT_EQ(algo.FindOption("no-such-option"), nullptr);
}

TEST(OptionRegistryTest, DescribeOptionsSnapshot) {
  // The generated help is load-bearing for the CLI; pin its shape.
  TaneAlgorithm algo;
  EXPECT_EQ(algo.DescribeOptions(),
            "  --timeout-ms=<int>               deadline in milliseconds; "
            "exceeding it stops the run and fails it with DeadlineExceeded "
            "(0 = none) (default: 0)\n"
            "  --threads=<int>                  worker threads for "
            "intra-level parallelism (default: 1)\n"
            "  --max-level=<int>                stop after lattice level L "
            "(0 = none) (default: 0)\n"
            "  --emit-ods=<bool>                materialize FDs (false = "
            "count only) (default: true)\n");
}

TEST(OptionRegistryTest, DeprecatedSpellingsStillResolve) {
  // Underscore spellings resolve by hyphen normalization; "emit-fds" and
  // "num-threads" are not option names.
  TaneAlgorithm tane;
  ASSERT_TRUE(tane.SetOption("emit_ods", "false").ok());
  EXPECT_EQ(tane.SetOption("emit-fds", "true").code(),
            StatusCode::kNotFound);
  FastodAlgorithm fastod;
  ASSERT_TRUE(fastod.SetOption("max_level", "3").ok());
  EXPECT_EQ(fastod.discovery_options().max_level, 3);
  ASSERT_TRUE(fastod.SetOption("threads", "4").ok());
  EXPECT_EQ(fastod.SetOption("num-threads", "2").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(fastod.SetOption("num_threads", "2").code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(fastod.SetOption("nope-threads", "4").ok());
}

TEST(OptionRegistryTest, ApproximateSurfacesItsOwnDefault) {
  ApproximateAlgorithm algo;
  const OptionInfo* info = algo.FindOption("max-error");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->default_repr, "0.01");
}

TEST(OptionRegistryTest, KindsMatchTypeNames) {
  // The kind enum crosses the C ABI; it must agree with the string form.
  FastodAlgorithm algo;
  EXPECT_EQ(algo.FindOption("threads")->kind, OptionKind::kInt);
  EXPECT_EQ(algo.FindOption("max-error")->kind, OptionKind::kDouble);
  EXPECT_EQ(algo.FindOption("bidirectional")->kind, OptionKind::kBool);
  EXPECT_EQ(algo.FindOption("swap-method")->kind, OptionKind::kEnum);
  ConditionalAlgorithm conditional;
  EXPECT_EQ(conditional.FindOption("limit")->kind, OptionKind::kInt);
}

TEST(OptionRegistryTest, ReSetOptionBetweenExecutesOnSameData) {
  // Reconfiguring between two Execute() calls on the same loaded data
  // must behave exactly like a fresh run with the final configuration.
  FastodAlgorithm algo;
  ASSERT_TRUE(algo.BindDataset(DatasetOf(EmployeeTaxTable())).ok());
  ASSERT_TRUE(algo.SetOption("max-level", "1").ok());
  ASSERT_TRUE(algo.Execute().ok());
  int64_t level1 = algo.result().NumOds();

  ASSERT_TRUE(algo.SetOption("max-level", "0").ok());
  ASSERT_TRUE(algo.SetOption("bidirectional", "true").ok());
  ASSERT_TRUE(algo.Execute().ok());

  FastodAlgorithm fresh;
  ASSERT_TRUE(fresh.SetOption("bidirectional", "true").ok());
  ASSERT_TRUE(fresh.BindDataset(DatasetOf(EmployeeTaxTable())).ok());
  ASSERT_TRUE(fresh.Execute().ok());
  EXPECT_EQ(algo.result().constancy_ods, fresh.result().constancy_ods);
  EXPECT_EQ(algo.result().compatibility_ods,
            fresh.result().compatibility_ods);
  EXPECT_EQ(algo.result().bidirectional_ods,
            fresh.result().bidirectional_ods);
  EXPECT_NE(algo.result().NumOds(), level1);
}

TEST(OptionRegistryTest, UnknownOptionAfterSuccessfulRuns) {
  // A stale frontend probing an option that does not exist must not
  // disturb an already-configured, already-executed instance.
  FastodAlgorithm algo;
  ASSERT_TRUE(algo.SetOption("max-level", "2").ok());
  ASSERT_TRUE(algo.BindDataset(DatasetOf(EmployeeTaxTable())).ok());
  ASSERT_TRUE(algo.Execute().ok());
  int64_t before = algo.result().NumOds();

  Status s = algo.SetOption("does-not-exist", "1");
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_NE(s.message().find("does-not-exist"), std::string::npos);

  ASSERT_TRUE(algo.Execute().ok());
  EXPECT_EQ(algo.result().NumOds(), before);
}

TEST(OptionRegistryTest, OutOfRangeValuesNameTheOption) {
  FastodAlgorithm algo;
  for (const auto& [name, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"threads", "100000"},
           {"threads", "-1"},
           {"max-error", "1.0001"},
           {"max-level", "65"}}) {
    Status s = algo.SetOption(name, value);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << name;
    EXPECT_NE(s.message().find(name), std::string::npos)
        << "message must name the option: " << s.message();
    EXPECT_NE(s.message().find(value), std::string::npos)
        << "message must carry the offending value: " << s.message();
  }
  ConditionalAlgorithm conditional;
  Status s = conditional.SetOption("limit", "0");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("limit"), std::string::npos);
}

// ------------------------------------------------------------- registry

TEST(AlgorithmRegistryTest, DefaultHasAllSixEngines) {
  AlgorithmRegistry& registry = AlgorithmRegistry::Default();
  for (const char* name : {"fastod", "tane", "order", "brute-force",
                           "approximate", "conditional"}) {
    EXPECT_TRUE(registry.Contains(name)) << name;
    auto algo = registry.Create(name);
    ASSERT_TRUE(algo.ok()) << name;
    EXPECT_EQ((*algo)->name(), name);
  }
}

TEST(AlgorithmRegistryTest, UnknownNameListsRegistered) {
  auto algo = AlgorithmRegistry::Default().Create("magic");
  ASSERT_FALSE(algo.ok());
  EXPECT_EQ(algo.status().code(), StatusCode::kNotFound);
  EXPECT_NE(algo.status().message().find("magic"), std::string::npos);
  EXPECT_NE(algo.status().message().find("fastod"), std::string::npos);
  EXPECT_NE(algo.status().message().find("conditional"), std::string::npos);
}

TEST(AlgorithmRegistryTest, DescribeAlgorithmsCoversEveryEngine) {
  std::string usage = AlgorithmRegistry::Default().DescribeAlgorithms();
  EXPECT_NE(usage.find("fastod —"), std::string::npos);
  EXPECT_NE(usage.find("--swap-method"), std::string::npos);
  EXPECT_NE(usage.find("brute-force —"), std::string::npos);
  EXPECT_NE(usage.find("--min-support"), std::string::npos);
}

// ------------------------------------------------------------ lifecycle

TEST(AlgorithmLifecycleTest, ExecuteWithoutDataFails) {
  // BindDataset is the only way in; every engine refuses to run unbound.
  for (const std::string& name : AlgorithmRegistry::Default().Names()) {
    auto algo = AlgorithmRegistry::Default().Create(name);
    ASSERT_TRUE(algo.ok()) << name;
    EXPECT_FALSE((*algo)->has_data()) << name;
    Status s = (*algo)->Execute();
    EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << name;
    EXPECT_NE(s.message().find("BindDataset"), std::string::npos) << name;
    EXPECT_FALSE((*algo)->executed()) << name;
  }
}

TEST(AlgorithmLifecycleTest, ExecuteAccountsWallClock) {
  FastodAlgorithm algo;
  ASSERT_TRUE(algo.BindDataset(DatasetOf(EmployeeTaxTable())).ok());
  ASSERT_TRUE(algo.Execute().ok());
  EXPECT_TRUE(algo.executed());
  EXPECT_GE(algo.execute_seconds(), 0.0);
}

TEST(AlgorithmLifecycleTest, ReExecuteAfterReconfigure) {
  FastodAlgorithm algo;
  ASSERT_TRUE(algo.BindDataset(DatasetOf(EmployeeTaxTable())).ok());
  ASSERT_TRUE(algo.Execute().ok());
  int64_t exact = algo.result().NumOds();
  ASSERT_TRUE(algo.SetOption("max-level", "1").ok());
  ASSERT_TRUE(algo.Execute().ok());
  EXPECT_LT(algo.result().NumOds(), exact);
}

TEST(AlgorithmLifecycleTest, BruteForceRejectsWideRelations) {
  BruteForceAlgorithm algo;
  ASSERT_TRUE(algo.BindDataset(DatasetOf(GenFlightLike(20, 20, 7))).ok());
  Status s = algo.Execute();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("16"), std::string::npos);
}

// ------------------------------------- cross-engine equivalence (legacy)

class ApiEquivalenceTest : public ::testing::Test {
 protected:
  ApiEquivalenceTest() : table_(EmployeeTaxTable()) {
    auto rel = EncodedRelation::FromTable(table_);
    EXPECT_TRUE(rel.ok());
    rel_ = std::move(rel).value();
  }

  std::unique_ptr<Algorithm> Create(const std::string& name) {
    auto algo = AlgorithmRegistry::Default().Create(name);
    EXPECT_TRUE(algo.ok()) << name;
    EXPECT_TRUE((*algo)->BindDataset(DatasetOf(table_)).ok()) << name;
    EXPECT_TRUE((*algo)->Execute().ok()) << name;
    return std::move(*algo);
  }

  Table table_;
  std::optional<EncodedRelation> rel_;
};

TEST_F(ApiEquivalenceTest, FastodMatchesLegacy) {
  std::unique_ptr<Algorithm> algo = Create("fastod");
  const auto& api = static_cast<FastodAlgorithm&>(*algo).result();
  FastodResult legacy = Fastod().Discover(*rel_);
  EXPECT_EQ(api.constancy_ods, legacy.constancy_ods);
  EXPECT_EQ(api.compatibility_ods, legacy.compatibility_ods);
  EXPECT_EQ(api.num_constancy, legacy.num_constancy);
  EXPECT_EQ(api.num_compatibility, legacy.num_compatibility);
}

TEST_F(ApiEquivalenceTest, TaneMatchesLegacy) {
  std::unique_ptr<Algorithm> algo = Create("tane");
  const auto& api = static_cast<TaneAlgorithm&>(*algo).result();
  TaneResult legacy = Tane().Discover(*rel_);
  EXPECT_EQ(api.fds, legacy.fds);
  EXPECT_EQ(api.num_fds, legacy.num_fds);
}

TEST_F(ApiEquivalenceTest, OrderMatchesLegacy) {
  // Bounded: ORDER's list lattice is factorial in the 8 employee columns.
  auto algo = AlgorithmRegistry::Default().Create("order");
  ASSERT_TRUE(algo.ok());
  ASSERT_TRUE((*algo)->SetOption("max-level", "3").ok());
  ASSERT_TRUE((*algo)->BindDataset(DatasetOf(table_)).ok());
  ASSERT_TRUE((*algo)->Execute().ok());
  const auto& api = static_cast<OrderAlgorithm&>(**algo).result();
  OrderOptions legacy_options;
  legacy_options.max_level = 3;
  OrderResult legacy = OrderBaseline(legacy_options).Discover(*rel_);
  EXPECT_EQ(api.ods, legacy.ods);
  EXPECT_EQ(api.candidates_checked, legacy.candidates_checked);
}

TEST_F(ApiEquivalenceTest, BruteForceMatchesLegacy) {
  std::unique_ptr<Algorithm> algo = Create("brute-force");
  const auto& api = static_cast<BruteForceAlgorithm&>(*algo).result();
  BruteForceDiscoveryResult legacy = BruteForceDiscoverOds(*rel_);
  EXPECT_EQ(api.constancy_ods, legacy.constancy_ods);
  EXPECT_EQ(api.compatibility_ods, legacy.compatibility_ods);
  EXPECT_EQ(api.all_valid_constancy, legacy.all_valid_constancy);
  EXPECT_EQ(api.all_valid_compatibility, legacy.all_valid_compatibility);
}

TEST_F(ApiEquivalenceTest, ApproximateMatchesLegacyAtSameThreshold) {
  auto algo = AlgorithmRegistry::Default().Create("approximate");
  ASSERT_TRUE(algo.ok());
  ASSERT_TRUE((*algo)->SetOption("max-error", "0.2").ok());
  ASSERT_TRUE((*algo)->BindDataset(DatasetOf(table_)).ok());
  ASSERT_TRUE((*algo)->Execute().ok());
  const auto& api = static_cast<FastodAlgorithm&>(**algo).result();

  FastodOptions legacy_options;
  legacy_options.max_error = 0.2;
  FastodResult legacy = Fastod(legacy_options).Discover(*rel_);
  EXPECT_EQ(api.constancy_ods, legacy.constancy_ods);
  EXPECT_EQ(api.compatibility_ods, legacy.compatibility_ods);
}

TEST_F(ApiEquivalenceTest, ConditionalMatchesLegacy) {
  std::unique_ptr<Algorithm> algo = Create("conditional");
  const auto& api = static_cast<ConditionalAlgorithm&>(*algo).result();
  ConditionalOdFinder finder(&*rel_);
  std::vector<ConditionalOd> legacy = finder.DiscoverConditional();
  ASSERT_EQ(api.size(), legacy.size());
  for (size_t i = 0; i < api.size(); ++i) {
    EXPECT_EQ(api[i].condition_attribute, legacy[i].condition_attribute);
    EXPECT_EQ(api[i].binding_ranks, legacy[i].binding_ranks);
    EXPECT_DOUBLE_EQ(api[i].support, legacy[i].support);
  }
}

TEST_F(ApiEquivalenceTest, JsonNamesTheAlgorithm) {
  for (const char* name : {"fastod", "tane", "order", "brute-force",
                           "approximate", "conditional"}) {
    auto created = AlgorithmRegistry::Default().Create(name);
    ASSERT_TRUE(created.ok()) << name;
    std::unique_ptr<Algorithm> algo = std::move(*created);
    if (algo->FindOption("max-level") != nullptr) {
      ASSERT_TRUE(algo->SetOption("max-level", "2").ok());
    }
    ASSERT_TRUE(algo->BindDataset(DatasetOf(table_)).ok()) << name;
    ASSERT_TRUE(algo->Execute().ok()) << name;
    std::string json = algo->ResultJson();
    EXPECT_NE(json.find("\"algorithm\": \"" + std::string(name) + "\""),
              std::string::npos)
        << name;
  }
}

// ------------------------------------------------------------ streaming

TEST_F(ApiEquivalenceTest, FastodSinkTeesAndStillMaterializes) {
  // Streaming tees by default: the sink receives the legacy sequence AND
  // the result vectors fill (so a streamed session can still render its
  // full report); emit-ods=false opts back into count-only memory use.
  CollectingOdSink sink;
  FastodAlgorithm algo;
  algo.SetSink(&sink);
  ASSERT_TRUE(algo.BindDataset(DatasetOf(table_)).ok());
  ASSERT_TRUE(algo.Execute().ok());
  FastodResult legacy = Fastod().Discover(*rel_);
  EXPECT_EQ(sink.constancy_ods(), legacy.constancy_ods);
  EXPECT_EQ(sink.compatibility_ods(), legacy.compatibility_ods);
  EXPECT_EQ(algo.result().constancy_ods, legacy.constancy_ods);
  EXPECT_EQ(algo.result().compatibility_ods, legacy.compatibility_ods);
  EXPECT_EQ(algo.result().num_constancy, legacy.num_constancy);
  EXPECT_EQ(algo.result().num_compatibility, legacy.num_compatibility);
}

TEST_F(ApiEquivalenceTest, FastodSinkStreamsNoPruningWithoutEmitOds) {
  // The Exp-6 shape: no-pruning ablation counts every valid OD. Streaming
  // with emit-ods=false must deliver the same totals with empty vectors.
  CountingOdSink sink;
  FastodAlgorithm algo;
  algo.SetSink(&sink);
  ASSERT_TRUE(algo.SetOption("minimality-pruning", "false").ok());
  ASSERT_TRUE(algo.SetOption("emit-ods", "false").ok());
  ASSERT_TRUE(algo.BindDataset(DatasetOf(table_)).ok());
  ASSERT_TRUE(algo.Execute().ok());
  FastodOptions legacy_options;
  legacy_options.minimality_pruning = false;
  legacy_options.emit_ods = false;
  FastodResult legacy = Fastod(legacy_options).Discover(*rel_);
  EXPECT_EQ(sink.num_constancy(), legacy.num_constancy);
  EXPECT_EQ(sink.num_compatibility(), legacy.num_compatibility);
  EXPECT_GT(sink.Total(), 0);
  EXPECT_TRUE(algo.result().constancy_ods.empty());
}

TEST_F(ApiEquivalenceTest, TaneSinkStreamsFds) {
  CollectingOdSink sink;
  TaneAlgorithm algo;
  algo.SetSink(&sink);
  ASSERT_TRUE(algo.BindDataset(DatasetOf(table_)).ok());
  ASSERT_TRUE(algo.Execute().ok());
  TaneResult legacy = Tane().Discover(*rel_);
  EXPECT_EQ(sink.constancy_ods(), legacy.fds);
  EXPECT_EQ(algo.result().fds, legacy.fds);  // tees, like FASTOD
  EXPECT_EQ(algo.result().num_fds, legacy.num_fds);

  // Count-only mode drops the vector but keeps streaming and counts.
  CollectingOdSink count_only_sink;
  TaneAlgorithm count_only;
  count_only.SetSink(&count_only_sink);
  ASSERT_TRUE(count_only.SetOption("emit-ods", "false").ok());
  ASSERT_TRUE(count_only.BindDataset(DatasetOf(table_)).ok());
  ASSERT_TRUE(count_only.Execute().ok());
  EXPECT_TRUE(count_only.result().fds.empty());
  EXPECT_EQ(count_only.result().num_fds, legacy.num_fds);
  EXPECT_EQ(count_only_sink.constancy_ods(), legacy.fds);
}

TEST_F(ApiEquivalenceTest, OrderSinkTeesListOds) {
  CollectingOdSink sink;
  OrderAlgorithm algo;
  algo.SetSink(&sink);
  ASSERT_TRUE(algo.SetOption("max-level", "3").ok());
  ASSERT_TRUE(algo.BindDataset(DatasetOf(table_)).ok());
  ASSERT_TRUE(algo.Execute().ok());
  // ORDER tees: vector retained (used for implication checks) AND
  // streamed.
  EXPECT_EQ(sink.list_ods(), algo.result().ods);
  EXPECT_FALSE(sink.list_ods().empty());
}

// --------------------------------------------------------- cancellation

TEST_F(ApiEquivalenceTest, PreCancelledControlStopsEarly) {
  for (const char* name : {"fastod", "tane", "order"}) {
    SCOPED_TRACE(name);
    ExecutionControl control;
    control.RequestCancel();
    auto algo = AlgorithmRegistry::Default().Create(name);
    ASSERT_TRUE(algo.ok());
    (*algo)->SetControl(&control);
    ASSERT_TRUE((*algo)->BindDataset(DatasetOf(table_)).ok());
    ASSERT_TRUE((*algo)->Execute().ok());  // cancellation is not an error
    // At most the first level ran, and progress must not read as complete.
    EXPECT_LE((*algo)->stats().levels_processed, 1);
    EXPECT_LT(control.Progress(), 1.0);
    // The report says it is partial.
    Result<JsonValue> report = ParseJson((*algo)->ResultJson());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const JsonValue* stats = report->Find("stats");
    ASSERT_NE(stats, nullptr);
    const JsonValue* cancelled = stats->Find("cancelled");
    ASSERT_NE(cancelled, nullptr);
    EXPECT_TRUE(cancelled->is_bool() && cancelled->bool_value());
    EXPECT_NE((*algo)->ResultText().find("[CANCELLED]"), std::string::npos);
  }
  FastodAlgorithm fastod;
  ExecutionControl control;
  control.RequestCancel();
  fastod.SetControl(&control);
  ASSERT_TRUE(fastod.BindDataset(DatasetOf(table_)).ok());
  ASSERT_TRUE(fastod.Execute().ok());
  EXPECT_TRUE(fastod.result().cancelled);
}

TEST_F(ApiEquivalenceTest, ControlReportsCompletion) {
  ExecutionControl control;
  TaneAlgorithm algo;
  algo.SetControl(&control);
  ASSERT_TRUE(algo.BindDataset(DatasetOf(table_)).ok());
  ASSERT_TRUE(algo.Execute().ok());
  EXPECT_FALSE(algo.result().cancelled);
  EXPECT_DOUBLE_EQ(control.Progress(), 1.0);
}

// --------------------------------------------------- ChannelOdSink

TEST(ChannelOdSinkTest, DeliversEventsInOrderAcrossThreads) {
  ChannelOdSink channel(8);
  std::thread producer([&] {
    for (int i = 0; i < 100; ++i) {
      channel.OnConstancy(ConstancyOd{AttributeSet(), i % 7});
    }
    channel.Close();
  });
  int popped = 0;
  OdEvent event;
  while (true) {
    if (!channel.Pop(&event, std::chrono::milliseconds(100))) {
      if (channel.closed()) break;
      continue;
    }
    ASSERT_TRUE(std::holds_alternative<ConstancyOd>(event));
    EXPECT_EQ(std::get<ConstancyOd>(event).attribute, popped % 7);
    ++popped;
  }
  producer.join();
  EXPECT_EQ(popped, 100);
  EXPECT_EQ(channel.pushed(), 100);
  EXPECT_EQ(channel.dropped(), 0);
}

TEST(ChannelOdSinkTest, BackpressureBlocksProducerUntilPopped) {
  ChannelOdSink channel(2);
  std::atomic<int> produced{0};
  std::thread producer([&] {
    for (int i = 0; i < 5; ++i) {
      channel.OnConstancy(ConstancyOd{AttributeSet(), i});
      produced.fetch_add(1);
    }
  });
  // Capacity 2: the producer cannot run ahead of the consumer by more
  // than the buffer, however long we stall.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LE(produced.load(), 3);  // 2 buffered + 1 in flight
  OdEvent event;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(channel.Pop(&event, std::chrono::milliseconds(1000)));
  }
  producer.join();
  EXPECT_EQ(produced.load(), 5);
  EXPECT_FALSE(channel.Pop(&event, std::chrono::milliseconds(1)));
}

TEST(ChannelOdSinkTest, CloseUnblocksProducerAndDropsButKeepsQueued) {
  ChannelOdSink channel(1);
  channel.OnConstancy(ConstancyOd{AttributeSet(), 1});  // fills the buffer
  std::thread producer([&] {
    channel.OnConstancy(ConstancyOd{AttributeSet(), 2});  // blocks
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  channel.Close();  // unblocks the producer; its event is dropped
  producer.join();
  EXPECT_EQ(channel.dropped(), 1);
  // Drain-then-stop: the queued event is still deliverable after Close.
  OdEvent event;
  ASSERT_TRUE(channel.Pop(&event, std::chrono::milliseconds(10)));
  EXPECT_EQ(std::get<ConstancyOd>(event).attribute, 1);
  EXPECT_FALSE(channel.Pop(&event, std::chrono::milliseconds(10)));
  EXPECT_EQ(channel.pushed(), 1);
}

TEST(ChannelOdSinkTest, CarriesEveryOdShape) {
  ChannelOdSink channel(8);
  channel.OnConstancy(ConstancyOd{AttributeSet(), 0});
  channel.OnCompatibility(CompatibilityOd(AttributeSet(), 0, 1));
  channel.OnBidirectional(BidiCompatibilityOd(AttributeSet(), 0, 1));
  channel.OnListOd(ListOd{{0}, {1}});
  channel.OnConditional(ConditionalOd{});
  OdEvent event;
  ASSERT_TRUE(channel.Pop(&event));
  EXPECT_TRUE(std::holds_alternative<ConstancyOd>(event));
  ASSERT_TRUE(channel.Pop(&event));
  EXPECT_TRUE(std::holds_alternative<CompatibilityOd>(event));
  ASSERT_TRUE(channel.Pop(&event));
  EXPECT_TRUE(std::holds_alternative<BidiCompatibilityOd>(event));
  ASSERT_TRUE(channel.Pop(&event));
  EXPECT_TRUE(std::holds_alternative<ListOd>(event));
  ASSERT_TRUE(channel.Pop(&event));
  EXPECT_TRUE(std::holds_alternative<ConditionalOd>(event));
}

// A live engine streaming through the channel produces exactly the
// CollectingOdSink sequence — the primitive the server's /stream rides.
TEST(ChannelOdSinkTest, EngineStreamMatchesCollectingSink) {
  Table table = EmployeeTaxTable();
  CollectingOdSink expected;
  FastodAlgorithm baseline;
  baseline.SetSink(&expected);
  ASSERT_TRUE(baseline.BindDataset(DatasetOf(table)).ok());
  ASSERT_TRUE(baseline.Execute().ok());

  ChannelOdSink channel(4);  // smaller than the result set: exercises
                             // backpressure against a live engine
  FastodAlgorithm streamed;
  streamed.SetSink(&channel);
  ASSERT_TRUE(streamed.BindDataset(DatasetOf(table)).ok());
  std::thread runner([&] {
    ASSERT_TRUE(streamed.Execute().ok());
    channel.Close();
  });
  CollectingOdSink replayed;
  OdEvent event;
  while (true) {
    if (!channel.Pop(&event, std::chrono::milliseconds(100))) {
      if (channel.closed()) break;
      continue;
    }
    if (std::holds_alternative<ConstancyOd>(event)) {
      replayed.OnConstancy(std::get<ConstancyOd>(event));
    } else if (std::holds_alternative<CompatibilityOd>(event)) {
      replayed.OnCompatibility(std::get<CompatibilityOd>(event));
    } else if (std::holds_alternative<BidiCompatibilityOd>(event)) {
      replayed.OnBidirectional(std::get<BidiCompatibilityOd>(event));
    }
  }
  runner.join();
  EXPECT_EQ(replayed.constancy_ods(), expected.constancy_ods());
  EXPECT_EQ(replayed.compatibility_ods(), expected.compatibility_ods());
  EXPECT_EQ(replayed.TotalOds(), expected.TotalOds());
}

}  // namespace
}  // namespace fastod
