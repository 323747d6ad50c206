// Tests for incremental OD discovery over versioned datasets
// (src/incremental/): the acceptance bar is the equivalence oracle — the
// incremental result (survivors + newly discovered ODs) must equal a
// fresh full FASTOD run on the grown relation bit-for-bit, across random
// tables, split points, and multi-step append chains. Around that core:
// merge-encoding must reproduce FromTable's ranks exactly, revocations
// must flow through OdSink, the registered `incremental` algorithm must
// resolve base rows from a bound dataset version, and appending while
// sessions discover on the prior version must be race-free (the
// sanitizer CI jobs turn the last one into a data-race detector).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "algo/fastod.h"
#include "api/od_sink.h"
#include "api/registry.h"
#include "data/dataset_store.h"
#include "data/encode.h"
#include "data/table.h"
#include "gen/random_table.h"
#include "incremental/incremental.h"
#include "incremental/incremental_engine.h"
#include "partition/stripped_partition.h"
#include "report/report.h"
#include "test_util.h"

namespace fastod {
namespace {

Table Tail(const Table& table, int64_t from) {
  std::vector<int64_t> rows(table.NumRows() - from);
  std::iota(rows.begin(), rows.end(), from);
  return table.SelectRows(rows);
}

PriorOds PriorOf(const FastodResult& result) {
  PriorOds prior;
  prior.constancy = result.constancy_ods;
  prior.compatibility = result.compatibility_ods;
  return prior;
}

template <typename Od>
std::vector<Od> Sorted(std::vector<Od> ods) {
  std::sort(ods.begin(), ods.end());
  return ods;
}

/// The oracle: incremental discovery from the prefix's prior must land on
/// exactly the OD set a fresh full run finds on the whole relation, and
/// the revoked set must be exactly the prior ODs that no longer hold.
void ExpectEquivalence(const Table& table, int64_t base_rows) {
  Result<EncodedRelation> prefix =
      EncodedRelation::FromTable(table.Head(base_rows));
  ASSERT_TRUE(prefix.ok());
  Result<EncodedRelation> full = EncodedRelation::FromTable(table);
  ASSERT_TRUE(full.ok());

  FastodResult prior_run = Fastod().Discover(*prefix);
  FastodResult fresh = Fastod().Discover(*full);

  IncrementalOptions options;
  options.base_rows = base_rows;
  IncrementalResult got =
      IncrementalDiscovery(&*full, options).Run(PriorOf(prior_run));

  EXPECT_FALSE(got.cancelled);
  EXPECT_EQ(got.revalidated, prior_run.NumOds());
  EXPECT_EQ(Sorted(got.constancy_ods), Sorted(fresh.constancy_ods))
      << "base_rows=" << base_rows << " rows=" << table.NumRows();
  EXPECT_EQ(Sorted(got.compatibility_ods), Sorted(fresh.compatibility_ods))
      << "base_rows=" << base_rows << " rows=" << table.NumRows();

  // Revoked ∪ survivors partitions the prior.
  std::vector<ConstancyOd> prior_constancy = Sorted(prior_run.constancy_ods);
  std::vector<ConstancyOd> accounted = got.revoked_constancy;
  for (const ConstancyOd& od : got.constancy_ods) {
    if (std::find(prior_run.constancy_ods.begin(),
                  prior_run.constancy_ods.end(),
                  od) != prior_run.constancy_ods.end()) {
      accounted.push_back(od);
    }
  }
  EXPECT_EQ(Sorted(accounted), prior_constancy);
}

TEST(IncrementalMergeEncodeTest, AppendMatchesFromTableBitForBit) {
  for (uint32_t seed : {1u, 7u, 23u, 91u}) {
    Table table = GenRandomTable(240, 5, 6, seed);
    const int64_t base_rows = 200;

    auto base = DatasetOf(table.Head(base_rows), "t");
    auto grown = LoadedDataset::Append(
        base, Encode(Tail(table, base_rows)));
    ASSERT_TRUE(grown.ok()) << grown.status().ToString();

    Result<EncodedRelation> expected = EncodedRelation::FromTable(table);
    ASSERT_TRUE(expected.ok());

    EXPECT_EQ((*grown)->version(), 2);
    EXPECT_EQ((*grown)->base_rows(), base_rows);
    EXPECT_EQ((*grown)->delta_rows(), table.NumRows() - base_rows);
    const EncodedRelation& relation = (*grown)->relation();
    ASSERT_EQ(relation.NumRows(), expected->NumRows());
    ASSERT_EQ(relation.NumAttributes(), expected->NumAttributes());
    for (int a = 0; a < relation.NumAttributes(); ++a) {
      EXPECT_TRUE(relation.codes(a) == expected->codes(a))
          << "seed " << seed << " attribute " << a;
      EXPECT_EQ(relation.NumDistinct(a), expected->NumDistinct(a))
          << "seed " << seed << " attribute " << a;
      EXPECT_EQ((*grown)->singleton_partitions()[a],
                StrippedPartition::ForAttribute(expected->codes(a)))
          << "seed " << seed << " attribute " << a;
    }
    // The base version is untouched by the append.
    EXPECT_EQ(base->NumRows(), base_rows);
    EXPECT_EQ(base->version(), 1);
  }
}

TEST(IncrementalMergeEncodeTest, AppendRejectsColumnMismatch) {
  Table table = GenRandomTable(50, 4, 5, 3);
  auto base = DatasetOf(table, "t");
  Table narrow = GenRandomTable(10, 3, 5, 4);
  auto grown = LoadedDataset::Append(base, Encode(narrow));
  EXPECT_FALSE(grown.ok());
  EXPECT_EQ(grown.status().code(), StatusCode::kInvalidArgument);
}

TEST(IncrementalEquivalenceTest, RandomTablesAndSplitPoints) {
  struct Case {
    int64_t rows;
    int cols;
    int64_t domain;
    uint32_t seed;
    int64_t base_rows;
  };
  const Case cases[] = {
      {60, 4, 3, 11, 50},   {120, 5, 4, 12, 100}, {120, 5, 8, 13, 110},
      {200, 6, 5, 14, 180}, {200, 6, 2, 15, 150}, {90, 5, 3, 16, 89},
      {150, 4, 10, 17, 100},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("seed " + std::to_string(c.seed));
    ExpectEquivalence(GenRandomTable(c.rows, c.cols, c.domain, c.seed),
                      c.base_rows);
  }
}

TEST(IncrementalEquivalenceTest, EmptyDeltaKeepsEverything) {
  Table table = GenRandomTable(80, 5, 4, 21);
  Result<EncodedRelation> full = EncodedRelation::FromTable(table);
  ASSERT_TRUE(full.ok());
  FastodResult prior = Fastod().Discover(*full);

  IncrementalOptions options;
  options.base_rows = table.NumRows();  // no appended rows
  IncrementalResult got =
      IncrementalDiscovery(&*full, options).Run(PriorOf(prior));
  EXPECT_TRUE(got.revoked_constancy.empty());
  EXPECT_TRUE(got.revoked_compatibility.empty());
  EXPECT_EQ(got.escalations, 0);
  EXPECT_EQ(got.nodes_searched, 0);
  EXPECT_EQ(Sorted(got.constancy_ods), Sorted(prior.constancy_ods));
  EXPECT_EQ(Sorted(got.compatibility_ods),
            Sorted(prior.compatibility_ods));
}

TEST(IncrementalEquivalenceTest, SingleRowAppend) {
  for (uint32_t seed : {31u, 32u, 33u}) {
    Table table = GenRandomTable(101, 5, 4, seed);
    ExpectEquivalence(table, 100);
  }
}

TEST(IncrementalEquivalenceTest, MultiStepAppendChain) {
  // Three appends, re-running incrementally at each step with the prior
  // of the previous step; the final result must still match a fresh run.
  Table table = GenRandomTable(160, 5, 4, 41);
  const int64_t steps[] = {100, 120, 140, 160};

  Result<EncodedRelation> first =
      EncodedRelation::FromTable(table.Head(steps[0]));
  ASSERT_TRUE(first.ok());
  FastodResult seed_run = Fastod().Discover(*first);
  PriorOds prior = PriorOf(seed_run);

  for (size_t i = 1; i < 4; ++i) {
    Result<EncodedRelation> grown =
        EncodedRelation::FromTable(table.Head(steps[i]));
    ASSERT_TRUE(grown.ok());
    IncrementalOptions options;
    options.base_rows = steps[i - 1];
    IncrementalResult got =
        IncrementalDiscovery(&*grown, options).Run(prior);
    FastodResult fresh = Fastod().Discover(*grown);
    ASSERT_EQ(Sorted(got.constancy_ods), Sorted(fresh.constancy_ods))
        << "step " << i;
    ASSERT_EQ(Sorted(got.compatibility_ods),
              Sorted(fresh.compatibility_ods))
        << "step " << i;
    prior.constancy = got.constancy_ods;
    prior.compatibility = got.compatibility_ods;
  }
}

TEST(IncrementalSinkTest, RevocationsAndDiscoveriesStream) {
  // A constant column broken by the append: its constancy ODs revoke,
  // and the revocations reach the sink before any new discovery.
  TableBuilder builder(
      Schema({{"a", DataType::kInt}, {"b", DataType::kInt}}));
  for (int i = 0; i < 6; ++i) {
    builder.AddRowUnchecked({Value::Int(i), Value::Int(7)});
  }
  builder.AddRowUnchecked({Value::Int(6), Value::Int(9)});  // breaks []->b
  Table table = builder.Build();

  Result<EncodedRelation> prefix = EncodedRelation::FromTable(table.Head(6));
  ASSERT_TRUE(prefix.ok());
  Result<EncodedRelation> full = EncodedRelation::FromTable(table);
  ASSERT_TRUE(full.ok());
  FastodResult prior = Fastod().Discover(*prefix);

  CollectingOdSink sink;
  IncrementalOptions options;
  options.base_rows = 6;
  options.sink = &sink;
  IncrementalResult got =
      IncrementalDiscovery(&*full, options).Run(PriorOf(prior));

  EXPECT_FALSE(got.revoked_constancy.empty());
  ASSERT_EQ(sink.revoked_ods().size(),
            got.revoked_constancy.size() + got.revoked_compatibility.size());
  // Survivors are not re-emitted: the sink's discoveries are exactly the
  // new ODs.
  EXPECT_EQ(static_cast<int64_t>(sink.constancy_ods().size()),
            got.new_constancy);
  EXPECT_EQ(static_cast<int64_t>(sink.compatibility_ods().size()),
            got.new_compatibility);
  FastodResult fresh = Fastod().Discover(*full);
  EXPECT_EQ(Sorted(got.constancy_ods), Sorted(fresh.constancy_ods));
  EXPECT_EQ(Sorted(got.compatibility_ods), Sorted(fresh.compatibility_ods));
}

TEST(IncrementalSinkTest, CancellationStopsCleanly) {
  Table table = GenRandomTable(200, 6, 4, 51);
  Result<EncodedRelation> prefix = EncodedRelation::FromTable(table.Head(150));
  ASSERT_TRUE(prefix.ok());
  Result<EncodedRelation> full = EncodedRelation::FromTable(table);
  ASSERT_TRUE(full.ok());
  FastodResult prior = Fastod().Discover(*prefix);

  ExecutionControl control;
  control.RequestCancel();
  IncrementalOptions options;
  options.base_rows = 150;
  options.control = &control;
  IncrementalResult got =
      IncrementalDiscovery(&*full, options).Run(PriorOf(prior));
  EXPECT_TRUE(got.cancelled);
}

TEST(IncrementalEngineTest, RegisteredAndEquivalentThroughAdapter) {
  Table table = GenRandomTable(140, 5, 4, 61);
  const int64_t base_rows = 120;

  DatasetStore store;
  auto v1 = store.Put(DatasetOf(table.Head(base_rows), "t"));
  ASSERT_TRUE(v1.ok());
  auto v2 = store.AppendRows("t", Encode(Tail(table, base_rows)));
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ((*v2)->version(), 2);

  // Prior via the registered fastod adapter on version 1.
  auto fastod_algo = AlgorithmRegistry::Default().Create("fastod");
  ASSERT_TRUE(fastod_algo.ok());
  ASSERT_TRUE((*fastod_algo)->BindDataset(*v1).ok());
  ASSERT_TRUE((*fastod_algo)->Execute().ok());
  std::string prior_json = (*fastod_algo)->ResultJson();

  // Incremental on version 2, base rows resolved from the bound dataset.
  auto algo = AlgorithmRegistry::Default().Create("incremental");
  ASSERT_TRUE(algo.ok()) << algo.status().ToString();
  ASSERT_TRUE((*algo)->SetOption("prior", prior_json).ok());
  ASSERT_TRUE((*algo)->BindDataset(*v2).ok());
  Status executed = (*algo)->Execute();
  ASSERT_TRUE(executed.ok()) << executed.ToString();

  auto* incremental = static_cast<IncrementalAlgorithm*>(algo->get());
  EXPECT_EQ(incremental->base_rows(), base_rows);

  Result<EncodedRelation> full = EncodedRelation::FromTable(table);
  ASSERT_TRUE(full.ok());
  FastodResult fresh = Fastod().Discover(*full);
  EXPECT_EQ(Sorted(incremental->result().constancy_ods),
            Sorted(fresh.constancy_ods));
  EXPECT_EQ(Sorted(incremental->result().compatibility_ods),
            Sorted(fresh.compatibility_ods));

  // The report round-trips through the prior parser: feeding the
  // incremental report back as a prior is legal (fastod shape superset).
  Result<PriorOds> reparsed =
      ParsePriorReport(incremental->ResultJson(), table.schema());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(Sorted(reparsed->constancy),
            Sorted(incremental->result().constancy_ods));
}

TEST(IncrementalEngineTest, RequiresPriorAndValidBaseRows) {
  Table table = GenRandomTable(40, 4, 4, 71);
  auto algo = AlgorithmRegistry::Default().Create("incremental");
  ASSERT_TRUE(algo.ok());
  ASSERT_TRUE((*algo)->BindDataset(DatasetOf(table)).ok());
  Status no_prior = (*algo)->Execute();
  EXPECT_EQ(no_prior.code(), StatusCode::kInvalidArgument);

  ASSERT_TRUE((*algo)->SetOption("prior",
                                 "{\"constancy_ods\":[],"
                                 "\"compatibility_ods\":[]}")
                  .ok());
  // A version-1 dataset has no append block to supply the delta
  // boundary, so without an explicit base-rows the run is refused.
  Status no_base = (*algo)->Execute();
  EXPECT_EQ(no_base.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(no_base.message().find("--base-rows"), std::string::npos)
      << no_base.ToString();
  // The same for version 1 resident in a store: refused, not treated as
  // all prefix with an empty delta.
  DatasetStore store;
  auto v1 = store.Put(DatasetOf(table, "t"));
  ASSERT_TRUE(v1.ok());
  auto stored = AlgorithmRegistry::Default().Create("incremental");
  ASSERT_TRUE(stored.ok());
  ASSERT_TRUE((*stored)->SetOption("prior",
                                   "{\"constancy_ods\":[],"
                                   "\"compatibility_ods\":[]}")
                  .ok());
  ASSERT_TRUE((*stored)->BindDataset(*v1).ok());
  EXPECT_EQ((*stored)->Execute().code(), StatusCode::kInvalidArgument);

  ASSERT_TRUE((*algo)->SetOption("base-rows", "1000000").ok());
  Status too_big = (*algo)->Execute();
  EXPECT_EQ(too_big.code(), StatusCode::kInvalidArgument);

  ASSERT_TRUE((*algo)->SetOption("base-rows", "0").ok());
  Status ok = (*algo)->Execute();
  EXPECT_TRUE(ok.ok()) << ok.ToString();  // empty prior, full re-search
  // base-rows=0 means everything is delta: the whole lattice re-search
  // seeds from nothing broken, so nothing is found... unless the prior
  // was complete. An empty prior on a non-empty relation is only a valid
  // prior if the 0-row prefix has no ODs — it has none, trivially, so
  // the contract is vacuous here and the run simply returns empty.
}

// A timed-out or cancelled report holds only part of the OD set; as a
// prior it would make the incremental result silently incomplete.
TEST(IncrementalEngineTest, ParsePriorRejectsPartialReports) {
  Table table = GenRandomTable(40, 4, 4, 71);
  Result<EncodedRelation> relation = EncodedRelation::FromTable(table);
  ASSERT_TRUE(relation.ok());
  RelationInfo info{relation->NumRows(), &relation->schema()};
  FastodResult complete = Fastod().Discover(*relation);
  ASSERT_FALSE(complete.timed_out || complete.cancelled);
  Result<PriorOds> ok =
      ParsePriorReport(FastodResultToJson(complete, info), table.schema());
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->constancy, complete.constancy_ods);

  FastodResult timed_out = complete;
  timed_out.timed_out = true;
  Result<PriorOds> rejected =
      ParsePriorReport(FastodResultToJson(timed_out, info), table.schema());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().message().find("timed_out"), std::string::npos)
      << rejected.status().ToString();

  // A cancelled run through the adapter, as a cancelled session renders.
  auto fastod = AlgorithmRegistry::Default().Create("fastod");
  ASSERT_TRUE(fastod.ok());
  ExecutionControl control;
  control.RequestCancel();
  (*fastod)->SetControl(&control);
  ASSERT_TRUE((*fastod)->BindDataset(DatasetOf(table)).ok());
  ASSERT_TRUE((*fastod)->Execute().ok());
  rejected = ParsePriorReport((*fastod)->ResultJson(), table.schema());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().message().find("cancelled"), std::string::npos)
      << rejected.status().ToString();
}

TEST(IncrementalEngineTest, ParsePriorRejectsMalformedReports) {
  Schema schema({{"x", DataType::kInt}, {"y", DataType::kInt}});
  EXPECT_FALSE(ParsePriorReport("not json", schema).ok());
  EXPECT_FALSE(ParsePriorReport("[]", schema).ok());
  EXPECT_FALSE(ParsePriorReport("{}", schema).ok());
  // Unknown attribute name.
  EXPECT_FALSE(
      ParsePriorReport("{\"constancy_ods\":[{\"context\":[],"
                       "\"attribute\":\"zzz\"}],\"compatibility_ods\":[]}",
                       schema)
          .ok());
  // Bidirectional ODs are out of scope.
  EXPECT_FALSE(
      ParsePriorReport("{\"constancy_ods\":[],\"compatibility_ods\":[],"
                       "\"bidirectional_ods\":[{\"context\":[],\"a\":\"x\","
                       "\"b\":\"y\"}]}",
                       schema)
          .ok());
  Result<PriorOds> ok = ParsePriorReport(
      "{\"constancy_ods\":[{\"context\":[\"x\"],\"attribute\":\"y\"}],"
      "\"compatibility_ods\":[{\"context\":[],\"a\":\"x\",\"b\":\"y\"}]}",
      schema);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  ASSERT_EQ(ok->constancy.size(), 1u);
  EXPECT_EQ(ok->constancy[0].attribute, 1);
  ASSERT_EQ(ok->compatibility.size(), 1u);
}

TEST(IncrementalConcurrencyTest, AppendWhileDiscovering) {
  // Discovery sessions pin version 1 while another thread appends three
  // more versions; the pinned version must stay bit-for-bit stable and
  // every version's incremental result must match a fresh run. TSan
  // turns this into a data-race detector over the store's version chain.
  Table table = GenRandomTable(140, 5, 4, 81);
  const int64_t base_rows = 80;

  DatasetStore store;
  auto v1 = store.Put(DatasetOf(table.Head(base_rows), "t"));
  ASSERT_TRUE(v1.ok());
  FastodResult prior_run = Fastod().Discover((*v1)->relation());

  std::atomic<bool> go{false};
  std::vector<FastodResult> pinned_results(4);
  std::vector<std::thread> discoverers;
  for (int i = 0; i < 4; ++i) {
    discoverers.emplace_back([&, i] {
      while (!go.load()) std::this_thread::yield();
      // Pin and discover on version 1 while appends mint new versions.
      pinned_results[i] = Fastod().Discover((*v1)->relation());
    });
  }

  std::thread appender([&] {
    go.store(true);
    for (int64_t step = base_rows + 20; step <= 140; step += 20) {
      auto grown =
          store.AppendRows("t", Encode(Tail(table.Head(step), step - 20)));
      ASSERT_TRUE(grown.ok()) << grown.status().ToString();
    }
  });
  appender.join();
  for (std::thread& t : discoverers) t.join();

  for (const FastodResult& result : pinned_results) {
    EXPECT_EQ(Sorted(result.constancy_ods),
              Sorted(prior_run.constancy_ods));
    EXPECT_EQ(Sorted(result.compatibility_ods),
              Sorted(prior_run.compatibility_ods));
  }

  // The final version equals a fresh build of the full table.
  auto current = store.Get("t");
  ASSERT_TRUE(current.ok());
  EXPECT_EQ((*current)->version(), 4);
  EXPECT_EQ((*current)->NumRows(), 140);
  Result<EncodedRelation> expected = EncodedRelation::FromTable(table);
  ASSERT_TRUE(expected.ok());
  for (int a = 0; a < expected->NumAttributes(); ++a) {
    EXPECT_TRUE((*current)->relation().codes(a) == expected->codes(a));
  }
}

}  // namespace
}  // namespace fastod
