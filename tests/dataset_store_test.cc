// Tests for the shared DatasetStore (src/data/dataset_store.h): the
// load-once preprocessing captured by LoadedDataset (encoding + level-1
// partitions bit-for-bit what the engines would build), registry
// semantics (duplicate ids, erase, hit accounting), and — the acceptance
// bar — that the memory budget evicts only unpinned entries, in LRU
// order, while pinned datasets survive and outside references stay valid
// past eviction. A final stress test races Get/Put/eviction across
// threads, which the sanitizer CI jobs turn into a data-race detector.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/csv.h"
#include "data/dataset_store.h"
#include "data/encode.h"
#include "gen/generators.h"
#include "partition/stripped_partition.h"
#include "test_util.h"

namespace fastod {
namespace {

Table SmallTable() { return EmployeeTaxTable(); }

TEST(LoadedDatasetTest, BuildCapturesEncodingAndSingletons) {
  Table table = SmallTable();
  Result<EncodedRelation> expected = EncodedRelation::FromTable(table);
  ASSERT_TRUE(expected.ok());

  auto dataset = LoadedDataset::Build("emp", *expected, "unit-test");
  EXPECT_EQ(dataset->id(), "emp");
  EXPECT_EQ(dataset->source(), "unit-test");
  EXPECT_EQ(dataset->NumRows(), table.NumRows());
  EXPECT_EQ(dataset->NumAttributes(), table.NumColumns());
  EXPECT_GT(dataset->ApproxBytes(), 0);

  // The footprint is exact, not estimated: the relation's contiguous
  // code-column + dictionary allocations plus the flattened level-1
  // partitions (elements + offsets + 1 sentinel, in int32s each).
  int64_t exact = dataset->relation().ByteSize();
  for (const StrippedPartition& p : dataset->singleton_partitions()) {
    exact += static_cast<int64_t>(
        (p.NumElements() + p.NumClasses() + 1) * sizeof(int32_t));
  }
  EXPECT_EQ(dataset->ApproxBytes(), exact);

  const EncodedRelation& relation = dataset->relation();
  ASSERT_EQ(relation.NumAttributes(), expected->NumAttributes());
  const std::vector<StrippedPartition>& singletons =
      dataset->singleton_partitions();
  ASSERT_EQ(static_cast<int>(singletons.size()), relation.NumAttributes());
  for (int a = 0; a < relation.NumAttributes(); ++a) {
    EXPECT_TRUE(relation.codes(a) == expected->codes(a))
        << "attribute " << a;
    EXPECT_EQ(singletons[a],
              StrippedPartition::ForAttribute(expected->codes(a)))
        << "attribute " << a;
  }
}

TEST(DatasetStoreTest, PutGetEraseLifecycle) {
  DatasetStore store;
  auto put = store.Put(DatasetOf(SmallTable(), "emp"));
  ASSERT_TRUE(put.ok());
  EXPECT_EQ(store.size(), 1);
  EXPECT_EQ(store.TotalBytes(), (*put)->ApproxBytes());

  auto got = store.Get("emp");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->get(), put->get());  // same instance, not a copy

  EXPECT_EQ(store.Get("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Erase("nope").code(), StatusCode::kNotFound);

  ASSERT_TRUE(store.Erase("emp").ok());
  EXPECT_EQ(store.size(), 0);
  EXPECT_EQ(store.TotalBytes(), 0);
  EXPECT_EQ(store.Get("emp").status().code(), StatusCode::kNotFound);
  // The outstanding reference outlives the erase.
  EXPECT_EQ((*got)->NumRows(), SmallTable().NumRows());
}

TEST(DatasetStoreTest, ContainsAndInfoDoNotCountAsHits) {
  DatasetStore store;
  ASSERT_TRUE(store.Put(DatasetOf(SmallTable(), "emp")).ok());
  EXPECT_TRUE(store.Contains("emp"));
  EXPECT_FALSE(store.Contains("nope"));
  EXPECT_EQ(store.Info("nope").status().code(), StatusCode::kNotFound);

  auto info = store.Info("emp");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->rows, SmallTable().NumRows());
  EXPECT_EQ(info->hits, 0);  // neither Contains nor Info counted
  (void)store.Get("emp");
  EXPECT_EQ(store.Info("emp")->hits, 1);
}

TEST(DatasetStoreTest, DuplicateIdsAreRefused) {
  DatasetStore store;
  ASSERT_TRUE(store.Put(DatasetOf(SmallTable(), "emp")).ok());
  Status duplicate = store.Put(DatasetOf(SmallTable(), "emp")).status();
  EXPECT_EQ(duplicate.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(duplicate.message().find("already exists"), std::string::npos);
  EXPECT_EQ(store.size(), 1);
}

TEST(DatasetStoreTest, CsvRoundTripsAndCountsHits) {
  std::string path = ::testing::TempDir() + "/dataset_store_test_" +
                     std::to_string(::getpid()) + ".csv";
  ASSERT_TRUE(WriteCsvFile(SmallTable(), path).ok());
  DatasetStore store;
  auto put = store.PutCsvFile("emp", path);
  ASSERT_TRUE(put.ok()) << put.status().ToString();
  EXPECT_EQ((*put)->source(), "csv:" + path);
  std::remove(path.c_str());

  // Hits count Get()s (sessions bound), not the initial Put.
  (void)store.Get("emp");
  (void)store.Get("emp");
  std::vector<DatasetInfo> infos = store.List();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].id, "emp");
  EXPECT_EQ(infos[0].hits, 2);
  EXPECT_EQ(infos[0].rows, SmallTable().NumRows());
  EXPECT_EQ(infos[0].columns, SmallTable().NumColumns());
  // `put` still holds a reference.
  EXPECT_TRUE(infos[0].pinned);
}

TEST(DatasetStoreTest, BudgetEvictsLeastRecentlyUsedUnpinned) {
  DatasetStore probe;
  int64_t bytes = (*probe.Put(DatasetOf(SmallTable(), "probe")))->ApproxBytes();

  DatasetStore store(3 * bytes);
  ASSERT_TRUE(store.Put(DatasetOf(SmallTable(), "a")).ok());
  ASSERT_TRUE(store.Put(DatasetOf(SmallTable(), "b")).ok());
  ASSERT_TRUE(store.Put(DatasetOf(SmallTable(), "c")).ok());
  EXPECT_EQ(store.size(), 3);

  // Touch a and c so b is the LRU entry; nothing is pinned (the Put
  // return values were dropped).
  ASSERT_TRUE(store.Get("a").ok());
  ASSERT_TRUE(store.Get("c").ok());
  ASSERT_TRUE(store.Put(DatasetOf(SmallTable(), "d")).ok());

  EXPECT_EQ(store.size(), 3);
  EXPECT_EQ(store.evictions(), 1);
  EXPECT_EQ(store.Get("b").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(store.Get("a").ok());
  EXPECT_TRUE(store.Get("c").ok());
  EXPECT_TRUE(store.Get("d").ok());
}

TEST(DatasetStoreTest, PinnedDatasetsAreNeverEvicted) {
  DatasetStore probe;
  int64_t bytes = (*probe.Put(DatasetOf(SmallTable(), "probe")))->ApproxBytes();

  DatasetStore store(2 * bytes);
  auto pin_a = store.Put(DatasetOf(SmallTable(), "a"));
  auto pin_b = store.Put(DatasetOf(SmallTable(), "b"));
  ASSERT_TRUE(pin_a.ok() && pin_b.ok());

  // Both resident datasets are pinned: the insert must be refused, not
  // satisfied by destroying data under a live user.
  Status refused = store.Put(DatasetOf(SmallTable(), "c")).status();
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(store.Get("a").ok());
  EXPECT_TRUE(store.Get("b").ok());
  EXPECT_EQ(store.evictions(), 0);

  // Unpinning a (and dropping the Get refs above is implicit — they were
  // discarded) makes it evictable; c then fits by evicting exactly a.
  pin_a->reset();
  ASSERT_TRUE(store.Put(DatasetOf(SmallTable(), "c")).ok());
  EXPECT_EQ(store.evictions(), 1);
  EXPECT_EQ(store.Get("a").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(store.Get("b").ok());

  // The evicted-survivor guarantee: b's pin is still valid data.
  EXPECT_EQ((*pin_b)->NumRows(), SmallTable().NumRows());
}

TEST(DatasetStoreTest, OversizedInsertIsRefusedWithoutFlushingIdle) {
  DatasetStore probe;
  int64_t bytes = (*probe.Put(DatasetOf(SmallTable(), "probe")))->ApproxBytes();

  DatasetStore store(2 * bytes);
  ASSERT_TRUE(store.Put(DatasetOf(SmallTable(), "a")).ok());
  ASSERT_TRUE(store.Put(DatasetOf(SmallTable(), "b")).ok());  // both idle

  // This dataset alone exceeds the whole budget: it can never fit, so
  // the refusal must not evict the healthy idle residents first.
  Status refused =
      store.Put(DatasetOf(GenFlightLike(500, 8, 7), "huge")).status();
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(store.Get("a").ok());
  EXPECT_TRUE(store.Get("b").ok());
  EXPECT_EQ(store.evictions(), 0);
}

TEST(DatasetStoreTest, ShrinkingBudgetEvictsOnlyUnpinned) {
  DatasetStore store;
  auto pinned = store.Put(DatasetOf(SmallTable(), "pinned"));
  ASSERT_TRUE(pinned.ok());
  ASSERT_TRUE(store.Put(DatasetOf(SmallTable(), "idle")).ok());
  EXPECT_EQ(store.size(), 2);

  store.SetBudgetBytes(1);  // far below one dataset
  EXPECT_EQ(store.size(), 1);
  EXPECT_TRUE(store.Get("pinned").ok());
  EXPECT_EQ(store.Get("idle").status().code(), StatusCode::kNotFound);
  // Pinned entries may keep the store above budget by design.
  EXPECT_GT(store.TotalBytes(), store.budget_bytes());
}

TEST(DatasetStoreTest, ZeroBudgetMeansUnlimited) {
  DatasetStore store(0);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        store.Put(DatasetOf(SmallTable(), "ds" + std::to_string(i))).ok());
  }
  EXPECT_EQ(store.size(), 8);
  EXPECT_EQ(store.evictions(), 0);
}

// The lattice is capped at 64 attributes. The cap is enforced where a
// dataset's relation is encoded, so a wider table or CSV never becomes
// a dataset and never reaches the store.
TEST(DatasetStoreTest, BuildRejectsOverwideRelations) {
  std::vector<AttributeDef> attributes;
  std::vector<Value> row;
  std::string header;
  std::string line;
  for (int i = 0; i < 65; ++i) {
    attributes.push_back({"c" + std::to_string(i), DataType::kInt});
    row.push_back(Value::Int(i));
    header += (i == 0 ? "" : ",") + attributes.back().name;
    line += (i == 0 ? "" : ",") + std::to_string(i);
  }
  TableBuilder builder{Schema(std::move(attributes))};
  builder.AddRowUnchecked(std::move(row));
  Result<EncodedRelation> encoded = EncodedRelation::FromTable(builder.Build());
  EXPECT_EQ(encoded.status().code(), StatusCode::kInvalidArgument);

  DatasetStore store;
  Status status = store.PutCsvString("wide", header + "\n" + line + "\n").status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(store.size(), 0);
}

// Eviction-vs-pin race: writers churn datasets through a tiny budget
// while readers pin whatever they can Get and use the data. Any
// eviction of a pinned entry, or unlocked state, shows up as a crash or
// a sanitizer report (this test is in the ASan/UBSan and TSan CI jobs).
TEST(DatasetStoreTest, ConcurrentGetPutEvictIsSafe) {
  DatasetStore probe;
  int64_t bytes = (*probe.Put(DatasetOf(SmallTable(), "probe")))->ApproxBytes();
  DatasetStore store(3 * bytes);

  constexpr int kIds = 6;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> reads{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&store, w, &stop] {
      for (int round = 0; !stop.load(); ++round) {
        std::string id = "ds" + std::to_string((round + w) % kIds);
        // Either already resident (duplicate refused) or inserted,
        // possibly evicting an unpinned sibling; both are fine.
        (void)store.Put(DatasetOf(SmallTable(), id));
      }
    });
  }
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back([&store, r, &stop, &reads] {
      int64_t expected_rows = SmallTable().NumRows();
      for (int round = 0; !stop.load(); ++round) {
        std::string id = "ds" + std::to_string((round + r) % kIds);
        auto dataset = store.Get(id);
        if (!dataset.ok()) continue;
        // The pin must keep the data fully alive even if the entry is
        // evicted concurrently.
        EXPECT_EQ((*dataset)->NumRows(), expected_rows);
        EXPECT_EQ(static_cast<int>((*dataset)->singleton_partitions()
                                       .size()),
                  (*dataset)->NumAttributes());
        reads.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  for (std::thread& thread : threads) thread.join();
  EXPECT_GT(reads.load(), 0);
  // Budget bookkeeping survived the churn.
  std::vector<DatasetInfo> infos = store.List();
  int64_t total = 0;
  for (const DatasetInfo& info : infos) total += info.bytes;
  EXPECT_EQ(total, store.TotalBytes());
}

// ---- Versioned datasets (AppendRows and the version chain) ----------

Table DeltaRows() {
  return EmployeeTaxTable().SelectRows({0, 1});
}

TEST(DatasetStoreVersionTest, AppendMintsVersionsAndTracksHistory) {
  DatasetStore store;
  auto v1 = store.Put(DatasetOf(SmallTable(), "emp"));
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ((*v1)->version(), 1);
  // No append block yet: the whole relation is base, the delta empty.
  EXPECT_EQ((*v1)->base_rows(), (*v1)->NumRows());
  EXPECT_EQ((*v1)->delta_rows(), 0);

  auto v2 = store.AppendRows("emp", Encode(DeltaRows()));
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ((*v2)->version(), 2);
  EXPECT_EQ((*v2)->base_rows(), (*v1)->NumRows());
  EXPECT_EQ((*v2)->delta_rows(), 2);
  EXPECT_EQ((*v2)->NumRows(), (*v1)->NumRows() + 2);

  // Get() returns the current version; Get(id, 1) still resolves while
  // this test pins v1 with its own strong reference.
  auto current = store.Get("emp");
  ASSERT_TRUE(current.ok());
  EXPECT_EQ((*current)->version(), 2);
  auto old_version = store.Get("emp", 1);
  ASSERT_TRUE(old_version.ok()) << old_version.status().ToString();
  EXPECT_EQ(old_version->get(), v1->get());
  EXPECT_EQ(store.Get("emp", 2)->get(), v2->get());
  EXPECT_EQ(store.Get("emp", 3).status().code(), StatusCode::kNotFound);

  // Info reports the chain: current first, then retained versions.
  auto info = store.Info("emp");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->version, 2);
  ASSERT_EQ(info->versions.size(), 2u);
  EXPECT_TRUE(info->versions[0].current);
  EXPECT_EQ(info->versions[0].version, 2);
  EXPECT_EQ(info->versions[1].version, 1);
  EXPECT_TRUE(info->versions[1].pinned);
  EXPECT_GT(info->retained_bytes, 0);
  EXPECT_EQ(store.RetainedBytes(), (*v1)->ApproxBytes());
}

TEST(DatasetStoreVersionTest, SupersededVersionsDieWithTheirPins) {
  DatasetStore store;
  ASSERT_TRUE(store.Put(DatasetOf(SmallTable(), "emp")).ok());
  {
    auto v1 = store.Get("emp");
    ASSERT_TRUE(v1.ok());
    ASSERT_TRUE(store.AppendRows("emp", Encode(DeltaRows())).ok());
    ASSERT_TRUE(store.Get("emp", 1).ok());  // alive while v1 pins it
  }
  // The pin is gone: version 1 is no longer resident.
  auto gone = store.Get("emp", 1);
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.RetainedBytes(), 0);
  auto info = store.Info("emp");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->versions.size(), 1u);  // only the current version

  // Only current-version bytes count against the store's accounting.
  auto current = store.Get("emp");
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(store.TotalBytes(), (*current)->ApproxBytes());
}

TEST(DatasetStoreVersionTest, AppendToUnknownIdIsNotFound) {
  DatasetStore store;
  auto grown = store.AppendRows("nope", Encode(DeltaRows()));
  EXPECT_EQ(grown.status().code(), StatusCode::kNotFound);
}

TEST(DatasetStoreVersionTest, AppendCsvStringGrowsTheDataset) {
  DatasetStore store;
  ASSERT_TRUE(store.PutCsvString("t", "a,b\n1,x\n2,y\n").ok());
  CsvOptions delta_options;
  delta_options.has_header = false;
  auto grown = store.AppendCsvString("t", "3,z\n", delta_options);
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  EXPECT_EQ((*grown)->version(), 2);
  EXPECT_EQ((*grown)->NumRows(), 3);
  EXPECT_EQ((*grown)->delta_rows(), 1);
}

}  // namespace
}  // namespace fastod
