// Absolute search counters of the shared lattice walk (algo/lattice_walk.h)
// for both engines on fixed-seed inputs, at one and four threads.
//
// The golden tests pin OD lists and the property tests compare runs with
// each other; these pin the walk itself: how many nodes each level
// visits, how many checks the policies run, and the partition-cache
// traffic. A change to the walk's join, derive, eviction or stop rules
// moves at least one of them.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "algo/fastod.h"
#include "algo/tane.h"
#include "data/encode.h"
#include "gen/generators.h"

namespace fastod {
namespace {

struct FastodCounters {
  int levels_processed;
  int64_t total_nodes;
  int64_t nodes_pruned;
  int64_t constancy_checks;
  int64_t swap_checks;
  // The swap checker's sampled refutations and full scans: a refine that
  // reorders a partition's classes moves them, with identical ODs.
  int64_t swap_sample_refutes;
  int64_t swap_full_scans;
  int64_t key_prune_hits;
  int64_t cache_gets;
  int64_t cache_puts;
  int64_t partitions_reused;
  int64_t num_constancy;
  int64_t num_compatibility;
};

struct TaneCounters {
  int levels_processed;
  int64_t total_nodes;
  int64_t cache_gets;
  int64_t cache_puts;
  int64_t partitions_reused;
  int64_t num_fds;
};

struct Input {
  std::string name;
  Table (*make)();
  FastodCounters fastod;
  TaneCounters tane;
};

Table FlightInput() { return GenFlightLike(2000, 9, 7); }
Table HepatitisInput() { return GenHepatitisLike(80, 11, 7); }
Table DbtesmaInput() { return GenDbtesmaLike(3000, 10, 7); }

// Values recorded from the engines' earlier, separate level walks: the
// shared walk must reproduce them exactly. The first two inputs' contexts
// mostly fit the swap checker's 256-tuple witness sample whole; the
// dbtesma-like one's do not, so its sample refutes and full scans (taken
// from the refine loop that preceded today's kernel) move if a refine
// reorders classes.
const Input kInputs[] = {
    {"flight-like 2000x9 seed 7", &FlightInput,
     {6, 171, 11, 233, 366, 358, 6, 18, 1032, 172, 120, 20, 8},
     {5, 63, 390, 64, 14, 18}},
    {"hepatitis-like 80x11 seed 7", &HepatitisInput,
     {9, 1033, 18, 3892, 9163, 8793, 0, 122, 17923, 1034, 244, 192, 370},
     {8, 817, 8514, 818, 51, 159}},
    {"dbtesma-like 3000x10 seed 7", &DbtesmaInput,
     {7, 817, 61, 1084, 2561, 2404, 107, 32, 5887, 818, 571, 59, 50},
     {6, 475, 2909, 476, 243, 59}},
};

EncodedRelation Encode(const Input& input) {
  auto rel = EncodedRelation::FromTable(input.make());
  EXPECT_TRUE(rel.ok());
  return std::move(rel).value();
}

TEST(LatticeCounterTest, FastodCountersArePinned) {
  for (const Input& input : kInputs) {
    const EncodedRelation rel = Encode(input);
    for (int threads : {1, 4}) {
      SCOPED_TRACE(input.name + ", threads " + std::to_string(threads));
      FastodOptions opt;
      opt.num_threads = threads;
      const FastodResult r = Fastod(opt).Discover(rel);
      FastodCounters got{r.levels_processed, r.total_nodes, 0, 0, 0, 0, 0, 0,
                         r.partition_cache_gets, r.partition_cache_puts,
                         r.partitions_reused, r.num_constancy,
                         r.num_compatibility};
      for (const FastodLevelStats& level : r.level_stats) {
        got.nodes_pruned += level.nodes_pruned;
        got.constancy_checks += level.constancy_checks;
        got.swap_checks += level.swap_checks;
        got.swap_sample_refutes += level.swap_sample_refutes;
        got.swap_full_scans += level.swap_full_scans;
        got.key_prune_hits += level.key_prune_hits;
      }
      const FastodCounters& want = input.fastod;
      EXPECT_EQ(got.levels_processed, want.levels_processed);
      EXPECT_EQ(got.total_nodes, want.total_nodes);
      EXPECT_EQ(got.nodes_pruned, want.nodes_pruned);
      EXPECT_EQ(got.constancy_checks, want.constancy_checks);
      EXPECT_EQ(got.swap_checks, want.swap_checks);
      EXPECT_EQ(got.swap_sample_refutes, want.swap_sample_refutes);
      EXPECT_EQ(got.swap_full_scans, want.swap_full_scans);
      EXPECT_EQ(got.key_prune_hits, want.key_prune_hits);
      EXPECT_EQ(got.cache_gets, want.cache_gets);
      EXPECT_EQ(got.cache_puts, want.cache_puts);
      EXPECT_EQ(got.partitions_reused, want.partitions_reused);
      EXPECT_EQ(got.num_constancy, want.num_constancy);
      EXPECT_EQ(got.num_compatibility, want.num_compatibility);
      EXPECT_EQ(r.tasks_spawned, threads > 1 ? want.total_nodes : 0);
      EXPECT_FALSE(r.timed_out || r.cancelled);
    }
  }
}

TEST(LatticeCounterTest, TaneCountersArePinned) {
  for (const Input& input : kInputs) {
    const EncodedRelation rel = Encode(input);
    for (int threads : {1, 4}) {
      SCOPED_TRACE(input.name + ", threads " + std::to_string(threads));
      TaneOptions opt;
      opt.num_threads = threads;
      const TaneResult r = Tane(opt).Discover(rel);
      const TaneCounters& want = input.tane;
      EXPECT_EQ(r.levels_processed, want.levels_processed);
      EXPECT_EQ(r.total_nodes, want.total_nodes);
      EXPECT_EQ(r.partition_cache_gets, want.cache_gets);
      EXPECT_EQ(r.partition_cache_puts, want.cache_puts);
      EXPECT_EQ(r.partitions_reused, want.partitions_reused);
      EXPECT_EQ(r.num_fds, want.num_fds);
      EXPECT_EQ(r.tasks_spawned, threads > 1 ? want.total_nodes : 0);
      EXPECT_FALSE(r.timed_out || r.cancelled);
    }
  }
}

}  // namespace
}  // namespace fastod
