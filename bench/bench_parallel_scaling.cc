// Parallel scaling of FASTOD (our extension): speedup across thread counts
// on relations where per-level node counts are large enough to keep
// workers busy. Output is identical across thread counts (tested in
// tests/parallel_test.cc and tests/lattice_node_test.cc); this bench
// measures the wall-clock effect of the level walk's parallel batches
// (ThreadPool::ParallelFor loops: one validate task per node, one derive
// task per child).
//
// The "wide" workload is the CI scaling gate's input: many attributes
// with the level depth capped, so the lattice is broad (thousands of
// independent node tasks per level), so every batch stays much wider
// than the worker count. Each record carries threads,
// speedup vs the 1-thread run of the same workload, and the machine's
// hardware_concurrency so the gate can scale its expectation to the
// runner it measured on (a 2-core runner cannot show 3x).
#include <thread>

#include "bench_util.h"
#include "gen/generators.h"
#include "gen/random_table.h"

int main(int argc, char** argv) {
  using namespace fastod;
  using namespace fastod::bench;
  int scale = ParseScale(argc, argv);
  BenchJson json("bench_parallel_scaling", argc, argv);

  PrintHeader("parallel scaling (extension)",
              "identical output across thread counts; speedup bounded by "
              "the serial level structure (Amdahl) and by memory bandwidth");

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware_concurrency: %u\n", hw);

  struct Workload {
    const char* name;
    Table table;
    int max_level;  // 0 = unbounded
  };
  Workload workloads[] = {
      {"flight-like 5Kx14", GenFlightLike(5000 * scale, 14, 42), 0},
      {"hepatitis-like 155x16", GenHepatitisLike(155, 16, 42), 0},
      {"dbtesma-like 2Kx15", GenDbtesmaLike(2000 * scale, 15, 42), 0},
      // The scaling-gate workload: 18 attributes, depth capped at 4 —
      // ~4000 lattice nodes across broad levels, each node an
      // independent validate+product task.
      {"wide 2Kx18", GenRandomTable(2000 * scale, 18, 6, 42), 4},
  };
  for (const Workload& w : workloads) {
    auto rel = EncodedRelation::FromTable(w.table);
    if (!rel.ok()) return 1;
    std::printf("\n--- %s ---\n", w.name);
    std::printf("%-10s | %-12s | %-10s | %s\n", "threads", "time",
                "speedup", "#ODs");
    double serial_seconds = 0.0;
    for (int threads : {1, 2, 4, 8}) {
      FastodOptions options;
      options.num_threads = threads;
      options.max_level = w.max_level;
      AlgoCell cell = RunFastod(*rel, options, 300.0);
      if (threads == 1) serial_seconds = cell.seconds;
      double speedup = cell.seconds > 0 ? serial_seconds / cell.seconds
                                        : 0.0;
      char extra[160];
      std::snprintf(extra, sizeof(extra),
                    "\"threads\": %d, \"speedup\": %.3f, "
                    "\"hardware_concurrency\": %u",
                    threads, speedup, hw);
      RecordJson(std::string("workload=") + w.name +
                     " threads=" + std::to_string(threads),
                 cell.seconds, extra);
      std::printf("%-10d | %-12s | %-10.2f | %s\n", threads,
                  cell.TimeString().c_str(), speedup,
                  cell.counts.c_str());
    }
  }
  return 0;
}
