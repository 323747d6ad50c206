// Figure 7 reproduction (Exp-7): per-lattice-level behaviour on a wide
// flight-like table — runtime per level and the number of set-based ODs
// (#FDs + #OCDs) discovered per level.
//
// Expected shape (paper, 1K x 40): per-level time rises to a mid-lattice
// peak (the diamond shape of the set lattice) and falls as pruning thins
// the levels; most ODs are found in the first few levels' contexts.
#include "bench_util.h"
#include "gen/generators.h"

int main(int argc, char** argv) {
  using namespace fastod;
  using namespace fastod::bench;
  int scale = ParseScale(argc, argv);
  BenchJson json("bench_fig7_levels", argc, argv);

  PrintHeader("Exp-7 — lattice level profile (Figure 7)",
              "per-level time peaks mid-lattice; most ODs found at small "
              "contexts; pruning empties the top of the diamond");

  const int64_t rows = 1000 * scale;
  const int attrs = 16;
  Table table = GenFlightLike(rows, attrs, 42);
  auto rel = EncodedRelation::FromTable(table);
  if (!rel.ok()) return 1;

  ExecutionControl control;
  ArmCutoff(&control, 300.0);
  FastodOptions options;
  options.collect_level_stats = true;
  options.emit_ods = false;
  options.control = &control;
  Fastod algo(options);
  FastodResult result = algo.Discover(*rel);

  std::printf("\nflight-like %lld rows x %d attributes: total %s ODs in "
              "%.3fs over %d levels (%lld lattice nodes)\n\n",
              static_cast<long long>(rows), attrs,
              result.CountsToString().c_str(), result.seconds,
              result.levels_processed,
              static_cast<long long>(result.total_nodes));
  std::printf("%-6s | %-10s | %-8s | %-8s | %-22s | %-10s | %s\n", "level",
              "time", "nodes", "pruned", "#ODs (fd + ocd)", "fd-checks",
              "swap-checks");
  RecordJson("workload=flight-like-" + std::to_string(rows) + "x" +
                 std::to_string(attrs) + " total",
             result.seconds);
  for (const FastodLevelStats& s : result.level_stats) {
    RecordJson("level=" + std::to_string(s.level), s.seconds);
    char ods[64];
    std::snprintf(ods, sizeof(ods), "%lld (%lld + %lld)",
                  static_cast<long long>(s.constancy_found +
                                         s.compatibility_found),
                  static_cast<long long>(s.constancy_found),
                  static_cast<long long>(s.compatibility_found));
    std::printf("%-6d | %-10.4f | %-8lld | %-8lld | %-22s | %-10lld | %lld\n",
                s.level, s.seconds, static_cast<long long>(s.nodes),
                static_cast<long long>(s.nodes_pruned), ods,
                static_cast<long long>(s.constancy_checks),
                static_cast<long long>(s.swap_checks));
  }
  return 0;
}
