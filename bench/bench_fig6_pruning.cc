// Figure 6 reproduction (Exp-5 and Exp-6): impact of the pruning rules.
// FASTOD vs FASTOD-NoPruning (minimality/level/key pruning all disabled)
// over a rows sweep and an attributes sweep of flight-like data, reporting
// both runtime and the number of ODs — minimal vs all-valid (the paper
// reports ~700 minimal vs ~50M non-minimal at 1K x 20).
#include <vector>

#include "bench_util.h"
#include "gen/generators.h"

namespace {

using namespace fastod;
using namespace fastod::bench;

AlgoCell RunNoPruning(const EncodedRelation& rel, double timeout) {
  FastodOptions options;
  options.minimality_pruning = false;
  options.level_pruning = false;
  options.key_pruning = false;
  return RunFastod(rel, options, timeout);
}

void Row(const char* sweep, const char* label,
         const EncodedRelation& rel) {
  AlgoCell pruned = RunFastod(rel);
  AlgoCell unpruned = RunNoPruning(rel, 60.0);
  std::string params = std::string(sweep) + "=" + label;
  RecordJson(params + " algo=fastod", pruned.seconds);
  RecordJson(params + " algo=fastod-nopruning", unpruned.seconds);
  std::printf("%-10s | %-12s | %-22s | %-12s | %s\n", label,
              pruned.TimeString().c_str(), pruned.counts.c_str(),
              unpruned.TimeString().c_str(), unpruned.counts.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  int scale = ParseScale(argc, argv);
  BenchJson json("bench_fig6_pruning", argc, argv);
  PrintHeader("Exp-5/6 — impact of pruning (Figure 6)",
              "pruning buys orders of magnitude in time; minimal OD count "
              "is orders of magnitude below the all-valid count");

  std::printf("\n--- flight-like, 8 attributes, rows sweep ---\n");
  std::printf("%-10s | %-12s | %-22s | %-12s | %s\n", "rows", "FASTOD",
              "minimal #ODs", "NoPruning", "all-valid #ODs");
  for (int step = 1; step <= 5; ++step) {
    int64_t rows = 1000 * step * scale;
    Table table = GenFlightLike(rows, 8, 42);
    auto rel = EncodedRelation::FromTable(table);
    if (!rel.ok()) return 1;
    char label[32];
    std::snprintf(label, sizeof(label), "%lld",
                  static_cast<long long>(rows));
    Row("rows", label, *rel);
  }

  std::printf("\n--- flight-like, 500 rows, attributes sweep ---\n");
  std::printf("%-10s | %-12s | %-22s | %-12s | %s\n", "attrs", "FASTOD",
              "minimal #ODs", "NoPruning", "all-valid #ODs");
  for (int attrs : {4, 6, 8, 10, 12}) {
    Table table = GenFlightLike(500 * scale, attrs, 42);
    auto rel = EncodedRelation::FromTable(table);
    if (!rel.ok()) return 1;
    char label[32];
    std::snprintf(label, sizeof(label), "%d", attrs);
    Row("attrs", label, *rel);
  }
  return 0;
}
