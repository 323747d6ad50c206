// Ablation of this implementation's own design choices (DESIGN.md Abl-1):
//  * swap-check strategy: per-class sort vs τ-scan vs auto (§4.6). The
//    swap rows split the swap checks by the stage that answered them:
//    refuted by the witness sample, settled by a complete sample, or a
//    full τ/sort scan (only auto takes the sample stages);
//  * key pruning on/off (Lemmas 12-13);
//  * level pruning on/off (Lemma 11).
// Output counts are identical across all configurations (the property
// tests prove it); only runtime moves.
#include "bench_util.h"
#include "gen/generators.h"

namespace {

using namespace fastod;
using namespace fastod::bench;

void Row(const char* dataset, const char* label,
         const EncodedRelation& rel, FastodOptions options) {
  AlgoCell cell = RunFastod(rel, options, 120.0);
  RecordJson(std::string("dataset=") + dataset + " config=" + label,
             cell.seconds);
  std::printf("  %-28s %-12s %s\n", label, cell.TimeString().c_str(),
              cell.counts.c_str());
}

// One swap-method row, with the per-stage split of its swap checks.
void SwapRow(const char* dataset, const char* label,
             const EncodedRelation& rel, SwapCheckMethod method) {
  ExecutionControl control;
  ArmCutoff(&control, 120.0);
  FastodOptions options;
  options.swap_method = method;
  options.emit_ods = false;
  options.control = &control;
  WallTimer timer;
  FastodResult result = Fastod(options).Discover(rel);
  AlgoCell cell;
  cell.seconds = timer.ElapsedSeconds();
  cell.timed_out = result.timed_out;
  int64_t checks = 0, refutes = 0, scans = 0;
  for (const FastodLevelStats& level : result.level_stats) {
    checks += level.swap_checks;
    refutes += level.swap_sample_refutes;
    scans += level.swap_full_scans;
  }
  const int64_t complete = checks - refutes - scans;
  RecordJson(std::string("dataset=") + dataset + " config=" + label,
             cell.seconds,
             "\"swap_checks\": " + std::to_string(checks) +
                 ", \"sample_refutes\": " + std::to_string(refutes) +
                 ", \"sample_complete\": " + std::to_string(complete) +
                 ", \"full_scans\": " + std::to_string(scans));
  std::printf("  %-28s %-12s %s  swap checks %lld = %lld sample-refuted "
              "+ %lld sample-complete + %lld full scans\n",
              label, cell.TimeString().c_str(),
              result.CountsToString().c_str(), static_cast<long long>(checks),
              static_cast<long long>(refutes),
              static_cast<long long>(complete),
              static_cast<long long>(scans));
}

void Dataset(const char* name, const Table& table) {
  auto rel = EncodedRelation::FromTable(table);
  if (!rel.ok()) return;
  std::printf("\n--- %s (%lld rows x %d attrs) ---\n", name,
              static_cast<long long>(table.NumRows()), table.NumColumns());

  SwapRow(name, "swap=sort (baseline)", *rel, SwapCheckMethod::kSortBased);
  SwapRow(name, "swap=tau", *rel, SwapCheckMethod::kTauBased);
  SwapRow(name, "swap=auto", *rel, SwapCheckMethod::kAuto);

  FastodOptions base;
  base.swap_method = SwapCheckMethod::kSortBased;

  FastodOptions no_key = base;
  no_key.key_pruning = false;
  Row(name, "key pruning off", *rel, no_key);
  FastodOptions no_level = base;
  no_level.level_pruning = false;
  Row(name, "level pruning off", *rel, no_level);
  FastodOptions neither = base;
  neither.key_pruning = false;
  neither.level_pruning = false;
  Row(name, "key+level pruning off", *rel, neither);
}

}  // namespace

int main(int argc, char** argv) {
  int scale = ParseScale(argc, argv);
  BenchJson json("bench_ablation_validation", argc, argv);
  PrintHeader("Abl-1 — validation & pruning ablations (ours)",
              "configurations agree on output; swap strategy and the "
              "Lemma 11-13 rules trade only runtime");
  Dataset("flight-like", GenFlightLike(2000 * scale, 12, 42));
  Dataset("ncvoter-like", GenNcvoterLike(2000 * scale, 12, 42));
  Dataset("hepatitis-like", GenHepatitisLike(155, 14, 42));
  Dataset("dbtesma-like", GenDbtesmaLike(1000 * scale, 12, 42));
  return 0;
}
