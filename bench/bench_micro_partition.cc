// Micro-benchmarks (google-benchmark) for the Section 4.6 machinery that
// dominates FASTOD's runtime: dictionary encoding, single-attribute
// partition construction, the refine-by-column step that derives every
// lattice partition (in the shapes a flight profile spends its time on,
// next to the pairwise product it replaced), both
// swap-check strategies, and the O(1)-after-refinement FD error check.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "data/encode.h"
#include "gen/generators.h"
#include "partition/sorted_partition.h"
#include "partition/stripped_partition.h"

namespace {

using namespace fastod;

const Table& FlightTable(int64_t rows) {
  static Table table = GenFlightLike(100000, 12, 42);
  static int64_t cached_rows = 100000;
  (void)cached_rows;
  if (rows > table.NumRows()) table = GenFlightLike(rows, 12, 42);
  return table;
}

void BM_Encode(benchmark::State& state) {
  Table table = FlightTable(state.range(0)).Head(state.range(0));
  for (auto _ : state) {
    auto rel = EncodedRelation::FromTable(table);
    benchmark::DoNotOptimize(rel);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Encode)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_PartitionForAttribute(benchmark::State& state) {
  auto rel =
      EncodedRelation::FromTable(FlightTable(state.range(0)).Head(
          state.range(0)));
  for (auto _ : state) {
    StrippedPartition p =
        StrippedPartition::ForAttribute(rel->codes(3));  // month column
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PartitionForAttribute)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_PartitionProduct(benchmark::State& state) {
  auto rel =
      EncodedRelation::FromTable(FlightTable(state.range(0)).Head(
          state.range(0)));
  StrippedPartition month = StrippedPartition::ForAttribute(rel->codes(3));
  StrippedPartition carrier =
      StrippedPartition::ForAttribute(rel->codes(6));
  for (auto _ : state) {
    StrippedPartition p = month.Product(carrier);
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PartitionProduct)->Arg(1000)->Arg(10000)->Arg(100000);

// The same Π*_{month, carrier} as BM_PartitionProduct, derived the way
// the level-wise engines do: Π*_{month} split by carrier's code column.
void BM_PartitionRefine(benchmark::State& state) {
  auto rel =
      EncodedRelation::FromTable(FlightTable(state.range(0)).Head(
          state.range(0)));
  StrippedPartition month = StrippedPartition::ForAttribute(rel->codes(3));
  for (auto _ : state) {
    StrippedPartition p = month.Refine(rel->codes(6));
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PartitionRefine)->Arg(1000)->Arg(10000)->Arg(100000);

// The refine shapes that dominate a flight-50k profile, timed per parent
// element (items): BM_PartitionRefine above is the easy one, a dozen
// large classes split eight ways.
void RunRefine(benchmark::State& state, const StrippedPartition& parent,
               const CodeColumn& codes) {
  RefineScratch scratch;
  for (auto _ : state) {
    StrippedPartition p = parent.Refine(codes, &scratch);
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations() * parent.NumElements());
  state.counters["parent_classes"] = parent.NumClasses();
}

// Π*_{origin,dest} (2,500 classes of ~20 at 50k rows) split by carrier.
void BM_PartitionRefineRouteByCarrier(benchmark::State& state) {
  auto rel =
      EncodedRelation::FromTable(FlightTable(state.range(0)).Head(
          state.range(0)));
  const StrippedPartition route =
      StrippedPartition::ForAttribute(rel->codes(7)).Refine(rel->codes(8));
  RunRefine(state, route, rel->codes(6));
}
BENCHMARK(BM_PartitionRefineRouteByCarrier)->Arg(50000)->Arg(200000);

// Π*_{delay} (131 classes) split by duration's ~375 codes.
void BM_PartitionRefineDelayByDuration(benchmark::State& state) {
  auto rel =
      EncodedRelation::FromTable(FlightTable(state.range(0)).Head(
          state.range(0)));
  RunRefine(state, StrippedPartition::ForAttribute(rel->codes(11)),
            rel->codes(10));
}
BENCHMARK(BM_PartitionRefineDelayByDuration)->Arg(50000)->Arg(200000);

// A parent of 2- and 3-member classes (alternating, members scattered
// over the rows), split by carrier: the kernel's direct paths.
void BM_PartitionRefinePairsAndTriples(benchmark::State& state) {
  const int64_t rows = state.range(0);
  auto rel = EncodedRelation::FromTable(FlightTable(rows).Head(rows));
  std::vector<int32_t> ranks(rows);
  int32_t code = 0;
  for (int64_t t = 0; t < rows;) {
    const int64_t size = std::min<int64_t>(code % 2 == 0 ? 2 : 3, rows - t);
    for (int64_t i = 0; i < size; ++i) ranks[t + i] = code;
    t += size;
    ++code;
  }
  for (int64_t t = rows - 1; t > 0; --t) {  // Knuth shuffle, fixed seed
    std::swap(ranks[t], ranks[(t * 2654435761u) % (t + 1)]);
  }
  RunRefine(state, StrippedPartition::ForAttribute(ranks, code),
            rel->codes(6));
}
BENCHMARK(BM_PartitionRefinePairsAndTriples)->Arg(50000)->Arg(200000);

void BM_SwapCheckSortBased(benchmark::State& state) {
  auto rel =
      EncodedRelation::FromTable(FlightTable(state.range(0)).Head(
          state.range(0)));
  SortedPartitions sorted(*rel);
  SwapChecker checker(&*rel, &sorted, SwapCheckMethod::kSortBased);
  StrippedPartition ctx =
      StrippedPartition::ForAttribute(rel->codes(6));  // carrier context
  for (auto _ : state) {
    bool ok = checker.IsOrderCompatible(ctx, 2, 3);  // date_sk ~ month
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SwapCheckSortBased)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_SwapCheckTauBased(benchmark::State& state) {
  auto rel =
      EncodedRelation::FromTable(FlightTable(state.range(0)).Head(
          state.range(0)));
  SortedPartitions sorted(*rel);
  SwapChecker checker(&*rel, &sorted, SwapCheckMethod::kTauBased);
  StrippedPartition ctx = StrippedPartition::ForAttribute(rel->codes(6));
  for (auto _ : state) {
    bool ok = checker.IsOrderCompatible(ctx, 2, 3);
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SwapCheckTauBased)->Arg(1000)->Arg(10000)->Arg(100000);

// The pre-columnar FromRankColumns reference: hash-group tuples by their
// materialized rank vector, then sort the keys. Kept here (only) as the
// row-oriented baseline the LSD-radix FromCodeColumns is measured against.
StrippedPartition HashGroupPartition(
    const std::vector<const CodeColumn*>& columns, int64_t num_rows) {
  struct VecHash {
    size_t operator()(const std::vector<int32_t>& v) const {
      size_t h = 1469598103934665603ULL;
      for (int32_t x : v) {
        h ^= static_cast<size_t>(x) + 0x9e3779b9 + (h << 6) + (h >> 2);
      }
      return h;
    }
  };
  std::unordered_map<std::vector<int32_t>, std::vector<int32_t>, VecHash>
      groups;
  std::vector<int32_t> key(columns.size());
  for (int64_t t = 0; t < num_rows; ++t) {
    for (size_t c = 0; c < columns.size(); ++c) key[c] = (*columns[c])[t];
    groups[key].push_back(static_cast<int32_t>(t));
  }
  std::vector<const std::vector<int32_t>*> keys;
  keys.reserve(groups.size());
  for (const auto& [k, v] : groups) keys.push_back(&k);
  std::sort(keys.begin(), keys.end(),
            [](const std::vector<int32_t>* a, const std::vector<int32_t>* b) {
              return *a < *b;
            });
  PartitionBuilder builder(num_rows);
  for (const std::vector<int32_t>* k : keys) {
    builder.BeginClass();
    for (int32_t t : groups[*k]) builder.AddTuple(t);
    builder.EndClass();
  }
  return builder.Build();
}

std::vector<const CodeColumn*> ThreeColumns(const EncodedRelation& rel) {
  return {&rel.codes(3), &rel.codes(4), &rel.codes(6)};
}

void BM_PartitionFromCodeColumnsRadix(benchmark::State& state) {
  auto rel =
      EncodedRelation::FromTable(FlightTable(state.range(0)).Head(
          state.range(0)));
  std::vector<const CodeColumn*> columns = ThreeColumns(*rel);
  for (auto _ : state) {
    StrippedPartition p =
        StrippedPartition::FromCodeColumns(columns, rel->NumRows());
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PartitionFromCodeColumnsRadix)
    ->Arg(1000)->Arg(10000)->Arg(100000);

void BM_PartitionHashGroupBaseline(benchmark::State& state) {
  auto rel =
      EncodedRelation::FromTable(FlightTable(state.range(0)).Head(
          state.range(0)));
  std::vector<const CodeColumn*> columns = ThreeColumns(*rel);
  for (auto _ : state) {
    StrippedPartition p = HashGroupPartition(columns, rel->NumRows());
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PartitionHashGroupBaseline)
    ->Arg(1000)->Arg(10000)->Arg(100000);

void BM_FdErrorCheck(benchmark::State& state) {
  // The O(1) constancy test: compare partition errors (after the
  // refinement has been paid for). Measures the full refine+compare path
  // the engines take.
  auto rel =
      EncodedRelation::FromTable(FlightTable(state.range(0)).Head(
          state.range(0)));
  StrippedPartition month = StrippedPartition::ForAttribute(rel->codes(3));
  for (auto _ : state) {
    StrippedPartition mq = month.Refine(rel->codes(4));
    bool fd = month.Error() == mq.Error();  // month -> quarter
    benchmark::DoNotOptimize(fd);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FdErrorCheck)->Arg(1000)->Arg(10000)->Arg(100000);

// The PR's data-plane acceptance figures, reported once per run
// (independent of --benchmark_filter) so the recorded BENCH_*.json always
// carries them: bytes/row of the columnar dictionary+code encoding vs the
// row-oriented Table+ranks layout it replaced, and single-attribute
// partition build throughput over the contiguous code columns.
void ReportDataPlaneFootprint() {
  const int64_t rows = 100000;
  const Table& table = FlightTable(rows);
  auto rel = EncodedRelation::FromTable(table);
  // Row-oriented resident bytes: the Value cells plus their string heap,
  // plus the per-attribute int32 rank column the old encoding kept.
  int64_t row_bytes = 0;
  for (int c = 0; c < table.NumColumns(); ++c) {
    row_bytes += static_cast<int64_t>(table.NumRows()) *
                 static_cast<int64_t>(sizeof(Value) + sizeof(int32_t));
    for (const Value& v : table.column(c)) {
      if (v.type() == DataType::kString) {
        row_bytes += static_cast<int64_t>(v.AsString().capacity());
      }
    }
  }
  const int64_t col_bytes = rel->ByteSize();
  const double row_bpr = static_cast<double>(row_bytes) / rows;
  const double col_bpr = static_cast<double>(col_bytes) / rows;

  WallTimer timer;
  int64_t built_rows = 0;
  for (int a = 0; a < rel->NumAttributes(); ++a) {
    StrippedPartition p = StrippedPartition::ForAttribute(rel->codes(a));
    benchmark::DoNotOptimize(p);
    built_rows += rows;
  }
  const double seconds = timer.ElapsedSeconds();
  const double rows_per_sec =
      seconds > 0 ? static_cast<double>(built_rows) / seconds : 0.0;

  std::printf(
      "data plane (%lld rows x %d cols): %.1f bytes/row columnar vs %.1f "
      "row-oriented (%.0f%% lower); partition build %.2f Mrows/s\n",
      static_cast<long long>(rows), rel->NumAttributes(), col_bpr, row_bpr,
      100.0 * (1.0 - col_bpr / row_bpr), rows_per_sec / 1e6);
  char extra[256];
  std::snprintf(extra, sizeof(extra),
                "\"bytes_per_row_columnar\": %.2f, "
                "\"bytes_per_row_row_oriented\": %.2f, "
                "\"partition_build_rows_per_sec\": %.0f",
                col_bpr, row_bpr, rows_per_sec);
  fastod::bench::RecordJson("data_plane_footprint/100000x12", seconds,
                            extra);
}

// Tees every google-benchmark run into the shared --json recorder as a
// {bench, params, seconds} record (per-iteration real time), alongside
// the normal console table.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.iterations > 0) {
        fastod::bench::RecordJson(
            run.benchmark_name(),
            run.real_accumulated_time / static_cast<double>(run.iterations));
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }
};

}  // namespace

// BENCHMARK_MAIN() expanded so --json can ride along: google-benchmark
// rejects flags it doesn't know, so they are stripped before Initialize.
int main(int argc, char** argv) {
  fastod::bench::BenchJson json("bench_micro_partition", argc, argv);
  std::vector<char*> kept;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) continue;
    if (std::strcmp(argv[i], "--json") == 0) {
      ++i;  // skip the path operand too
      continue;
    }
    kept.push_back(argv[i]);
  }
  int kept_argc = static_cast<int>(kept.size());
  kept.push_back(nullptr);
  benchmark::Initialize(&kept_argc, kept.data());
  if (benchmark::ReportUnrecognizedArguments(kept_argc, kept.data())) {
    return 1;
  }
  ReportDataPlaneFootprint();
  JsonTeeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
