// Guards the "thin adapter" claim of the unified Algorithm API: running an
// engine through AlgorithmRegistry::Create + SetOption + BindDataset + Execute
// with a streaming CollectingOdSink must cost the same as calling the
// legacy entry point directly (the adapters add one options copy and a
// virtual dispatch per run; with emit-ods=false the sink replaces one
// vector append per OD — sinks tee by default, so the bench opts out of
// materialization to keep both modes at one append per OD).
//
// The repeated-session rows quantify the DatasetStore's
// load-once/discover-many amortization: N sessions over one relation,
// either each re-reading + re-encoding the CSV (mode=fresh-load, the
// pre-store server behavior) or all binding one LoadedDataset built once
// (mode=shared-dataset, CSV parse + encode + level-1 partitions skipped
// per session).
// With --overload the bench instead measures the admission-control
// rejection path: a service filled to its session cap refuses further
// submissions with kUnavailable, and the p50/p99 latency of those
// refusals is the number an operator cares about — rejections must stay
// cheap precisely when the service is busiest.
// With --metrics-overhead it measures the observability tax instead:
// identical service sessions with the metrics registry + trace spans
// enabled vs FASTOD_METRICS=off. The bar is <2% — the counters ride the
// engine's existing level stats, so publication cost is per-session,
// not per-tuple.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/engines.h"
#include "api/od_sink.h"
#include "api/registry.h"
#include "bench_util.h"
#include "common/cancellation.h"
#include "data/csv.h"
#include "data/dataset_store.h"
#include "gen/generators.h"
#include "obs/metrics.h"
#include "service/discovery_service.h"

namespace {

using namespace fastod;
using namespace fastod::bench;

void Row(const char* label, const Table& table) {
  std::shared_ptr<const LoadedDataset> dataset = DatasetOf(table, label);

  // Both sides start from the dataset's prebuilt level-1 partitions.
  WallTimer direct_timer;
  FastodResult direct = Fastod().Discover(dataset->relation(),
                                          &dataset->singleton_partitions());
  double direct_seconds = direct_timer.ElapsedSeconds();

  auto algo = AlgorithmRegistry::Default().Create("fastod");
  CollectingOdSink sink;
  (*algo)->SetSink(&sink);
  // Sinks tee since the server work landed; keep this a pure
  // stream-vs-materialize comparison (one append per OD on both sides).
  (void)(*algo)->SetOption("emit-ods", "false");
  (void)(*algo)->BindDataset(dataset);
  WallTimer api_timer;
  (void)(*algo)->Execute();
  double api_seconds = api_timer.ElapsedSeconds();

  RecordJson(std::string("workload=") + label + " mode=direct",
             direct_seconds);
  RecordJson(std::string("workload=") + label + " mode=api",
             api_seconds);
  std::printf("%-14s | direct %8.3fs (%lld ODs) | api+sink %8.3fs "
              "(%lld ODs) | overhead %+.1f%%\n",
              label, direct_seconds,
              static_cast<long long>(direct.NumOds()), api_seconds,
              static_cast<long long>(sink.TotalOds()),
              direct_seconds > 0.0
                  ? (api_seconds / direct_seconds - 1.0) * 100.0
                  : 0.0);
}

// N discovery sessions over one relation, with and without the shared
// DatasetStore. Both modes run the identical engine configuration; the
// difference is purely per-session input preparation.
void RepeatedSessionsRow(const char* label, const Table& table,
                         int sessions) {
  std::string path = "/tmp/bench_api_overhead_" +
                     std::to_string(::getpid()) + ".csv";
  if (!WriteCsvFile(table, path).ok()) {
    std::printf("%-14s | cannot write %s, skipped\n", label, path.c_str());
    return;
  }

  auto run_one = [](Algorithm& algo) {
    (void)algo.SetOption("emit-ods", "false");
    CountingOdSink sink;
    algo.SetSink(&sink);
    (void)algo.Execute();
    return sink.Total();
  };

  // Mode 1: every session parses, types, encodes and partitions the CSV
  // itself, into a dataset of its own.
  WallTimer fresh_timer;
  int64_t fresh_ods = 0;
  for (int i = 0; i < sessions; ++i) {
    auto algo = AlgorithmRegistry::Default().Create("fastod");
    auto loaded = LoadedDataset::LoadCsvFile(label, path, CsvOptions());
    if (!loaded.ok()) {
      std::printf("%-14s | cannot read %s back, skipped\n", label,
                  path.c_str());
      std::remove(path.c_str());
      return;
    }
    (void)(*algo)->BindDataset(*std::move(loaded));
    fresh_ods = run_one(**algo);
  }
  double fresh_seconds = fresh_timer.ElapsedSeconds();

  // Mode 2: one store load, then N sessions bind it by reference and
  // start from the prebuilt level-1 partitions.
  DatasetStore store;
  WallTimer shared_timer;
  auto dataset = store.PutCsvFile(label, path);
  if (!dataset.ok()) {
    std::printf("%-14s | store load failed (%s), skipped\n", label,
                dataset.status().ToString().c_str());
    std::remove(path.c_str());
    return;
  }
  double load_once_seconds = shared_timer.ElapsedSeconds();
  int64_t shared_ods = 0;
  for (int i = 0; i < sessions; ++i) {
    auto algo = AlgorithmRegistry::Default().Create("fastod");
    auto shared = store.Get(label);  // cannot fail: no budget, just Put
    (void)(*algo)->BindDataset(shared.ok() ? *std::move(shared) : *dataset);
    shared_ods = run_one(**algo);
  }
  double shared_seconds = shared_timer.ElapsedSeconds();
  std::remove(path.c_str());

  std::string params_base = std::string("workload=") + label +
                            " sessions=" + std::to_string(sessions);
  RecordJson(params_base + " mode=fresh-load", fresh_seconds);
  RecordJson(params_base + " mode=shared-dataset", shared_seconds);
  std::printf("%-14s | %2d sessions | fresh-load %8.3fs | shared-dataset "
              "%8.3fs (load-once %.3fs) | speedup %.2fx%s\n",
              label, sessions, fresh_seconds, shared_seconds,
              load_once_seconds,
              shared_seconds > 0.0 ? fresh_seconds / shared_seconds : 0.0,
              fresh_ods == shared_ods ? "" : " | OD MISMATCH");
}

// Occupies every admission slot forever (until cancelled): the cheapest
// way to hold a service at capacity while rejections are timed.
class SleeperAlgorithm : public Algorithm {
 public:
  SleeperAlgorithm()
      : Algorithm("sleeper", "bench-only: blocks until cancelled") {}
  std::string ResultText() const override { return "sleeper\n"; }
  std::string ResultJson() const override {
    return "{\"algorithm\": \"sleeper\"}\n";
  }

 protected:
  Status ExecuteInternal() override {
    while (!control()->StopRequested()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::Ok();
  }
};

// Rejection latency at 4x the admission limit: fill `limit` slots with
// sleepers, then time Create+Submit of 4*limit more sessions, every one
// of which must be refused with kUnavailable.
void OverloadRow(int limit) {
  AlgorithmRegistry registry;
  registry.Register("sleeper", [] {
    return std::unique_ptr<Algorithm>(new SleeperAlgorithm());
  });
  DiscoveryService service(2, &registry);
  service.SetMaxActiveSessions(limit);
  Table table = EmployeeTaxTable();

  for (int i = 0; i < limit; ++i) {
    auto id = service.Create("sleeper");
    if (!id.ok() || !service.BindDataset(*id, DatasetOf(table)).ok() ||
        !service.Submit(*id).ok()) {
      std::printf("overload limit=%d | could not fill slots, skipped\n",
                  limit);
      return;
    }
  }

  const int attempts = 4 * limit;
  std::vector<double> latencies;
  latencies.reserve(attempts);
  int refused = 0;
  for (int i = 0; i < attempts; ++i) {
    auto id = service.Create("sleeper");
    if (!id.ok() || !service.BindDataset(*id, DatasetOf(table)).ok()) continue;
    WallTimer timer;
    Status status = service.Submit(*id);
    latencies.push_back(timer.ElapsedSeconds());
    if (status.code() == StatusCode::kUnavailable) ++refused;
    (void)service.Destroy(*id);
  }
  service.CancelAll();

  std::sort(latencies.begin(), latencies.end());
  auto percentile = [&](double p) {
    size_t index = static_cast<size_t>(p * (latencies.size() - 1));
    return latencies[index];
  };
  double p50 = percentile(0.50);
  double p99 = percentile(0.99);
  std::string params = "mode=overload limit=" + std::to_string(limit) +
                       " attempts=" + std::to_string(attempts);
  RecordJson(params + " stat=p50", p50);
  RecordJson(params + " stat=p99", p99);
  std::printf("overload limit=%3d | %3d/%3d refused | rejection p50 "
              "%8.1fus | p99 %8.1fus\n",
              limit, refused, attempts, p50 * 1e6, p99 * 1e6);
}

// The observability tax: N back-to-back service sessions on one
// relation, once with metrics + trace spans enabled and once disabled.
// The engine work is identical; the delta is span recording and
// terminal-transition counter publication.
void MetricsOverheadRow(const char* label, const Table& table,
                        int sessions) {
  const bool saved = obs::Enabled();
  auto run = [&](bool enabled) {
    obs::SetEnabled(enabled);
    DiscoveryService service(1);
    WallTimer timer;
    for (int i = 0; i < sessions; ++i) {
      auto id = service.Create("fastod");
      if (!id.ok() || !service.BindDataset(*id, DatasetOf(table)).ok() ||
          !service.Submit(*id).ok()) {
        return -1.0;
      }
      auto state = service.Wait(*id);
      if (!state.ok() || *state != SessionState::kDone) return -1.0;
      (void)service.Destroy(*id);
    }
    return timer.ElapsedSeconds();
  };
  // Disabled first, then enabled: a warm first pass would otherwise
  // flatter whichever mode runs second.
  double off_seconds = run(false);
  double on_seconds = run(true);
  obs::SetEnabled(saved);
  if (off_seconds < 0.0 || on_seconds < 0.0) {
    std::printf("%-14s | session setup failed, skipped\n", label);
    return;
  }
  std::string params_base = std::string("workload=") + label +
                            " sessions=" + std::to_string(sessions);
  RecordJson(params_base + " mode=metrics-off", off_seconds);
  RecordJson(params_base + " mode=metrics-on", on_seconds);
  std::printf("%-14s | %2d sessions | metrics-off %8.3fs | metrics-on "
              "%8.3fs | overhead %+.2f%%\n",
              label, sessions, off_seconds, on_seconds,
              off_seconds > 0.0
                  ? (on_seconds / off_seconds - 1.0) * 100.0
                  : 0.0);
}

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const int scale = ParseScale(argc, argv);
  BenchJson json("bench_api_overhead", argc, argv);
  if (HasFlag(argc, argv, "--overload")) {
    PrintHeader("Admission-control rejection latency (service at "
                "capacity; submissions at 4x the limit)",
                "robustness hardening; expectation: refusals stay in "
                "microseconds under full load");
    OverloadRow(8 * scale);
    OverloadRow(64 * scale);
    return 0;
  }
  if (HasFlag(argc, argv, "--metrics-overhead")) {
    PrintHeader("Observability overhead (metrics + trace spans on vs "
                "FASTOD_METRICS=off, identical service sessions)",
                "observability subsystem; expectation: overhead under 2%");
    MetricsOverheadRow("flight 2Kx10", GenFlightLike(2000 * scale, 10, 7),
                       12);
    MetricsOverheadRow("ncvoter 4Kx8",
                       GenNcvoterLike(4000 * scale, 8, 11), 12);
    return 0;
  }
  PrintHeader("Unified-API adapter overhead (registry + option registry + "
              "streaming sink vs direct engine calls)",
              "api/ redesign; expectation: overhead within noise");
  Row("flight 1Kx10", GenFlightLike(1000 * scale, 10, 7));
  Row("ncvoter 2Kx8", GenNcvoterLike(2000 * scale, 8, 11));
  Row("dbtesma 1Kx12", GenDbtesmaLike(1000 * scale, 12, 23));

  std::printf("\nload-once/discover-many (shared DatasetStore vs "
              "per-session CSV load)\n");
  RepeatedSessionsRow("flight 2Kx10", GenFlightLike(2000 * scale, 10, 7),
                      8);
  RepeatedSessionsRow("ncvoter 4Kx8", GenNcvoterLike(4000 * scale, 8, 11),
                      8);
  return 0;
}
