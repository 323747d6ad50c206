#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "client.h"
#include "data/csv.h"
#include "data/dataset_store.h"
#include "gen.h"
#include "layers.h"
#include "server/discovery_server.h"

namespace perfbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
// Operations of each kind a flight-50k run completes even past its
// deadline. A pair takes about 2 s, so a run of 10 s or more is set by
// --seconds instead.
constexpr int kMinOps = 5;
// fastod.levelK_ms for K < kLevels; deeper levels sum into
// fastod.level<kLevels>plus_ms.
constexpr int kLevels = 8;
// Span operation ids of one-off calls outside the timed loop.
constexpr int64_t kProbeOp = int64_t{1} << 30;

Clock::time_point After(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Samples in the order taken, for the detail line.
std::string Join(const std::vector<double>& values) {
  std::string text;
  for (double value : values) {
    if (!text.empty()) text += ' ';
    text += std::to_string(value);
  }
  return text;
}

// ------------------------------------------------------ layer metrics

void AddEngineMetrics(const EngineCounters& serial,
                      const EngineCounters& parallel,
                      double execute_serial_ms, double execute_parallel_ms,
                      RunResult* out) {
  out->Metric("fastod.execute_serial_ms", execute_serial_ms, "ms");
  out->Metric("fastod.execute_parallel_ms", execute_parallel_ms, "ms");
  out->Metric("fastod.parallel_efficiency",
              Ratio(execute_serial_ms, Nproc() * execute_parallel_ms),
              "ratio");
  std::vector<double> level_ms(kLevels, 0.0);
  for (const auto& [level, ms] : serial.level_ms) {
    level_ms[std::clamp(level, 1, kLevels) - 1] += ms;
  }
  for (int k = 1; k <= kLevels; ++k) {
    out->Metric("fastod.level" + std::to_string(k) +
                    (k == kLevels ? "plus_ms" : "_ms"),
                level_ms[k - 1], "ms");
  }
  out->Metric("fastod.nodes", serial.nodes, "count");
  out->Metric("fastod.constancy_checks", serial.constancy_checks, "count");
  out->Metric("fastod.swap_checks", serial.swap_checks, "count");
  out->Metric("fastod.key_prune_hits", serial.key_prune_hits, "count");
  out->Metric("fastod.ods", serial.ods, "count");
  out->Metric("fastod.ods_per_check",
              Ratio(serial.ods, serial.constancy_checks + serial.swap_checks),
              "ratio");
  out->Metric("partition_cache.gets_per_put",
              Ratio(serial.cache_gets, serial.cache_puts), "ratio");
  out->Metric("task_graph.tasks_spawned", parallel.tasks_spawned, "count");
  out->Metric("task_graph.steal_ratio",
              Ratio(parallel.tasks_stolen, parallel.tasks_spawned), "ratio");
}

void AddReplayMetrics(const LayerReplay& replay, int64_t dataset_bytes,
                      int64_t ingest_bytes, RunResult* out) {
  if (!replay.error.empty()) out->Inconsistent("replay: " + replay.error);
  out->Metric("data.csv_read_ms", replay.csv_read_ms, "ms");
  out->Metric("data.csv_tokenize_ms", replay.csv_tokenize_ms, "ms");
  out->Metric("data.encode_ms", replay.encode_ms, "ms");
  out->Metric("data.load_ms", replay.load_ms, "ms");
  out->Metric("data.dataset_bytes", static_cast<double>(dataset_bytes),
              "bytes");
  out->Metric("data.ingest_amplification",
              Ratio(static_cast<double>(ingest_bytes),
                    static_cast<double>(dataset_bytes)),
              "ratio");
  out->Metric("partition.level1_ms", replay.level1_ms, "ms");
  out->Metric("partition.product_ms", replay.product_ms, "ms");
  out->Metric("partition.product_elems_per_us", replay.product_elems_per_us,
              "1/us");
  out->Metric("partition.class_index_ms", replay.class_index_ms, "ms");
}

/// Lowest share of an operation's wall time its direct child spans
/// cover, over the traced operations whose root starts with `prefix`.
double MinCoveragePct(const std::vector<OpProfile>& profiles,
                      const std::string& prefix) {
  double lowest = 100.0;
  for (const OpProfile& profile : profiles) {
    if (profile.root.rfind(prefix, 0) != 0 || profile.wall_ms <= 0.0) {
      continue;
    }
    lowest = std::min(lowest, 100.0 * profile.covered_ms / profile.wall_ms);
  }
  return lowest;
}

void WriteTrace(const Tracer& tracer, const Args& args) {
  tracer.WriteJsonl(args.out_dir + "/trace-" + args.workload + "-seed" +
                    std::to_string(args.seed) + ".jsonl");
}

// ------------------------------------------------------- server paths

fastod::DiscoveryServerOptions ServerOptions(int clients) {
  fastod::DiscoveryServerOptions options;
  options.port = 0;
  // Every open /stream holds an HTTP worker for its session's lifetime.
  options.http_threads = 4 * clients + 4;
  options.worker_threads = Nproc();
  options.dataset_budget_bytes = 0;
  return options;
}

struct WriteOutcome {
  std::string error;
  double append_ms = 0.0;
  SessionOutcome session;
};

/// The write path: append `delta` to `dataset_id` (span server.append),
/// then an incremental session given the prior version's report (span
/// incremental.session around the session's own spans).
WriteOutcome RunWrite(int port, Tracer* tracer, int64_t op,
                      const std::string& dataset_id,
                      const std::string& delta, const std::string& prior,
                      const Fingerprint& prior_ods) {
  WriteOutcome out;
  const Clock::time_point start = Clock::now();
  HttpResponse appended;
  {
    Tracer::Scope span(tracer, "server.append", op);
    appended = AppendRows(port, dataset_id, delta);
  }
  out.append_ms = MsBetween(start, Clock::now());
  if (appended.status != 200) {
    out.error = "append -> " + std::to_string(appended.status) + " " +
                appended.body.substr(0, 200);
    return out;
  }
  {
    Tracer::Scope span(tracer, "incremental.session", op);
    out.session = RunSession(
        port, tracer, op,
        SessionRequest("incremental", dataset_id, 0, prior), &prior_ods);
  }
  out.error = out.session.error;
  return out;
}

/// server.* and incremental.* layer metrics for a workload that otherwise
/// runs in process: one upload, one streamed fastod session at `threads`,
/// and one append + incremental session through an in-process server.
/// The incremental result is checked against fresh discovery on the grown
/// relation.
void ServerProbe(Tracer* tracer, const std::string& csv,
                 const std::string& delta, const Fingerprint& reference,
                 int threads, RunResult* out) {
  double upload_ms = 0.0;
  SessionOutcome read;
  WriteOutcome write;
  {
    fastod::DiscoveryServer server(ServerOptions(1));
    const fastod::Status started = server.Start();
    if (!started.ok()) {
      out->Inconsistent("probe server start: " + started.ToString());
      return;
    }
    const int port = server.port();
    Tracer::SetThreadTracing(true);
    const Clock::time_point start = Clock::now();
    HttpResponse uploaded;
    {
      Tracer::Scope span(tracer, "server.upload", kProbeOp);
      uploaded = UploadDataset(port, "probe", csv);
    }
    upload_ms = MsBetween(start, Clock::now());
    if (uploaded.status != 201) {
      write.error = "probe upload -> " + std::to_string(uploaded.status);
    } else {
      {
        Tracer::Scope root(tracer, "probe.read", kProbeOp);
        read = RunSession(port, tracer, kProbeOp,
                          SessionRequest("fastod", "probe", threads, ""));
      }
      if (read.error.empty() && !(read.reported == reference)) {
        read.error = "output " + read.reported.ToString() +
                     " differs from the reference " + reference.ToString();
      }
      if (!read.error.empty()) {
        write.error = "probe read: " + read.error;
      } else {
        Tracer::Scope root(tracer, "probe.write", kProbeOp + 1);
        write = RunWrite(port, tracer, kProbeOp + 1, "probe", delta,
                         read.result_body, read.reported);
      }
    }
    Tracer::SetThreadTracing(false);
  }
  if (write.error.empty()) {
    fastod::DatasetStore store;
    fastod::CsvOptions rows_only;
    rows_only.has_header = false;
    auto grown = store.PutCsvString("grown", csv);
    if (grown.ok()) grown = store.AppendCsvString("grown", delta, rows_only);
    if (!grown.ok()) {
      write.error = "probe reference load: " + grown.status().ToString();
    } else {
      const DiscoveryOutcome fresh =
          RunDiscovery(nullptr, "probe.reference", -1, &store, nullptr,
                       *grown, threads);
      if (!fresh.error.empty() ||
          !(fresh.fingerprint == write.session.reported)) {
        write.error = "incremental output " +
                      write.session.reported.ToString() +
                      " differs from fresh discovery " +
                      fresh.fingerprint.ToString() + " " + fresh.error;
      }
    }
  }
  if (!write.error.empty()) out->Inconsistent(write.error);
  out->Metric("server.upload_ms", upload_ms, "ms");
  out->Metric("server.create_ms", read.create_ms, "ms");
  out->Metric("server.first_od_ms", read.first_od_ms, "ms");
  out->Metric("server.stream_ms", read.stream_ms, "ms");
  out->Metric("server.stream_bytes", static_cast<double>(read.stream_bytes),
              "bytes");
  out->Metric("server.result_ms", read.result_ms, "ms");
  out->Metric("server.append_ms", write.append_ms, "ms");
  out->Metric("incremental.session_ms", write.session.total_ms, "ms");
}

// ---------------------------------------------------------- flight-50k

constexpr int64_t kFlightRows = 50000;
// Rows the traced server probe appends: 1%.
constexpr int64_t kFlightDeltaRows = kFlightRows / 100;
// Set-ups per untraced run; setup_s is their median. The first set-up of
// a process is the slowest (cold heap and thread pool), so an odd count
// above three keeps it away from the median.
constexpr int kFlightSetups = 5;

struct FlightState {
  std::string csv;
  std::shared_ptr<const fastod::LoadedDataset> dataset;
  Fingerprint reference;
  int64_t ingest_bytes = 0;
};

/// One set-up: generate the CSV text, load it once (the measured ingest),
/// compute the threads=1 reference, and warm up with one discovery at
/// `threads` on the loaded dataset, checked against it. Without the
/// warm-up the first timed operation pays for the worker threads' first
/// allocations. It skips the ingest, which the set-up has just run.
std::string SetUpFlight(uint64_t seed, int threads,
                        fastod::DatasetStore* store, FlightState* state,
                        RunResult* out) {
  state->csv = FlightCsv(kFlightRows, seed);
  {
    PeakRss peak(/*trim_heap=*/true);
    auto put = store->PutCsvString("setup", state->csv);
    if (!put.ok()) return "set-up load: " + put.status().ToString();
    state->ingest_bytes = peak.PeakBytes() - peak.base_bytes();
    state->dataset = *std::move(put);
    out->MemoryMethod(peak);
  }
  std::string error = Reference("fastod", state->dataset, &state->reference);
  if (!error.empty()) return error;
  const DiscoveryOutcome warm_up = RunDiscovery(
      nullptr, "warm-up", -1, store, nullptr, state->dataset, threads);
  if (!warm_up.error.empty()) return "warm-up: " + warm_up.error;
  if (!(warm_up.fingerprint == state->reference)) {
    return "warm-up output " + warm_up.fingerprint.ToString() +
           " differs from the threads=1 reference " +
           state->reference.ToString();
  }
  return "";
}

}  // namespace

void RunFlight50k(const Args& args, RunResult* out) {
  const int nproc = Nproc();
  fastod::DatasetStore store;
  Tracer tracer;
  FlightState state;
  std::vector<double> setup_s;
  std::vector<double> ingest_mb;
  const int setups = args.trace ? 1 : kFlightSetups;
  for (int k = 0; k < setups; ++k) {
    const Fingerprint previous = state.reference;
    state = FlightState();
    (void)store.Erase("setup");
    const Clock::time_point start = Clock::now();
    const std::string error =
        SetUpFlight(args.seed, nproc, &store, &state, out);
    setup_s.push_back(MsBetween(start, Clock::now()) / 1000.0);
    if (!error.empty()) {
      out->Inconsistent(error);
      return;
    }
    if (k > 0 && !(state.reference == previous)) {
      out->Inconsistent("set-ups disagree on the reference output");
    }
    ingest_mb.push_back(static_cast<double>(state.ingest_bytes) / kMiB);
  }

  struct Sample {
    bool parallel;
    bool traced;
    double ms;
  };
  std::vector<Sample> samples;
  EngineCounters serial_counters;
  EngineCounters parallel_counters;
  size_t report_bytes = 0;
  PeakRss peak(/*trim_heap=*/false);
  const Clock::time_point deadline = After(args.seconds);
  // Operations come in pairs, threads=nproc then threads=1. A traced run
  // also alternates traced and untraced pairs, so the tracing overhead is
  // measured on the same mix.
  const int64_t min_ops = args.trace ? 8 : 2 * kMinOps;
  for (int64_t op = 0;; ++op) {
    const bool parallel = op % 2 == 0;
    if (parallel && op >= min_ops && Clock::now() >= deadline) break;
    const bool traced = args.trace && (op / 2) % 2 == 0;
    // Every operation starts from a trimmed heap, outside its timing, so
    // what earlier operations left in the allocator does not carry over.
    malloc_trim(0);
    Tracer::SetThreadTracing(traced);
    const DiscoveryOutcome result = RunDiscovery(
        &tracer, parallel ? "op.parallel" : "op.serial", op, &store,
        &state.csv, state.dataset, parallel ? nproc : 1);
    Tracer::SetThreadTracing(false);
    std::string error = result.error;
    Fingerprint rendered;
    if (error.empty() && !FingerprintReport(result.report, &rendered)) {
      error = "the report does not parse";
    }
    if (error.empty() && !(rendered == state.reference &&
                           result.fingerprint == state.reference)) {
      error = "operation " + std::to_string(op) + " output " +
              rendered.ToString() + " differs from the threads=1 reference " +
              state.reference.ToString();
    }
    out->Count(error);
    samples.push_back(Sample{parallel, traced, result.wall_ms});
    (parallel ? parallel_counters : serial_counters) = result.counters;
    report_bytes = result.report.size();
  }
  const double peak_mb = static_cast<double>(peak.PeakBytes()) / kMiB;
  // traced: -1 any, 0 untraced only, 1 traced only.
  auto latencies = [&](bool parallel, int traced) {
    std::vector<double> ms;
    for (const Sample& s : samples) {
      if (s.parallel == parallel &&
          (traced < 0 || s.traced == (traced == 1))) {
        ms.push_back(s.ms);
      }
    }
    return ms;
  };

  if (!args.trace) {
    const std::vector<double> parallel_ms = latencies(true, -1);
    const std::vector<double> serial_ms = latencies(false, -1);
    const double p50 = Median(parallel_ms);
    double tail_percentile = 0.0;
    const double tail = Tail(parallel_ms, &tail_percentile);
    const auto n = static_cast<int64_t>(parallel_ms.size());
    out->Metric("setup_s", Median(setup_s), "s", setups);
    out->Metric("latency_p50_ms", p50, "ms", n);
    out->Metric("latency_tail_ms", tail, "ms", n);
    out->Metric("serial_latency_p50_ms", Median(serial_ms), "ms",
                static_cast<int64_t>(serial_ms.size()));
    // One operation at a time: the rate a caller issuing them back to
    // back gets, from the median so one stalled operation does not set it.
    out->Metric("throughput_ops_s", Ratio(1000.0, p50), "1/s", n);
    out->Metric("peak_rss_mb", peak_mb, "MB");
    out->Metric("ingest_peak_mb", Median(ingest_mb), "MB", setups);
    out->Metric("success_rate", out->SuccessRate(), "ratio",
                out->attempted());
    out->Note("latency_tail_percentile", tail_percentile);
    out->Note("engine_threads", nproc);
    out->Note("reference", state.reference.ToString());
    out->Note("setup_s_each", Join(setup_s));
    out->Note("latency_ms_each", Join(parallel_ms));
    out->Note("serial_latency_ms_each", Join(serial_ms));
    out->Note("nodes", static_cast<double>(serial_counters.nodes));
    out->Note("swap_checks", static_cast<double>(serial_counters.swap_checks));
    return;
  }

  const std::vector<OpProfile> profiles = ProfileOps(tracer.spans());
  out->Metric("trace.overhead_pct",
              100.0 * (Ratio(Median(latencies(true, 1)),
                             Median(latencies(true, 0))) -
                       1.0),
              "%");
  out->Metric("trace.coverage_pct", MinCoveragePct(profiles, "op."), "%",
              static_cast<int64_t>(profiles.size()));
  out->Metric("api.bind_ms", MedianSelfMs(profiles, "", "api.bind"), "ms");
  out->Metric("report.render_ms",
              MedianSelfMs(profiles, "", "report.render"), "ms");
  out->Metric("report.bytes", static_cast<double>(report_bytes), "bytes");
  AddEngineMetrics(serial_counters, parallel_counters,
                   MedianSelfMs(profiles, "op.serial", "fastod.execute"),
                   MedianSelfMs(profiles, "op.parallel", "fastod.execute"),
                   out);
  Tracer::SetThreadTracing(true);
  const LayerReplay replay = ReplayLayers(&tracer, state.csv);
  Tracer::SetThreadTracing(false);
  AddReplayMetrics(replay, state.dataset->ApproxBytes(), state.ingest_bytes,
                   out);
  ServerProbe(&tracer, state.csv,
              FlightCsv(kFlightDeltaRows, args.seed, kFlightRows, kFlightRows),
              state.reference, nproc, out);
  WriteTrace(tracer, args);
}

namespace {

// ------------------------------------------------------------ serve-mix

// Set-ups per untraced run; setup_s is their median.
constexpr int kServeSetups = 5;
constexpr int64_t kServeRows = 20000;
constexpr int64_t kDeltaRows = kServeRows / 100;
// Appends to the write dataset before it is uploaded afresh, so appends
// never make later operations steadily slower.
constexpr int kWriteChain = 4;
// Every kWriteEvery-th loaded operation is a write: the 95% read / 5%
// update mix of YCSB workload B (Cooper et al., SoCC 2010). A loaded
// phase then holds more than ten writes, enough for writes alone to set
// latency_tail_ms.
constexpr int kWriteEvery = 20;
// Share of --seconds spent with one client issuing one read at a time.
constexpr double kSerialShare = 0.4;
// The serial and loaded phases alternate this many times, so both span
// the whole run: the host's speed drifts over seconds, and a metric taken
// over one contiguous part of the run moved more between runs.
constexpr int kRounds = 5;
constexpr int64_t kLoadedOpBase = int64_t{1} << 20;

struct ReadKind {
  const char* algorithm;
  const char* dataset;
};
// Five equally weighted slots: with an odd count the median sits inside
// one kind's latency mode instead of in the gap between two.
constexpr ReadKind kReads[] = {{"fastod", "flight"},
                               {"tane", "flight"},
                               {"fastod", "ncvoter"},
                               {"tane", "ncvoter"},
                               {"fastod", "flight"}};
constexpr size_t kReadSlots = sizeof(kReads) / sizeof(kReads[0]);

struct ServeState {
  std::unique_ptr<fastod::DiscoveryServer> server;
  int port = 0;
  std::string flight_csv;
  std::string ncvoter_csv;
  std::vector<std::string> deltas;  // the write chain's append blocks
  std::map<std::string, Fingerprint> read_refs;  // "fastod/flight" -> ...
  std::vector<Fingerprint> write_refs;  // flight-w after deltas[0..k]
  std::string first_prior;  // /result of fastod on flight-w version 1
  Fingerprint first_prior_ods;
  double upload_ms = 0.0;
  int64_t ingest_bytes = 0;
};

std::string SetUpServe(uint64_t seed, int clients, ServeState* s,
                       RunResult* out) {
  s->flight_csv = FlightCsv(kServeRows, seed);
  s->ncvoter_csv = NcvoterCsv(kServeRows, seed);
  for (int k = 0; k < kWriteChain; ++k) {
    s->deltas.push_back(FlightCsv(kDeltaRows, seed,
                                  kServeRows + k * kDeltaRows, kServeRows));
  }
  s->server =
      std::make_unique<fastod::DiscoveryServer>(ServerOptions(clients));
  const fastod::Status started = s->server->Start();
  if (!started.ok()) return "server start: " + started.ToString();
  s->port = s->server->port();
  {
    PeakRss peak(/*trim_heap=*/true);
    const Clock::time_point start = Clock::now();
    const HttpResponse uploaded =
        UploadDataset(s->port, "flight", s->flight_csv);
    s->upload_ms = MsBetween(start, Clock::now());
    s->ingest_bytes = peak.PeakBytes() - peak.base_bytes();
    out->MemoryMethod(peak);
    if (uploaded.status != 201) {
      return "upload flight -> " + std::to_string(uploaded.status);
    }
  }
  for (const auto& [id, csv] : {std::make_pair("ncvoter", &s->ncvoter_csv),
                                std::make_pair("flight-w", &s->flight_csv)}) {
    const HttpResponse uploaded = UploadDataset(s->port, id, *csv);
    if (uploaded.status != 201) {
      return std::string("upload ") + id + " -> " +
             std::to_string(uploaded.status);
    }
  }

  // threads=1 references on a private store, independent of the server.
  fastod::DatasetStore local;
  for (const auto& [name, csv] : {std::make_pair("flight", &s->flight_csv),
                                  std::make_pair("ncvoter", &s->ncvoter_csv)}) {
    auto dataset = local.PutCsvString(name, *csv);
    if (!dataset.ok()) return dataset.status().ToString();
    for (const char* algorithm : {"fastod", "tane"}) {
      const std::string error =
          Reference(algorithm, *dataset,
                    &s->read_refs[std::string(algorithm) + "/" + name]);
      if (!error.empty()) return error;
    }
  }
  fastod::CsvOptions rows_only;
  rows_only.has_header = false;
  auto chain = local.PutCsvString("w", s->flight_csv);
  for (int k = 0; k < kWriteChain && chain.ok(); ++k) {
    chain = local.AppendCsvString("w", s->deltas[k], rows_only);
    if (!chain.ok()) break;
    s->write_refs.emplace_back();
    const std::string error =
        Reference("fastod", *chain, &s->write_refs.back());
    if (!error.empty()) return error;
  }
  if (!chain.ok()) return "write chain: " + chain.status().ToString();

  // The chain's first prior, through the server (this also warms it up).
  SessionOutcome first = RunSession(
      s->port, nullptr, -1, SessionRequest("fastod", "flight-w", 1, ""));
  if (!first.error.empty()) return "first prior: " + first.error;
  if (!(first.reported == s->read_refs["fastod/flight"])) {
    return "first prior " + first.reported.ToString() +
           " differs from the reference";
  }
  s->first_prior = std::move(first.result_body);
  s->first_prior_ods = first.reported;
  return "";
}

struct WriteChain {
  std::mutex mutex;
  int64_t writes = 0;     // guarded by mutex
  std::string prior;      // guarded by mutex
  Fingerprint prior_ods;  // guarded by mutex
};

/// Appends the chain's next delta to flight-w and runs an incremental
/// session on the prior version's report. A write that starts a new
/// chain (or follows a failed write) first deletes flight-w and uploads
/// it afresh.
std::string DoWrite(const ServeState& s, WriteChain* chain, Tracer* tracer,
                    int64_t op, WriteOutcome* out) {
  std::lock_guard<std::mutex> lock(chain->mutex);
  const int index = static_cast<int>(chain->writes % kWriteChain);
  if (index == 0 && chain->writes > 0) {
    Tracer::Scope span(tracer, "server.reupload", op);
    const HttpResponse deleted =
        Fetch(s.port, "DELETE", "/v1/datasets/flight-w");
    const HttpResponse uploaded =
        UploadDataset(s.port, "flight-w", s.flight_csv);
    if (deleted.status != 200 || uploaded.status != 201) {
      chain->writes += kWriteChain;
      return "re-upload of flight-w -> " + std::to_string(deleted.status) +
             "/" + std::to_string(uploaded.status);
    }
    chain->prior = s.first_prior;
    chain->prior_ods = s.first_prior_ods;
  }
  *out = RunWrite(s.port, tracer, op, "flight-w", s.deltas[index],
                  chain->prior, chain->prior_ods);
  std::string error = out->error;
  if (error.empty() && !(out->session.reported == s.write_refs[index])) {
    error = "incremental output " + out->session.reported.ToString() +
            " differs from threads=1 discovery on the grown relation " +
            s.write_refs[index].ToString();
  }
  if (error.empty()) {
    chain->prior = std::move(out->session.result_body);
    chain->prior_ods = out->session.reported;
    ++chain->writes;
  } else {
    chain->writes = (chain->writes / kWriteChain + 1) * kWriteChain;
  }
  out->session.result_body.clear();
  return error;
}

struct ServeSample {
  bool write = false;
  bool traced = false;
  double start_s = 0.0;  // loaded-phase seconds before it began
  double ms = 0.0;
  std::string error;
  SessionOutcome read;
  WriteOutcome written;
};

ServeSample Read(const ServeState& s, Tracer* tracer, int64_t op,
                 const ReadKind& kind) {
  ServeSample sample;
  {
    Tracer::Scope root(tracer, "op.read", op);
    sample.read =
        RunSession(s.port, tracer, op,
                   SessionRequest(kind.algorithm, kind.dataset, 1, ""));
  }
  sample.ms = sample.read.total_ms;
  sample.error = sample.read.error;
  const Fingerprint& expected =
      s.read_refs.at(std::string(kind.algorithm) + "/" + kind.dataset);
  if (sample.error.empty() && !(sample.read.reported == expected)) {
    sample.error = std::string(kind.algorithm) + " on " + kind.dataset +
                   " returned " + sample.read.reported.ToString() +
                   ", the threads=1 reference is " + expected.ToString();
  }
  sample.read.result_body.clear();
  return sample;
}

}  // namespace

void RunServeMix(const Args& args, RunResult* out) {
  const int clients = std::min(4, Nproc());
  Tracer tracer;
  ServeState state;
  std::vector<double> setup_s;
  std::vector<double> ingest_mb;
  const int setups = args.trace ? 1 : kServeSetups;
  for (int k = 0; k < setups; ++k) {
    const std::map<std::string, Fingerprint> previous = state.read_refs;
    state = ServeState();  // stops the previous set-up's server
    const Clock::time_point start = Clock::now();
    const std::string error = SetUpServe(args.seed, clients, &state, out);
    setup_s.push_back(MsBetween(start, Clock::now()) / 1000.0);
    if (!error.empty()) {
      out->Inconsistent("set-up: " + error);
      return;
    }
    if (k > 0 && previous != state.read_refs) {
      out->Inconsistent("set-ups disagree on the reference outputs");
    }
    ingest_mb.push_back(static_cast<double>(state.ingest_bytes) / kMiB);
  }

  PeakRss peak(/*trim_heap=*/false);
  std::vector<ServeSample> serial;
  WriteChain chain;
  chain.prior = state.first_prior;
  chain.prior_ods = state.first_prior_ods;
  std::atomic<int64_t> next_index{0};
  std::vector<std::vector<ServeSample>> per_client(clients);
  std::vector<size_t> slots(clients);
  for (int c = 0; c < clients; ++c) slots[c] = static_cast<size_t>(c);
  double loaded_s = 0.0;
  const double round_s = args.seconds / kRounds;
  for (int round = 0; round < kRounds; ++round) {
    // One client, one read at a time (serial_latency_p50_ms).
    const Clock::time_point serial_deadline = After(round_s * kSerialShare);
    do {
      const auto op = static_cast<int64_t>(serial.size());
      const bool traced = args.trace && op % 2 == 0;
      Tracer::SetThreadTracing(traced);
      ServeSample sample = Read(state, &tracer, op, kReads[op % kReadSlots]);
      Tracer::SetThreadTracing(false);
      sample.traced = traced;
      serial.push_back(std::move(sample));
    } while (Clock::now() < serial_deadline);

    // A closed loop of `clients` clients with no think time; every
    // kWriteEvery-th operation is a write.
    const double offset_s = loaded_s;
    const Clock::time_point loaded_start = Clock::now();
    const Clock::time_point loaded_deadline =
        After(round_s * (1.0 - kSerialShare));
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        size_t& slot = slots[c];
        while (Clock::now() < loaded_deadline) {
          const int64_t index = next_index.fetch_add(1);
          const int64_t op = kLoadedOpBase + index;
          const bool traced = args.trace && index % 2 == 0;
          const Clock::time_point start = Clock::now();
          Tracer::SetThreadTracing(traced);
          ServeSample sample;
          if (index % kWriteEvery == kWriteEvery - 1) {
            Tracer::Scope root(&tracer, "op.write", op);
            sample.write = true;
            sample.error =
                DoWrite(state, &chain, &tracer, op, &sample.written);
            sample.ms = MsBetween(start, Clock::now());
          } else {
            sample = Read(state, &tracer, op, kReads[slot++ % kReadSlots]);
          }
          Tracer::SetThreadTracing(false);
          sample.traced = traced;
          sample.start_s =
              offset_s + MsBetween(loaded_start, start) / 1000.0;
          per_client[c].push_back(std::move(sample));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    loaded_s += MsBetween(loaded_start, Clock::now()) / 1000.0;
  }
  const double peak_mb = static_cast<double>(peak.PeakBytes()) / kMiB;

  std::vector<ServeSample> loaded;
  for (std::vector<ServeSample>& samples : per_client) {
    for (ServeSample& sample : samples) loaded.push_back(std::move(sample));
  }
  for (const ServeSample& sample : serial) out->Count(sample.error);
  for (const ServeSample& sample : loaded) out->Count(sample.error);

  if (!args.trace) {
    std::vector<double> serial_ms;
    for (const ServeSample& sample : serial) serial_ms.push_back(sample.ms);
    std::vector<double> loaded_ms;
    std::vector<double> early_reads;
    std::vector<double> late_reads;
    std::vector<double> write_ms;
    for (const ServeSample& sample : loaded) {
      loaded_ms.push_back(sample.ms);
      if (sample.write) {
        write_ms.push_back(sample.ms);
      } else if (sample.start_s < loaded_s / 3) {
        early_reads.push_back(sample.ms);
      } else if (sample.start_s > 2 * loaded_s / 3) {
        late_reads.push_back(sample.ms);
      }
    }
    double tail_percentile = 0.0;
    const double tail = Tail(loaded_ms, &tail_percentile);
    const auto n = static_cast<int64_t>(loaded_ms.size());
    out->Metric("setup_s", Median(setup_s), "s", setups);
    out->Metric("latency_p50_ms", Median(loaded_ms), "ms", n);
    out->Metric("latency_tail_ms", tail, "ms", n);
    out->Metric("serial_latency_p50_ms", Median(serial_ms), "ms",
                static_cast<int64_t>(serial_ms.size()));
    out->Metric("throughput_ops_s", Ratio(static_cast<double>(n), loaded_s),
                "1/s", n);
    out->Metric("peak_rss_mb", peak_mb, "MB");
    out->Metric("ingest_peak_mb", Median(ingest_mb), "MB", setups);
    out->Metric("success_rate", out->SuccessRate(), "ratio",
                out->attempted());
    out->Note("latency_tail_percentile", tail_percentile);
    out->Note("setup_s_each", Join(setup_s));
    out->Note("clients", clients);
    out->Note("writes", static_cast<double>(write_ms.size()));
    out->Note("write_ms_each", Join(write_ms));
    // Appends must not make later reads steadily slower: the last third's
    // read median over the first third's.
    out->Note("late_over_early_read_p50",
              Ratio(Median(late_reads), Median(early_reads)));
    return;
  }

  std::vector<double> create_ms, first_od_ms, stream_ms, stream_bytes,
      result_ms, append_ms, incremental_ms, traced_ms, untraced_ms;
  for (const std::vector<ServeSample>* phase : {&serial, &loaded}) {
    for (const ServeSample& sample : *phase) {
      if (sample.write) {
        append_ms.push_back(sample.written.append_ms);
        incremental_ms.push_back(sample.written.session.total_ms);
        continue;
      }
      if (phase == &loaded) {
        (sample.traced ? traced_ms : untraced_ms).push_back(sample.ms);
      }
      if (!sample.traced) continue;
      create_ms.push_back(sample.read.create_ms);
      if (sample.read.first_od_ms >= 0) {
        first_od_ms.push_back(sample.read.first_od_ms);
      }
      stream_ms.push_back(sample.read.stream_ms);
      stream_bytes.push_back(static_cast<double>(sample.read.stream_bytes));
      result_ms.push_back(sample.read.result_ms);
    }
  }
  std::vector<OpProfile> profiles = ProfileOps(tracer.spans());
  out->Metric("trace.overhead_pct",
              100.0 * (Ratio(Median(traced_ms), Median(untraced_ms)) - 1.0),
              "%", static_cast<int64_t>(traced_ms.size()));
  out->Metric("trace.coverage_pct", MinCoveragePct(profiles, "op."), "%",
              static_cast<int64_t>(profiles.size()));
  out->Metric("server.upload_ms", state.upload_ms, "ms");
  out->Metric("server.create_ms", Median(create_ms), "ms",
              static_cast<int64_t>(create_ms.size()));
  out->Metric("server.first_od_ms", Median(first_od_ms), "ms",
              static_cast<int64_t>(first_od_ms.size()));
  out->Metric("server.stream_ms", Median(stream_ms), "ms",
              static_cast<int64_t>(stream_ms.size()));
  out->Metric("server.stream_bytes", Median(stream_bytes), "bytes",
              static_cast<int64_t>(stream_bytes.size()));
  out->Metric("server.result_ms", Median(result_ms), "ms",
              static_cast<int64_t>(result_ms.size()));
  out->Metric("server.append_ms", Median(append_ms), "ms",
              static_cast<int64_t>(append_ms.size()));
  out->Metric("incremental.session_ms", Median(incremental_ms), "ms",
              static_cast<int64_t>(incremental_ms.size()));

  // The engine, report, api, data and partition layers in process, on the
  // flight dataset the reads use.
  fastod::DatasetStore local;
  auto dataset = local.PutCsvString("flight", state.flight_csv);
  if (!dataset.ok()) {
    out->Inconsistent("replay load: " + dataset.status().ToString());
    return;
  }
  const Fingerprint& reference = state.read_refs["fastod/flight"];
  EngineCounters counters[2];
  size_t report_bytes = 0;
  Tracer::SetThreadTracing(true);
  for (int i = 0; i < 6; ++i) {
    const bool parallel = i % 2 == 1;
    const DiscoveryOutcome result = RunDiscovery(
        &tracer, parallel ? "replay.parallel" : "replay.serial",
        kProbeOp + i, &local, nullptr, *dataset, parallel ? Nproc() : 1);
    if (!result.error.empty() || !(result.fingerprint == reference)) {
      out->Inconsistent("replay discovery " + result.fingerprint.ToString() +
                        " " + result.error);
    }
    counters[parallel ? 1 : 0] = result.counters;
    report_bytes = result.report.size();
  }
  const LayerReplay replay = ReplayLayers(&tracer, state.flight_csv);
  Tracer::SetThreadTracing(false);
  profiles = ProfileOps(tracer.spans());
  out->Metric("api.bind_ms", MedianSelfMs(profiles, "", "api.bind"), "ms");
  out->Metric("report.render_ms",
              MedianSelfMs(profiles, "", "report.render"), "ms");
  out->Metric("report.bytes", static_cast<double>(report_bytes), "bytes");
  AddEngineMetrics(
      counters[0], counters[1],
      MedianSelfMs(profiles, "replay.serial", "fastod.execute"),
      MedianSelfMs(profiles, "replay.parallel", "fastod.execute"), out);
  AddReplayMetrics(replay, (*dataset)->ApproxBytes(), state.ingest_bytes,
                   out);
  WriteTrace(tracer, args);
}

}  // namespace perfbench
