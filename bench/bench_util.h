// Shared helpers for the figure-reproduction benchmark harness.
//
// Every bench binary prints the rows of one paper figure at a reduced
// default scale (absolute numbers are not comparable to the paper's Java/
// Xeon setup; the *shapes* are the reproduction target — see
// EXPERIMENTS.md). Pass --scale=N to multiply the workload sizes.
//
// Every bench also accepts --json <path> (or --json=<path>): each
// measured cell is then additionally recorded as a machine-readable
// {"bench": ..., "params": ..., "seconds": ...} object, and the file is
// written as one JSON array when the bench exits — the format the
// BENCH_*.json perf-trajectory files are built from.
#ifndef FASTOD_BENCH_BENCH_UTIL_H_
#define FASTOD_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algo/fastod.h"
#include "algo/order.h"
#include "algo/tane.h"
#include "common/cancellation.h"
#include "common/json.h"
#include "common/timer.h"
#include "data/dataset_store.h"
#include "data/encode.h"
#include "data/table.h"
#include "report/report.h"

namespace fastod::bench {

/// `table` encoded with FromTable and built into a dataset: the one way
/// a bench turns a generated Table into data an engine binds. Aborts on a
/// table the encoder refuses (more than 64 attributes).
inline std::shared_ptr<const LoadedDataset> DatasetOf(
    const Table& table, std::string id = "table") {
  return LoadedDataset::Build(
      std::move(id), EncodedRelation::FromTable(table).value(), "table");
}

inline int ParseScale(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      int s = std::atoi(argv[i] + 8);
      if (s >= 1) return s;
    }
  }
  return 1;
}

/// Scoped --json recorder: construct one in main, call RecordJson(params,
/// seconds) at every measurement, and the destructor writes the array.
/// With no --json flag every call is a no-op.
class BenchJson {
 public:
  BenchJson(const char* bench_name, int argc, char** argv)
      : bench_(bench_name) {
    for (int i = 1; i < argc; ++i) {
      if (std::strncmp(argv[i], "--json=", 7) == 0) {
        path_ = argv[i] + 7;
      } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
        path_ = argv[i + 1];
      }
    }
    Active() = this;
  }

  ~BenchJson() {
    if (Active() == this) Active() = nullptr;
    if (path_.empty()) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return;
    }
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < records_.size(); ++i) {
      std::fprintf(f, "%s%s\n", records_[i].c_str(),
                   i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("wrote %zu records to %s\n", records_.size(),
                path_.c_str());
  }

  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;

  /// `extra_fields`, when non-empty, is spliced verbatim into the record
  /// object after "seconds" — pre-rendered `"key": value` pairs for
  /// measurements beyond wall clock (bytes/row, rows/sec, ...).
  void Record(const std::string& params, double seconds,
              const std::string& extra_fields = "") {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f", seconds);
    std::string record = "  {\"bench\": \"" + JsonEscape(bench_) +
                         "\", \"params\": \"" + JsonEscape(params) +
                         "\", \"seconds\": " + buf;
    if (!extra_fields.empty()) record += ", " + extra_fields;
    records_.push_back(record + "}");
  }

  /// The instance the free RecordJson() helper reports to (one per bench
  /// process; benches are single-threaded drivers).
  static BenchJson*& Active() {
    static BenchJson* active = nullptr;
    return active;
  }

 private:
  std::string bench_;
  std::string path_;
  std::vector<std::string> records_;
};

/// Records into the active BenchJson, if any — lets deeply nested bench
/// helpers report without threading the recorder through.
inline void RecordJson(const std::string& params, double seconds,
                       const std::string& extra_fields = "") {
  if (BenchJson::Active() != nullptr) {
    BenchJson::Active()->Record(params, seconds, extra_fields);
  }
}

struct AlgoCell {
  double seconds = 0.0;
  bool timed_out = false;
  std::string counts;  // "total (fd + ocd)" or "-"

  std::string TimeString() const {
    char buf[48];
    if (timed_out) {
      std::snprintf(buf, sizeof(buf), "* %.2fs", seconds);
    } else {
      std::snprintf(buf, sizeof(buf), "%.3fs", seconds);
    }
    return buf;
  }
};

/// Arms `control` with the paper's wall-clock cutoff, `seconds` from now
/// (0 = none): a run past it returns its partial result flagged
/// timed_out, which prints as a "*" cell.
inline void ArmCutoff(ExecutionControl* control, double seconds) {
  control->SetDeadlineAfterMillis(static_cast<int64_t>(seconds * 1000.0));
}

inline AlgoCell RunFastod(const EncodedRelation& rel,
                          FastodOptions options = FastodOptions(),
                          double cutoff_seconds = 0.0) {
  ExecutionControl control;
  ArmCutoff(&control, cutoff_seconds);
  options.control = &control;
  options.collect_level_stats = false;
  options.emit_ods = false;
  Fastod algo(options);
  WallTimer timer;
  FastodResult result = algo.Discover(rel);
  AlgoCell cell;
  cell.seconds = timer.ElapsedSeconds();
  cell.timed_out = result.timed_out;
  cell.counts = result.CountsToString();
  return cell;
}

inline AlgoCell RunTane(const EncodedRelation& rel, double cutoff_seconds) {
  ExecutionControl control;
  ArmCutoff(&control, cutoff_seconds);
  TaneOptions options;
  options.control = &control;
  Tane algo(options);
  WallTimer timer;
  TaneResult result = algo.Discover(rel);
  AlgoCell cell;
  cell.seconds = timer.ElapsedSeconds();
  cell.timed_out = result.timed_out;
  cell.counts = std::to_string(result.num_fds) + " FDs";
  return cell;
}

inline AlgoCell RunOrder(const EncodedRelation& rel, double cutoff_seconds) {
  ExecutionControl control;
  ArmCutoff(&control, cutoff_seconds);
  OrderOptions options;
  options.control = &control;
  OrderBaseline algo(options);
  WallTimer timer;
  OrderResult result = algo.Discover(rel);
  AlgoCell cell;
  cell.seconds = timer.ElapsedSeconds();
  cell.timed_out = result.timed_out;
  MappedCounts mapped = MapToCanonicalCounts(result.ods);
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%lld list -> %lld (%lld + %lld)",
                static_cast<long long>(result.ods.size()),
                static_cast<long long>(mapped.Total()),
                static_cast<long long>(mapped.num_constancy),
                static_cast<long long>(mapped.num_compatibility));
  cell.counts = buf;
  return cell;
}

inline void PrintHeader(const char* title, const char* paper_reference) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("paper reference: %s\n", paper_reference);
  std::printf("(reduced scale; pass --scale=N to grow; '*' = timeout hit)\n");
  std::printf("==============================================================\n");
}

}  // namespace fastod::bench

#endif  // FASTOD_BENCH_BENCH_UTIL_H_
