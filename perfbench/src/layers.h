// Calls into the library's layers from outside: one in-process discovery
// operation with a span around each layer call, reference outputs, and
// replays that time the data and partition layers on their own.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace fastod {
class DatasetStore;
class LoadedDataset;
}  // namespace fastod

namespace perfbench {

/// Search counters of one fastod run, copied out of its FastodResult.
struct EngineCounters {
  int64_t nodes = 0;
  int64_t constancy_checks = 0;
  int64_t swap_checks = 0;
  int64_t key_prune_hits = 0;
  int64_t ods = 0;
  int64_t cache_gets = 0;
  int64_t cache_puts = 0;
  int64_t tasks_spawned = 0;
  int64_t tasks_stolen = 0;
  std::vector<std::pair<int, double>> level_ms;  // (lattice level, ms)
};

struct DiscoveryOutcome {
  std::string error;  // empty = ok
  double wall_ms = 0.0;
  std::string report;       // ResultJson()
  Fingerprint fingerprint;  // from the result vectors, not the report
  EngineCounters counters;
};

/// One discovery operation, timed from its first call to the rendered
/// report. With `csv` set it starts from CSV text:
/// DatasetStore::PutCsvString (span data.put_csv); otherwise it uses
/// `dataset`. Then registry Create + SetOption("threads") + BindDataset
/// (api.bind), Execute (fastod.execute) and ResultJson (report.render),
/// all under a root span named `root`.
DiscoveryOutcome RunDiscovery(
    Tracer* tracer, const char* root, int64_t op, fastod::DatasetStore* store,
    const std::string* csv,
    std::shared_ptr<const fastod::LoadedDataset> dataset, int threads);

/// `algorithm` ("fastod" or "tane") at threads=1 on `dataset`,
/// fingerprinted from its result vectors. Returns "" on success.
std::string Reference(const std::string& algorithm,
                      std::shared_ptr<const fastod::LoadedDataset> dataset,
                      Fingerprint* out);

/// The data and partition layers timed on their own, from the CSV text
/// the workload loads. Product and FillClassIndex are replayed over
/// every level-2 attribute pair.
struct LayerReplay {
  std::string error;
  double csv_read_ms = 0.0;           // ReadCsvString
  double csv_tokenize_ms = 0.0;       // ReadCsvString, infer_types=false
  double encode_ms = 0.0;             // EncodedRelation::FromTable
  double load_ms = 0.0;               // DatasetStore::PutCsvString
  double level1_ms = 0.0;             // ForAttribute over every column
  double product_ms = 0.0;            // Product over every pair
  double product_elems_per_us = 0.0;  // input elements per microsecond
  double class_index_ms = 0.0;        // FillClassIndex of every product
};
LayerReplay ReplayLayers(Tracer* tracer, const std::string& csv);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
