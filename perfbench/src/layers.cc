#include "layers.h"

#include <functional>

#include "api/engines.h"
#include "api/registry.h"
#include "data/csv.h"
#include "data/dataset_store.h"
#include "data/encode.h"
#include "partition/stripped_partition.h"

namespace perfbench {

namespace {

EngineCounters CountersOf(const fastod::FastodResult& result) {
  EngineCounters c;
  c.nodes = result.total_nodes;
  for (const fastod::FastodLevelStats& level : result.level_stats) {
    c.constancy_checks += level.constancy_checks;
    c.swap_checks += level.swap_checks;
    c.key_prune_hits += level.key_prune_hits;
    c.level_ms.emplace_back(level.level, level.seconds * 1000.0);
  }
  c.ods = result.NumOds();
  c.cache_gets = result.partition_cache_gets;
  c.cache_puts = result.partition_cache_puts;
  c.tasks_spawned = result.tasks_spawned;
  c.tasks_stolen = result.tasks_stolen;
  return c;
}

/// Median milliseconds of `fn`: run at least once and until about 0.3 s
/// has passed (at most nine times), each run a span named `name`.
double TimeMedianMs(Tracer* tracer, const char* name,
                    const std::function<void()>& fn) {
  std::vector<double> runs;
  double total_ms = 0.0;
  while (runs.empty() || (total_ms < 300.0 && runs.size() < 9)) {
    const Clock::time_point start = Clock::now();
    {
      Tracer::Scope span(tracer, name, -1);
      fn();
    }
    runs.push_back(MsBetween(start, Clock::now()));
    total_ms += runs.back();
  }
  return Median(std::move(runs));
}


}  // namespace

DiscoveryOutcome RunDiscovery(
    Tracer* tracer, const char* root, int64_t op, fastod::DatasetStore* store,
    const std::string* csv,
    std::shared_ptr<const fastod::LoadedDataset> dataset, int threads) {
  DiscoveryOutcome out;
  const std::string id = "op-" + std::to_string(op);
  std::unique_ptr<fastod::Algorithm> algorithm;
  const Clock::time_point start = Clock::now();
  {
    Tracer::Scope op_span(tracer, root, op);
    if (csv != nullptr) {
      Tracer::Scope span(tracer, "data.put_csv", op);
      auto put = store->PutCsvString(id, *csv);
      if (!put.ok()) {
        out.error = "PutCsvString: " + put.status().ToString();
        return out;
      }
      dataset = *std::move(put);
    }
    {
      Tracer::Scope span(tracer, "api.bind", op);
      auto created = fastod::AlgorithmRegistry::Default().Create("fastod");
      fastod::Status status = created.status();
      if (status.ok()) {
        algorithm = std::move(*created);
        status = algorithm->SetOption("threads", std::to_string(threads));
      }
      if (status.ok()) status = algorithm->BindDataset(dataset);
      if (!status.ok()) {
        out.error = "bind: " + status.ToString();
        return out;
      }
    }
    {
      Tracer::Scope span(tracer, "fastod.execute", op);
      const fastod::Status status = algorithm->Execute();
      if (!status.ok()) {
        out.error = "Execute: " + status.ToString();
        return out;
      }
    }
    {
      Tracer::Scope span(tracer, "report.render", op);
      out.report = algorithm->ResultJson();
    }
  }
  out.wall_ms = MsBetween(start, Clock::now());
  const auto& engine =
      static_cast<const fastod::FastodAlgorithm&>(*algorithm);
  out.fingerprint = FingerprintOf(engine.result(), dataset->schema());
  out.counters = CountersOf(engine.result());
  if (csv != nullptr) (void)store->Erase(id);
  return out;
}

std::string Reference(const std::string& algorithm,
                      std::shared_ptr<const fastod::LoadedDataset> dataset,
                      Fingerprint* out) {
  auto created = fastod::AlgorithmRegistry::Default().Create(algorithm);
  if (!created.ok()) return created.status().ToString();
  std::unique_ptr<fastod::Algorithm> engine = std::move(*created);
  fastod::Status status = engine->SetOption("threads", "1");
  if (status.ok()) status = engine->BindDataset(dataset);
  if (status.ok()) status = engine->Execute();
  if (!status.ok()) return algorithm + " reference: " + status.ToString();
  if (const auto* fastod_engine =
          dynamic_cast<const fastod::FastodAlgorithm*>(engine.get())) {
    *out = FingerprintOf(fastod_engine->result(), dataset->schema());
  } else if (const auto* tane_engine =
                 dynamic_cast<const fastod::TaneAlgorithm*>(engine.get())) {
    *out = FingerprintOf(tane_engine->result(), dataset->schema());
  } else {
    return "no reference fingerprint for " + algorithm;
  }
  return "";
}

LayerReplay ReplayLayers(Tracer* tracer, const std::string& csv) {
  LayerReplay out;
  fastod::CsvOptions untyped;
  untyped.infer_types = false;
  out.csv_read_ms = TimeMedianMs(tracer, "replay.data.csv_read", [&] {
    (void)fastod::ReadCsvString(csv);
  });
  out.csv_tokenize_ms =
      TimeMedianMs(tracer, "replay.data.csv_tokenize",
                   [&] { (void)fastod::ReadCsvString(csv, untyped); });
  auto table = fastod::ReadCsvString(csv);
  if (!table.ok()) {
    out.error = "ReadCsvString: " + table.status().ToString();
    return out;
  }
  out.encode_ms = TimeMedianMs(tracer, "replay.data.encode", [&] {
    (void)fastod::EncodedRelation::FromTable(*table);
  });
  out.load_ms = TimeMedianMs(tracer, "replay.data.load", [&] {
    fastod::DatasetStore store;
    (void)store.PutCsvString("replay", csv);
  });
  auto relation = fastod::EncodedRelation::FromTable(*table);
  if (!relation.ok()) {
    out.error = "FromTable: " + relation.status().ToString();
    return out;
  }

  std::vector<fastod::StrippedPartition> level1;
  out.level1_ms = TimeMedianMs(tracer, "replay.partition.level1", [&] {
    level1.clear();
    for (int a = 0; a < relation->NumAttributes(); ++a) {
      level1.push_back(
          fastod::StrippedPartition::ForAttribute(relation->codes(a)));
    }
  });
  // Each sweep times Product and FillClassIndex per pair and sums them;
  // the median sweep is reported. One span per sweep: a span per call
  // would cost as much as the calls on a 155-row relation.
  std::vector<double> product_sweeps;
  std::vector<double> index_sweeps;
  int64_t elements = 0;
  std::vector<int32_t> class_of;
  double swept_ms = 0.0;
  while (product_sweeps.empty() ||
         (swept_ms < 300.0 && product_sweeps.size() < 9)) {
    Tracer::Scope span(tracer, "replay.partition.pairs", -1);
    double product_ms = 0.0;
    double index_ms = 0.0;
    elements = 0;
    for (size_t i = 0; i < level1.size(); ++i) {
      for (size_t j = i + 1; j < level1.size(); ++j) {
        const Clock::time_point t0 = Clock::now();
        const fastod::StrippedPartition product = level1[i].Product(level1[j]);
        const Clock::time_point t1 = Clock::now();
        product.FillClassIndex(&class_of);
        const Clock::time_point t2 = Clock::now();
        product_ms += MsBetween(t0, t1);
        index_ms += MsBetween(t1, t2);
        elements += level1[i].NumElements() + level1[j].NumElements();
      }
    }
    product_sweeps.push_back(product_ms);
    index_sweeps.push_back(index_ms);
    swept_ms += product_ms + index_ms;
  }
  out.product_ms = Median(product_sweeps);
  out.class_index_ms = Median(index_sweeps);
  out.product_elems_per_us =
      out.product_ms > 0.0
          ? static_cast<double>(elements) / (out.product_ms * 1000.0)
          : 0.0;
  return out;
}

}  // namespace perfbench
