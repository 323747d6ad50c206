#include "api/engines.h"

#include <cstdio>
#include <limits>
#include <utility>

#include "api/od_sink.h"
#include "api/registry.h"
#include "common/json.h"
#include "incremental/incremental_engine.h"
#include "common/timer.h"
#include "report/report.h"

namespace fastod {

namespace {

RelationInfo Info(const EncodedRelation& relation) {
  return RelationInfo{relation.NumRows(), &relation.schema()};
}

FastodOptions ApproximateDefaults() {
  FastodOptions defaults;
  defaults.max_error = 0.01;
  return defaults;
}

// Copies the counters a finished FASTOD-family run accumulated into the
// generic telemetry shape (fastod and approximate share FastodResult).
obs::EngineStats StatsOf(const FastodResult& result) {
  obs::EngineStats stats;
  stats.levels_processed = result.levels_processed;
  stats.nodes_visited = result.total_nodes;
  stats.ods_emitted = result.NumOds();
  stats.partition_cache_gets = result.partition_cache_gets;
  stats.partition_cache_puts = result.partition_cache_puts;
  stats.partitions_reused = result.partitions_reused;
  stats.tasks_spawned = result.tasks_spawned;
  stats.tasks_stolen = result.tasks_stolen;
  stats.levels.reserve(result.level_stats.size());
  for (const FastodLevelStats& level : result.level_stats) {
    obs::LevelStats l;
    l.level = level.level;
    l.nodes = level.nodes;
    l.nodes_pruned = level.nodes_pruned;
    l.constancy_checks = level.constancy_checks;
    l.swap_checks = level.swap_checks;
    l.swap_sample_refutes = level.swap_sample_refutes;
    l.key_prune_hits = level.key_prune_hits;
    l.partitions_reused = level.partitions_reused;
    l.ods_found = level.constancy_found + level.compatibility_found +
                  level.bidirectional_found;
    l.seconds = level.seconds;
    l.occupancy = level.occupancy;
    stats.nodes_pruned += level.nodes_pruned;
    stats.constancy_checks += level.constancy_checks;
    stats.swap_checks += level.swap_checks;
    stats.swap_sample_refutes += level.swap_sample_refutes;
    stats.key_prune_hits += level.key_prune_hits;
    stats.levels.push_back(l);
  }
  return stats;
}

}  // namespace

// ------------------------------------------------------------- fastod

FastodAlgorithm::FastodAlgorithm()
    : FastodAlgorithm("fastod",
                      "complete, minimal set-based canonical OD discovery "
                      "(Section 4 of the paper)",
                      FastodOptions()) {}

FastodAlgorithm::FastodAlgorithm(std::string name, std::string description,
                                 FastodOptions defaults)
    : Algorithm(std::move(name), std::move(description)),
      opts_(defaults),
      swap_method_choice_(static_cast<int>(defaults.swap_method)) {
  options().AddInt("threads", &opts_.num_threads,
                   "worker threads for intra-level parallelism", 1, 1024);
  options().AddInt("max-level", &opts_.max_level,
                   "stop after lattice level L (0 = none)", 0, 64);
  options().AddDouble("max-error", &opts_.max_error,
                      "approximate g3 threshold (0 = exact)", 0.0, 1.0);
  options().AddBool("bidirectional", &opts_.discover_bidirectional,
                    "also discover opposite-polarity compatibilities");
  options().AddBool("emit-ods", &opts_.emit_ods,
                    "materialize ODs (false = count only)");
  options().AddBool("minimality-pruning", &opts_.minimality_pruning,
                    "candidate-set pruning; false = no-pruning ablation");
  options().AddBool("level-pruning", &opts_.level_pruning,
                    "delete nodes with empty candidate sets (Lemma 11)");
  options().AddBool("key-pruning", &opts_.key_pruning,
                    "skip validations under superkey contexts (Lemmas "
                    "12-13)");
  options().AddBool("level-stats", &opts_.collect_level_stats,
                    "record per-level statistics (Exp-7)");
  options().AddEnum("swap-method", &swap_method_choice_,
                    "swap-check strategy (Section 4.6)",
                    {{"auto", static_cast<int>(SwapCheckMethod::kAuto)},
                     {"sort", static_cast<int>(SwapCheckMethod::kSortBased)},
                     {"tau", static_cast<int>(SwapCheckMethod::kTauBased)}},
                    "auto");
}

Status FastodAlgorithm::ExecuteInternal() {
  FastodOptions run = opts_;
  run.swap_method = static_cast<SwapCheckMethod>(swap_method_choice_);
  run.sink = sink();
  run.control = control();
  result_ = Fastod(run).Discover(relation(), prebuilt_singletons());
  mutable_stats() = StatsOf(result_);
  return Status::Ok();
}

std::string FastodAlgorithm::ResultText() const {
  return FastodResultToText(result_, Info(relation()));
}

std::string FastodAlgorithm::ResultJson() const {
  return FastodResultToJson(result_, Info(relation()));
}

// -------------------------------------------------------- approximate

ApproximateAlgorithm::ApproximateAlgorithm()
    : FastodAlgorithm("approximate",
                      "FASTOD under g3 threshold validity: accept ODs whose "
                      "removal error is at most --max-error",
                      ApproximateDefaults()) {}

std::string ApproximateAlgorithm::ResultText() const {
  return FastodResultToText(result_, Info(relation()), "APPROXIMATE");
}

std::string ApproximateAlgorithm::ResultJson() const {
  return FastodResultToJson(result_, Info(relation()), "approximate");
}

// --------------------------------------------------------------- tane

TaneAlgorithm::TaneAlgorithm()
    : Algorithm("tane",
                "TANE: minimal functional dependencies only (the Exp-4 "
                "comparator)") {
  options().AddInt("threads", &opts_.num_threads,
                   "worker threads for intra-level parallelism", 1, 1024);
  options().AddInt("max-level", &opts_.max_level,
                   "stop after lattice level L (0 = none)", 0, 64);
  // Named like fastod's "emit-ods".
  options().AddBool("emit-ods", &opts_.emit_fds,
                    "materialize FDs (false = count only)");
}

Status TaneAlgorithm::ExecuteInternal() {
  TaneOptions run = opts_;
  run.sink = sink();
  run.control = control();
  result_ = Tane(run).Discover(relation(), prebuilt_singletons());
  obs::EngineStats& stats = mutable_stats();
  stats.levels_processed = result_.levels_processed;
  stats.nodes_visited = result_.total_nodes;
  stats.ods_emitted = result_.num_fds;
  stats.partition_cache_gets = result_.partition_cache_gets;
  stats.partition_cache_puts = result_.partition_cache_puts;
  stats.partitions_reused = result_.partitions_reused;
  stats.tasks_spawned = result_.tasks_spawned;
  stats.tasks_stolen = result_.tasks_stolen;
  return Status::Ok();
}

std::string TaneAlgorithm::ResultText() const {
  return TaneResultToText(result_, Info(relation()));
}

std::string TaneAlgorithm::ResultJson() const {
  return TaneResultToJson(result_, Info(relation()));
}

// -------------------------------------------------------------- order

OrderAlgorithm::OrderAlgorithm()
    : Algorithm("order",
                "ORDER (Langer & Naumann): list-based baseline, incomplete "
                "by Section 4.5 (the Exp-3 comparator)") {
  options().AddInt("max-level", &opts_.max_level,
                   "stop after list length L (0 = none)", 0, 64);
  options().AddBool("pruning", &opts_.enable_pruning,
                    "swap/split/subtree pruning (false = exhaustive)");
}

Status OrderAlgorithm::ExecuteInternal() {
  OrderOptions run = opts_;
  run.sink = sink();
  run.control = control();
  result_ = OrderBaseline(run).Discover(relation(), prebuilt_singletons());
  obs::EngineStats& stats = mutable_stats();
  stats.levels_processed = result_.levels_processed;
  stats.nodes_visited = result_.total_nodes;
  stats.candidates_checked = result_.candidates_checked;
  stats.candidates_pruned = result_.candidates_pruned;
  stats.ods_emitted = static_cast<int64_t>(result_.ods.size());
  return Status::Ok();
}

std::string OrderAlgorithm::ResultText() const {
  return OrderResultToText(result_, Info(relation()));
}

std::string OrderAlgorithm::ResultJson() const {
  return OrderResultToJson(result_, Info(relation()));
}

// -------------------------------------------------------- brute-force

BruteForceAlgorithm::BruteForceAlgorithm()
    : Algorithm("brute-force",
                "exhaustive canonical-OD oracle via the definitional "
                "checks; tiny relations only (<= 16 attributes)") {
  options().AddDouble("max-error", &max_error_,
                      "approximate g3 threshold (0 = exact)", 0.0, 1.0);
  options().AddBool("bidirectional", &bidirectional_,
                    "also discover opposite-polarity compatibilities");
}

Status BruteForceAlgorithm::ExecuteInternal() {
  if (relation().NumAttributes() > 16) {
    return Status::InvalidArgument(
        "brute-force oracle supports at most 16 attributes, got " +
        std::to_string(relation().NumAttributes()));
  }
  WallTimer timer;
  result_ = BruteForceDiscoverOds(relation(), max_error_, bidirectional_,
                                  prebuilt_singletons(), control());
  seconds_ = timer.ElapsedSeconds();
  mutable_stats().ods_emitted =
      static_cast<int64_t>(result_.constancy_ods.size() +
                           result_.compatibility_ods.size() +
                           result_.bidirectional_ods.size());
  if (sink() != nullptr) {
    // The oracle materializes regardless, so streaming tees.
    for (const ConstancyOd& od : result_.constancy_ods) {
      sink()->OnConstancy(od);
    }
    for (const CompatibilityOd& od : result_.compatibility_ods) {
      sink()->OnCompatibility(od);
    }
    for (const BidiCompatibilityOd& od : result_.bidirectional_ods) {
      sink()->OnBidirectional(od);
    }
  }
  return Status::Ok();
}

FastodResult BruteForceAlgorithm::AsFastodResult() const {
  FastodResult shaped;
  shaped.constancy_ods = result_.constancy_ods;
  shaped.compatibility_ods = result_.compatibility_ods;
  shaped.bidirectional_ods = result_.bidirectional_ods;
  shaped.num_constancy = static_cast<int64_t>(result_.constancy_ods.size());
  shaped.num_compatibility =
      static_cast<int64_t>(result_.compatibility_ods.size());
  shaped.num_bidirectional =
      static_cast<int64_t>(result_.bidirectional_ods.size());
  shaped.seconds = seconds_;
  shaped.cancelled = result_.cancelled;
  return shaped;
}

std::string BruteForceAlgorithm::ResultText() const {
  return FastodResultToText(AsFastodResult(), Info(relation()),
                            "BRUTE-FORCE");
}

std::string BruteForceAlgorithm::ResultJson() const {
  return FastodResultToJson(AsFastodResult(), Info(relation()),
                            "brute-force");
}

// -------------------------------------------------------- conditional

ConditionalAlgorithm::ConditionalAlgorithm()
    : Algorithm("conditional",
                "conditional ODs over attribute bindings (the Section 7 "
                "future-work extension)"),
      max_condition_cardinality_(opts_.max_condition_cardinality) {
  options().AddDouble("min-support", &opts_.min_support,
                      "minimum covered-tuple fraction", 0.0, 1.0);
  options().AddInt64("limit", &opts_.max_results,
                     "maximum conditional ODs to report", 1,
                     std::numeric_limits<int64_t>::max());
  // max_condition_cardinality is int32_t; stage through a plain int.
  options().AddInt64("max-condition-cardinality",
                     &max_condition_cardinality_,
                     "skip condition attributes with more distinct values",
                     1, std::numeric_limits<int32_t>::max());
}

Status ConditionalAlgorithm::ExecuteInternal() {
  WallTimer timer;
  ConditionalOdOptions run = opts_;
  run.max_condition_cardinality =
      static_cast<int32_t>(max_condition_cardinality_);
  run.control = control();
  ConditionalOdFinder finder(&relation(), prebuilt_singletons());
  result_ = finder.DiscoverConditional(run);
  cancelled_ = finder.cancelled();
  seconds_ = timer.ElapsedSeconds();
  mutable_stats().ods_emitted = static_cast<int64_t>(result_.size());
  if (sink() != nullptr) {
    for (const ConditionalOd& od : result_) sink()->OnConditional(od);
  }
  return Status::Ok();
}

std::string ConditionalAlgorithm::ResultText() const {
  const Schema& schema = relation().schema();
  std::string out = std::to_string(result_.size()) +
                    " conditional OD(s) at support >= " +
                    std::to_string(opts_.min_support) +
                    (cancelled_ ? " [CANCELLED]" : "") + "\n";
  for (const ConditionalOd& c : result_) {
    std::string line = "  (";
    line += schema.name(c.condition_attribute);
    line += " in {";
    for (size_t i = 0; i < c.binding_ranks.size(); ++i) {
      if (i > 0) line += ",";
      line += BindingValue(relation(), c.condition_attribute,
                           c.binding_ranks[i]);
    }
    char support_buf[32];
    std::snprintf(support_buf, sizeof(support_buf), "%.0f%%",
                  c.support * 100.0);
    line += "}) => ";
    line += CanonicalOdToString(c.od, schema);
    line += "  [support ";
    line += support_buf;
    line += "]\n";
    out += line;
  }
  return out;
}

std::string ConditionalAlgorithm::ResultJson() const {
  JsonWriter w;
  w.BeginObject();
  WriteReportHeader(&w, "conditional", Info(relation()), seconds_,
                    /*timed_out=*/false, cancelled_);
  w.Key("conditional_ods").BeginArray();
  for (const ConditionalOd& c : result_) {
    w.BeginObject();
    WriteOdMembers(&w, c, relation());
    w.EndObject();
  }
  w.EndArray().EndObject();
  return w.str() + "\n";
}

// ----------------------------------------------------------- registry

void RegisterBuiltinAlgorithms(AlgorithmRegistry* registry) {
  registry->Register("fastod", [] {
    return std::unique_ptr<Algorithm>(new FastodAlgorithm());
  });
  registry->Register("tane", [] {
    return std::unique_ptr<Algorithm>(new TaneAlgorithm());
  });
  registry->Register("order", [] {
    return std::unique_ptr<Algorithm>(new OrderAlgorithm());
  });
  registry->Register("brute-force", [] {
    return std::unique_ptr<Algorithm>(new BruteForceAlgorithm());
  });
  registry->Register("approximate", [] {
    return std::unique_ptr<Algorithm>(new ApproximateAlgorithm());
  });
  registry->Register("conditional", [] {
    return std::unique_ptr<Algorithm>(new ConditionalAlgorithm());
  });
  registry->Register("incremental", [] {
    return std::unique_ptr<Algorithm>(new IncrementalAlgorithm());
  });
}

}  // namespace fastod
