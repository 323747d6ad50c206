#include "obs/trace.h"

#include "common/json.h"

namespace fastod {
namespace obs {

void TraceRecorder::Span::End() {
  if (recorder_ == nullptr) return;
  recorder_->RecordSpan(name_, start_, recorder_->Now() - start_);
  recorder_ = nullptr;
}

void TraceRecorder::RecordSpan(const std::string& name, double start_seconds,
                               double duration_seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(TraceSpan{name, start_seconds, duration_seconds});
}

void TraceRecorder::SetEngineStats(const EngineStats& stats) {
  std::lock_guard<std::mutex> lock(mutex_);
  engine_stats_ = stats;
  has_engine_stats_ = true;
}

bool TraceRecorder::has_engine_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return has_engine_stats_;
}

std::string TraceRecorder::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  JsonWriter w;
  w.BeginObject();
  w.Key("spans").BeginArray();
  for (const TraceSpan& span : spans_) {
    w.BeginObject()
        .Key("name").String(span.name)
        .Key("start_ms").Double(span.start_seconds * 1e3)
        .Key("duration_ms").Double(span.duration_seconds * 1e3)
        .EndObject();
  }
  w.EndArray();
  w.Key("engine");
  if (!has_engine_stats_) {
    w.Null();
  } else {
    const EngineStats& s = engine_stats_;
    w.BeginObject()
        .Key("levels_processed").Int(s.levels_processed)
        .Key("nodes_visited").Int(s.nodes_visited)
        .Key("nodes_pruned").Int(s.nodes_pruned)
        .Key("constancy_checks").Int(s.constancy_checks)
        .Key("swap_checks").Int(s.swap_checks)
        .Key("swap_sample_refutes").Int(s.swap_sample_refutes)
        .Key("key_prune_hits").Int(s.key_prune_hits)
        .Key("candidates_checked").Int(s.candidates_checked)
        .Key("candidates_pruned").Int(s.candidates_pruned)
        .Key("ods_emitted").Int(s.ods_emitted)
        .Key("partition_cache_gets").Int(s.partition_cache_gets)
        .Key("partition_cache_puts").Int(s.partition_cache_puts)
        .Key("partitions_reused").Int(s.partitions_reused)
        .Key("tasks_spawned").Int(s.tasks_spawned)
        .Key("tasks_stolen").Int(s.tasks_stolen);
    w.Key("levels").BeginArray();
    for (const LevelStats& level : s.levels) {
      w.BeginObject()
          .Key("level").Int(level.level)
          .Key("nodes").Int(level.nodes)
          .Key("nodes_pruned").Int(level.nodes_pruned)
          .Key("constancy_checks").Int(level.constancy_checks)
          .Key("swap_checks").Int(level.swap_checks)
          .Key("swap_sample_refutes").Int(level.swap_sample_refutes)
          .Key("key_prune_hits").Int(level.key_prune_hits)
          .Key("partitions_reused").Int(level.partitions_reused)
          .Key("ods_found").Int(level.ods_found)
          .Key("seconds").Double(level.seconds)
          .Key("occupancy").Double(level.occupancy)
          .EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();
  return w.str();
}

}  // namespace obs
}  // namespace fastod
