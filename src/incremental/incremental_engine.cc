#include "incremental/incremental_engine.h"

#include <limits>
#include <utility>

#include "common/json.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "report/report.h"

namespace fastod {

namespace {

Result<AttributeSet> ParseContext(const JsonValue& od,
                                  const Schema& schema) {
  const JsonValue* context = od.Find("context");
  if (context == nullptr || !context->is_array()) {
    return Status::InvalidArgument(
        "prior OD " + od.Dump() + " lacks a \"context\" array");
  }
  AttributeSet set;
  for (const JsonValue& name : context->array_items()) {
    if (!name.is_string()) {
      return Status::InvalidArgument(
          "prior OD context entries must be attribute names, got " +
          name.Dump());
    }
    Result<int> index = schema.IndexOf(name.string_value());
    if (!index.ok()) return index.status();
    set = set.With(*index);
  }
  return set;
}

Result<int> ParseAttr(const JsonValue& od, const char* key,
                      const Schema& schema) {
  const JsonValue* name = od.Find(key);
  if (name == nullptr || !name->is_string()) {
    return Status::InvalidArgument("prior OD " + od.Dump() +
                                   " lacks a \"" + key + "\" name");
  }
  return schema.IndexOf(name->string_value());
}

}  // namespace

Result<PriorOds> ParsePriorReport(const std::string& json,
                                  const Schema& schema) {
  Result<JsonValue> parsed = ParseJson(json);
  if (!parsed.ok()) {
    return Status::InvalidArgument("malformed prior report: " +
                                   parsed.status().message());
  }
  if (!parsed->is_object()) {
    return Status::InvalidArgument("prior report must be a JSON object");
  }
  // A partial prior would pass its missing ODs off as absent, and the
  // incremental result built on it would be silently incomplete.
  if (const JsonValue* stats = parsed->Find("stats"); stats != nullptr) {
    for (const char* flag : {"timed_out", "cancelled"}) {
      const JsonValue* value = stats->Find(flag);
      if (value != nullptr && value->is_bool() && value->bool_value()) {
        return Status::InvalidArgument(
            std::string("prior report is partial (stats.") + flag +
            " is true); rerun the prior discovery to completion");
      }
    }
  }
  const JsonValue* bidi = parsed->Find("bidirectional_ods");
  if (bidi != nullptr && bidi->is_array() && !bidi->array_items().empty()) {
    return Status::InvalidArgument(
        "incremental re-validation covers constancy and compatibility ODs "
        "only; the prior report contains bidirectional ODs");
  }
  const JsonValue* constancy = parsed->Find("constancy_ods");
  const JsonValue* compatibility = parsed->Find("compatibility_ods");
  if (constancy == nullptr && compatibility == nullptr) {
    return Status::InvalidArgument(
        "prior report has neither \"constancy_ods\" nor "
        "\"compatibility_ods\"; pass a fastod-shaped result report");
  }
  PriorOds prior;
  if (constancy != nullptr) {
    if (!constancy->is_array()) {
      return Status::InvalidArgument("\"constancy_ods\" must be an array");
    }
    for (const JsonValue& od : constancy->array_items()) {
      Result<AttributeSet> context = ParseContext(od, schema);
      if (!context.ok()) return context.status();
      Result<int> attribute = ParseAttr(od, "attribute", schema);
      if (!attribute.ok()) return attribute.status();
      prior.constancy.push_back(ConstancyOd{*context, *attribute});
    }
  }
  if (compatibility != nullptr) {
    if (!compatibility->is_array()) {
      return Status::InvalidArgument(
          "\"compatibility_ods\" must be an array");
    }
    for (const JsonValue& od : compatibility->array_items()) {
      Result<AttributeSet> context = ParseContext(od, schema);
      if (!context.ok()) return context.status();
      Result<int> a = ParseAttr(od, "a", schema);
      if (!a.ok()) return a.status();
      Result<int> b = ParseAttr(od, "b", schema);
      if (!b.ok()) return b.status();
      prior.compatibility.push_back(CompatibilityOd(*context, *a, *b));
    }
  }
  return prior;
}

IncrementalAlgorithm::IncrementalAlgorithm()
    : Algorithm("incremental",
                "re-validates a prior OD set against appended rows and "
                "re-searches the lattice only above broken nodes") {
  options().AddString("prior", &prior_json_,
                      "the prior version's result report JSON (required)");
  options().AddInt64("base-rows", &base_rows_option_,
                     "rows the prior was discovered on (-1 = from the "
                     "bound dataset version)",
                     -1, std::numeric_limits<int64_t>::max());
}

Status IncrementalAlgorithm::ExecuteInternal() {
  if (prior_json_.empty()) {
    return Status::InvalidArgument(
        "the incremental algorithm requires --prior=<result report JSON> "
        "from the previous discovery run");
  }
  Result<PriorOds> prior = ParsePriorReport(prior_json_, relation().schema());
  if (!prior.ok()) return prior.status();

  int64_t base_rows = base_rows_option_;
  if (base_rows < 0) {
    // Version 1 has no append block: its base_rows() is every row, which
    // would re-validate nothing against an empty delta.
    if (dataset().version() == 1) {
      return Status::InvalidArgument(
          "--base-rows is required unless the session binds an appended "
          "dataset version (its base_rows supplies the delta boundary)");
    }
    base_rows = dataset().base_rows();
  }
  if (base_rows > relation().NumRows()) {
    return Status::InvalidArgument(
        "--base-rows=" + std::to_string(base_rows) + " exceeds the " +
        std::to_string(relation().NumRows()) + " loaded rows");
  }
  resolved_base_rows_ = base_rows;

  WallTimer timer;
  IncrementalOptions run;
  run.base_rows = base_rows;
  run.singletons = prebuilt_singletons();
  run.sink = sink();
  run.control = control();
  result_ = IncrementalDiscovery(&relation(), run).Run(*prior);
  seconds_ = timer.ElapsedSeconds();

  if (obs::Enabled()) {
    obs::Registry::Global()
        .GetCounter("fastod_incremental_revalidated_total",
                    "Prior ODs re-validated against dataset deltas")
        ->Inc(result_.revalidated);
    obs::Registry::Global()
        .GetCounter("fastod_incremental_escalations_total",
                    "Broken ODs that seeded a targeted lattice re-search")
        ->Inc(result_.escalations);
  }

  obs::EngineStats& stats = mutable_stats();
  stats.nodes_visited = result_.nodes_searched;
  stats.candidates_checked = result_.revalidated;
  stats.ods_emitted = result_.new_constancy + result_.new_compatibility +
                      static_cast<int64_t>(result_.revoked_constancy.size() +
                                           result_.revoked_compatibility
                                               .size());
  return Status::Ok();
}

std::string IncrementalAlgorithm::ResultText() const {
  RelationInfo info{relation().NumRows(), &relation().schema()};
  return IncrementalResultToText(result_, info, seconds_);
}

std::string IncrementalAlgorithm::ResultJson() const {
  RelationInfo info{relation().NumRows(), &relation().schema()};
  return IncrementalResultToJson(result_, info, seconds_,
                                 resolved_base_rows_);
}

}  // namespace fastod
