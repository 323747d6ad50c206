#include "report/report.h"

#include <cstdio>
#include <type_traits>
#include <variant>

#include "common/json.h"
#include "common/macros.h"

namespace fastod {

namespace {

void WriteNames(JsonWriter* w, AttributeSet attrs, const Schema& schema) {
  w->BeginArray();
  for (int a = attrs.First(); a >= 0; a = attrs.Next(a)) {
    w->String(schema.name(a));
  }
  w->EndArray();
}

void WriteNames(JsonWriter* w, const OrderSpec& spec, const Schema& schema) {
  w->BeginArray();
  for (int a : spec) w->String(schema.name(a));
  w->EndArray();
}

const char* TypeName(const ConstancyOd&) { return "constancy"; }
const char* TypeName(const CompatibilityOd&) { return "compatibility"; }
const char* TypeName(const BidiCompatibilityOd&) { return "bidirectional"; }
const char* TypeName(const ListOd&) { return "list"; }
const char* TypeName(const ConditionalOd&) { return "conditional"; }

template <typename Od>
void WriteOdArray(JsonWriter* w, const char* key, const std::vector<Od>& ods,
                  const Schema& schema) {
  w->Key(key).BeginArray();
  for (const Od& od : ods) {
    w->BeginObject();
    WriteOdMembers(w, od, schema);
    w->EndObject();
  }
  w->EndArray();
}

/// Opens a report document and writes its header members.
JsonWriter BeginReport(const std::string& algorithm, const RelationInfo& info,
                       double seconds, bool timed_out, bool cancelled) {
  JsonWriter w;
  w.BeginObject();
  WriteReportHeader(&w, algorithm, info, seconds, timed_out, cancelled);
  return w;
}

/// Closes a report document: one compact line.
std::string EndReport(JsonWriter* w) {
  w->EndObject();
  return w->str() + "\n";
}

}  // namespace

void WriteReportHeader(JsonWriter* w, const std::string& algorithm,
                       const RelationInfo& info, double seconds,
                       bool timed_out, bool cancelled) {
  FASTOD_CHECK(info.schema != nullptr);
  w->Key("algorithm").String(algorithm);
  w->Key("relation").BeginObject().Key("rows").Int(info.rows);
  w->Key("attributes").BeginArray();
  for (int i = 0; i < info.schema->NumAttributes(); ++i) {
    w->String(info.schema->name(i));
  }
  w->EndArray().EndObject();
  w->Key("stats").BeginObject().Key("seconds").Double(seconds);
  w->Key("timed_out").Bool(timed_out).Key("cancelled").Bool(cancelled);
  w->EndObject();
}

void WriteOdMembers(JsonWriter* w, const ConstancyOd& od,
                    const Schema& schema) {
  w->Key("context");
  WriteNames(w, od.context, schema);
  w->Key("attribute").String(schema.name(od.attribute));
}

void WriteOdMembers(JsonWriter* w, const CompatibilityOd& od,
                    const Schema& schema) {
  w->Key("context");
  WriteNames(w, od.context, schema);
  w->Key("a").String(schema.name(od.a));
  w->Key("b").String(schema.name(od.b));
}

void WriteOdMembers(JsonWriter* w, const BidiCompatibilityOd& od,
                    const Schema& schema) {
  w->Key("context");
  WriteNames(w, od.context, schema);
  w->Key("a").String(schema.name(od.a));
  w->Key("b").String(schema.name(od.b));
  w->Key("polarity").String("opposite");
}

void WriteOdMembers(JsonWriter* w, const ListOd& od, const Schema& schema) {
  w->Key("lhs");
  WriteNames(w, od.lhs, schema);
  w->Key("rhs");
  WriteNames(w, od.rhs, schema);
}

void WriteOdMembers(JsonWriter* w, const ConditionalOd& od,
                    const EncodedRelation& relation) {
  const Schema& schema = relation.schema();
  w->Key("condition").String(schema.name(od.condition_attribute));
  w->Key("bindings").BeginArray();
  for (int32_t rank : od.binding_ranks) {
    w->String(BindingValue(relation, od.condition_attribute, rank));
  }
  w->EndArray();
  w->Key("od").String(CanonicalOdToString(od.od, schema));
  w->Key("support").Double(od.support);
}

std::string BindingValue(const EncodedRelation& relation, int attr,
                         int32_t rank) {
  const ValueDictionary& dict = relation.dictionary(attr);
  if (rank >= 0 && rank < dict.size()) return dict.ToString(rank);
  // Appended, not `"#" + std::to_string(rank)`: GCC 12 at -O3 flags that
  // spelling with a false -Wrestrict once it is inlined here.
  std::string unknown = "#";
  unknown += std::to_string(rank);
  return unknown;
}

std::string EventJsonLine(const OdEvent& event,
                          const EncodedRelation& relation) {
  const Schema& schema = relation.schema();
  JsonWriter w;
  w.BeginObject();
  std::visit(
      [&](const auto& od) {
        using Od = std::decay_t<decltype(od)>;
        if constexpr (std::is_same_v<Od, RevokedOd>) {
          // A retraction of a previously streamed/reported OD; od_type +
          // the shape's usual members identify which one.
          w.Key("type").String("revoked");
          std::visit(
              [&](const auto& revoked) {
                w.Key("od_type").String(TypeName(revoked));
                WriteOdMembers(&w, revoked, schema);
              },
              od.od);
        } else if constexpr (std::is_same_v<Od, ConditionalOd>) {
          w.Key("type").String(TypeName(od));
          WriteOdMembers(&w, od, relation);
        } else {
          w.Key("type").String(TypeName(od));
          WriteOdMembers(&w, od, schema);
        }
      },
      event);
  w.EndObject();
  return w.str() + "\n";
}

std::string FastodResultToJson(const FastodResult& result,
                               const RelationInfo& info,
                               const std::string& algorithm) {
  JsonWriter w = BeginReport(algorithm, info, result.seconds,
                             result.timed_out, result.cancelled);
  WriteOdArray(&w, "constancy_ods", result.constancy_ods, *info.schema);
  WriteOdArray(&w, "compatibility_ods", result.compatibility_ods,
               *info.schema);
  WriteOdArray(&w, "bidirectional_ods", result.bidirectional_ods,
               *info.schema);
  return EndReport(&w);
}

std::string FastodResultToText(const FastodResult& result,
                               const RelationInfo& info,
                               const std::string& label) {
  char buf[208];
  std::snprintf(buf, sizeof(buf),
                "%s: %lld ODs (%lld constancy + %lld compatibility + "
                "%lld bidirectional) in %.3fs%s%s\n", label.c_str(),
                static_cast<long long>(result.NumOds()),
                static_cast<long long>(result.num_constancy),
                static_cast<long long>(result.num_compatibility),
                static_cast<long long>(result.num_bidirectional),
                result.seconds, result.timed_out ? " [TIMED OUT]" : "",
                result.cancelled ? " [CANCELLED]" : "");
  std::string out = buf;
  for (const ConstancyOd& od : result.constancy_ods) {
    out += "  " + od.ToString(*info.schema) + "\n";
  }
  for (const CompatibilityOd& od : result.compatibility_ods) {
    out += "  " + od.ToString(*info.schema) + "\n";
  }
  for (const BidiCompatibilityOd& od : result.bidirectional_ods) {
    out += "  " + od.ToString(*info.schema) + "\n";
  }
  return out;
}

std::string TaneResultToJson(const TaneResult& result,
                             const RelationInfo& info) {
  JsonWriter w = BeginReport("tane", info, result.seconds, result.timed_out,
                             result.cancelled);
  // FDs keep TANE's lhs/rhs vocabulary rather than the constancy shape.
  w.Key("fds").BeginArray();
  for (const ConstancyOd& fd : result.fds) {
    w.BeginObject().Key("lhs");
    WriteNames(&w, fd.context, *info.schema);
    w.Key("rhs").String(info.schema->name(fd.attribute)).EndObject();
  }
  w.EndArray();
  return EndReport(&w);
}

std::string TaneResultToText(const TaneResult& result,
                             const RelationInfo& info) {
  char buf[112];
  std::snprintf(buf, sizeof(buf), "TANE: %lld minimal FDs in %.3fs%s%s\n",
                static_cast<long long>(result.num_fds), result.seconds,
                result.timed_out ? " [TIMED OUT]" : "",
                result.cancelled ? " [CANCELLED]" : "");
  std::string out = buf;
  for (const ConstancyOd& od : result.fds) {
    out += "  " + od.context.ToString(*info.schema) + " -> " +
           info.schema->name(od.attribute) + "\n";
  }
  return out;
}

std::string OrderResultToJson(const OrderResult& result,
                              const RelationInfo& info) {
  JsonWriter w = BeginReport("order", info, result.seconds, result.timed_out,
                             result.cancelled);
  WriteOdArray(&w, "ods", result.ods, *info.schema);
  return EndReport(&w);
}

std::string OrderResultToText(const OrderResult& result,
                              const RelationInfo& info) {
  char buf[112];
  std::snprintf(buf, sizeof(buf), "ORDER: %lld list ODs in %.3fs%s%s\n",
                static_cast<long long>(result.ods.size()), result.seconds,
                result.timed_out ? " [TIMED OUT]" : "",
                result.cancelled ? " [CANCELLED]" : "");
  std::string out = buf;
  for (const ListOd& od : result.ods) {
    out += "  " + od.ToString(*info.schema) + "\n";
  }
  return out;
}

std::string IncrementalResultToJson(const IncrementalResult& result,
                                    const RelationInfo& info, double seconds,
                                    int64_t base_rows) {
  const Schema& schema = *info.schema;
  JsonWriter w = BeginReport("incremental", info, seconds,
                             /*timed_out=*/false, result.cancelled);
  WriteOdArray(&w, "constancy_ods", result.constancy_ods, schema);
  WriteOdArray(&w, "compatibility_ods", result.compatibility_ods, schema);
  w.Key("bidirectional_ods").BeginArray().EndArray();
  WriteOdArray(&w, "revoked_constancy_ods", result.revoked_constancy, schema);
  WriteOdArray(&w, "revoked_compatibility_ods", result.revoked_compatibility,
               schema);
  w.Key("incremental").BeginObject().Key("base_rows").Int(base_rows);
  w.Key("delta_rows").Int(info.rows - base_rows);
  w.Key("revalidated").Int(result.revalidated);
  w.Key("revoked").Int(static_cast<int64_t>(
      result.revoked_constancy.size() + result.revoked_compatibility.size()));
  w.Key("new_ods").Int(result.new_constancy + result.new_compatibility);
  w.Key("escalations").Int(result.escalations);
  w.Key("nodes_searched").Int(result.nodes_searched);
  w.Key("cancelled").Bool(result.cancelled).EndObject();
  return EndReport(&w);
}
std::string IncrementalResultToText(const IncrementalResult& result,
                                    const RelationInfo& info,
                                    double seconds) {
  char buf[224];
  std::snprintf(
      buf, sizeof(buf),
      "INCREMENTAL: %lld ODs (%lld surviving + %lld new), %lld revoked, "
      "%lld lattice nodes re-searched in %.3fs%s\n",
      static_cast<long long>(result.constancy_ods.size() +
                             result.compatibility_ods.size()),
      static_cast<long long>(result.constancy_ods.size() +
                             result.compatibility_ods.size() -
                             result.new_constancy -
                             result.new_compatibility),
      static_cast<long long>(result.new_constancy +
                             result.new_compatibility),
      static_cast<long long>(result.revoked_constancy.size() +
                             result.revoked_compatibility.size()),
      static_cast<long long>(result.nodes_searched), seconds,
      result.cancelled ? " [CANCELLED]" : "");
  std::string out = buf;
  for (const ConstancyOd& od : result.revoked_constancy) {
    out += "  revoked " + od.ToString(*info.schema) + "\n";
  }
  for (const CompatibilityOd& od : result.revoked_compatibility) {
    out += "  revoked " + od.ToString(*info.schema) + "\n";
  }
  for (const ConstancyOd& od : result.constancy_ods) {
    out += "  " + od.ToString(*info.schema) + "\n";
  }
  for (const CompatibilityOd& od : result.compatibility_ods) {
    out += "  " + od.ToString(*info.schema) + "\n";
  }
  return out;
}

}  // namespace fastod
