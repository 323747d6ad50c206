// Rendering of discovery results for humans (text) and machines (JSON).
//
// This file owns the JSON shape of every OD, for the /result reports and
// the /stream NDJSON lines alike. Reports are one compact JSON line (pipe
// through `jq .` to read them); the shape is stable and documented here so
// downstream tooling can rely on it:
// {
//   "algorithm": "fastod",
//   "relation": {"rows": N, "attributes": [names...]},
//   "stats": {"seconds": ..., "timed_out": b, "cancelled": b},
//   "constancy_ods":     [{"context": ["a", "b"], "attribute": "c"}, ...],
//   "compatibility_ods": [{"context": [...], "a": ..., "b": ...}, ...],
//   "bidirectional_ods": [{"context": [...], "a": ..., "b": ...,
//                          "polarity": "opposite"}, ...]
// }
// "timed_out" or "cancelled" true marks a partial result: the run stopped
// early and the OD set is incomplete.
#ifndef FASTOD_REPORT_REPORT_H_
#define FASTOD_REPORT_REPORT_H_

#include <string>
#include <vector>

#include "algo/fastod.h"
#include "algo/order.h"
#include "algo/tane.h"
#include "api/od_sink.h"
#include "data/schema.h"
#include "incremental/incremental.h"

namespace fastod {

class JsonWriter;

struct RelationInfo {
  int64_t rows = 0;
  const Schema* schema = nullptr;  // must outlive the call
};

/// Writes the shared "algorithm"/"relation"/"stats" members into the
/// open object, for renderers outside this file that emit the same
/// stable shape.
void WriteReportHeader(JsonWriter* w, const std::string& algorithm,
                       const RelationInfo& info, double seconds,
                       bool timed_out, bool cancelled);

/// Write one OD's members into the open object: the single definition of
/// each OD's JSON shape, shared by the report arrays and the stream
/// lines. A conditional OD's bindings render as the condition
/// attribute's dictionary values, so both surfaces carry the same ones.
void WriteOdMembers(JsonWriter* w, const ConstancyOd& od,
                    const Schema& schema);
void WriteOdMembers(JsonWriter* w, const CompatibilityOd& od,
                    const Schema& schema);
void WriteOdMembers(JsonWriter* w, const BidiCompatibilityOd& od,
                    const Schema& schema);
void WriteOdMembers(JsonWriter* w, const ListOd& od, const Schema& schema);
void WriteOdMembers(JsonWriter* w, const ConditionalOd& od,
                    const EncodedRelation& relation);

/// The original cell value of code `rank` of attribute `attr` (every
/// encoder interns the first-row representative), or "#rank" when the
/// dictionary has no such entry.
std::string BindingValue(const EncodedRelation& relation, int attr,
                         int32_t rank);

/// One streamed OD as a single NDJSON line (trailing '\n'): a "type"
/// member, then the OD's members as in the reports. A retraction is
/// {"type": "revoked", "od_type": ..., <the revoked OD's members>}.
std::string EventJsonLine(const OdEvent& event,
                          const EncodedRelation& relation);

/// `algorithm` / `label` let adapters that reuse the FASTOD result shape
/// (brute-force oracle, approximate discovery) render under their own
/// name.
std::string FastodResultToJson(const FastodResult& result,
                               const RelationInfo& info,
                               const std::string& algorithm = "fastod");
std::string FastodResultToText(const FastodResult& result,
                               const RelationInfo& info,
                               const std::string& label = "FASTOD");

std::string TaneResultToJson(const TaneResult& result,
                             const RelationInfo& info);
std::string TaneResultToText(const TaneResult& result,
                             const RelationInfo& info);

std::string OrderResultToJson(const OrderResult& result,
                              const RelationInfo& info);
std::string OrderResultToText(const OrderResult& result,
                              const RelationInfo& info);

/// The incremental engine's report: the grown relation's full minimal OD
/// set in the standard constancy/compatibility arrays (so any consumer of
/// the fastod shape parses it unchanged), plus "revoked_*_ods" arrays and
/// an "incremental" stats object (base_rows, delta_rows, revalidated,
/// revoked, new_ods, escalations, nodes_searched, cancelled).
std::string IncrementalResultToJson(const IncrementalResult& result,
                                    const RelationInfo& info, double seconds,
                                    int64_t base_rows);
std::string IncrementalResultToText(const IncrementalResult& result,
                                    const RelationInfo& info,
                                    double seconds);

}  // namespace fastod

#endif  // FASTOD_REPORT_REPORT_H_
