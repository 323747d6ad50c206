// Small helpers shared across test translation units. Header-only:
// CMake globs tests/*_test.cc, so anything here must be inline.
#ifndef FASTOD_TESTS_TEST_UTIL_H_
#define FASTOD_TESTS_TEST_UTIL_H_

#include <cctype>
#include <memory>
#include <string>
#include <utility>

#include "common/json.h"
#include "data/dataset_store.h"
#include "data/encode.h"
#include "data/table.h"

namespace fastod {

/// `table` encoded with FromTable: the one way a test turns a row-model
/// Table into code columns. Aborts on a table the encoder refuses (more
/// than 64 attributes).
inline EncodedRelation Encode(const Table& table) {
  return EncodedRelation::FromTable(table).value();
}

/// Encode(table) built into a dataset, the data an engine binds
/// (Algorithm::BindDataset).
inline std::shared_ptr<const LoadedDataset> DatasetOf(
    const Table& table, std::string id = "table") {
  return LoadedDataset::Build(std::move(id), Encode(table), "table");
}

/// Masks the wall-clock "seconds" values in a report JSON so two runs of
/// identical discovery output compare equal bit-for-bit.
inline std::string MaskSeconds(std::string json) {
  size_t pos = 0;
  const std::string key = "\"seconds\": ";
  while ((pos = json.find(key, pos)) != std::string::npos) {
    size_t start = pos + key.size();
    size_t end = start;
    while (end < json.size() &&
           (std::isdigit(static_cast<unsigned char>(json[end])) != 0 ||
            json[end] == '.' || json[end] == 'e' || json[end] == '-' ||
            json[end] == '+')) {
      ++end;
    }
    json.replace(start, end - start, "X");
    pos = start;
  }
  return json;
}

/// Drops the "trace" member the server splices into /result bodies while
/// metrics are enabled, and renders the rest with JsonValue::Dump.
/// Traces carry wall-clock spans and source-dependent cache counters (a
/// dataset-bound session skips the csv.read and csv.tokenize spans and
/// seeds its partition cache), so bit-for-bit comparisons of the
/// discovery output strip the trace first, from both sides. A body that is not a JSON
/// object comes back unchanged.
inline std::string StripTrace(const std::string& json) {
  Result<JsonValue> parsed = ParseJson(json);
  if (!parsed.ok() || !parsed->is_object()) return json;
  std::string out = "{";
  for (const auto& [key, value] : parsed->object_items()) {
    if (key == "trace") continue;
    if (out.size() > 1) out += ", ";
    out += "\"" + JsonEscape(key) + "\": " + value.Dump();
  }
  return out + "}";
}

}  // namespace fastod

#endif  // FASTOD_TESTS_TEST_UTIL_H_
