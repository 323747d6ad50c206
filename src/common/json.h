// Minimal JSON reading and writing shared by the frontends.
//
// The library's machine-readable outputs (report/report.h, the C ABI's
// result strings, the HTTP server's responses) are all JSON, and the
// server additionally has to *parse* request bodies. Instead of a
// third-party dependency, this header provides the two small pieces every
// frontend needs:
//
//   * JsonWriter — append-only construction of valid JSON text, the one
//     way the library builds JSON. The writer tracks nesting and comma
//     placement so call sites read like the document they produce:
//
//       JsonWriter w;
//       w.BeginObject().Key("id").Int(7).Key("tags").BeginArray()
//        .String("a").String("b").EndArray().EndObject();
//       w.str()  ==  {"id": 7, "tags": ["a", "b"]}
//
//   * JsonValue / ParseJson — a tiny recursive-descent parser into a DOM
//     of the six JSON types. Numbers are stored as double (adequate for
//     every integer the API traffics in); objects preserve insertion
//     order and reject duplicate keys. Depth is bounded so hostile
//     request bodies cannot overflow the stack.
#ifndef FASTOD_COMMON_JSON_H_
#define FASTOD_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace fastod {

/// Escapes a string for inclusion inside JSON double quotes.
std::string JsonEscape(const std::string& s);

/// Adds `"key":value_json` as the last member of a rendered JSON object
/// (e.g. a trace spliced into a cached report); text after the object's
/// closing brace is kept. A no-op when `object` has no closing brace.
void SpliceJsonMember(std::string* object, const std::string& key,
                      const std::string& value_json);

/// Append-only JSON text builder. Misuse (e.g. a value where a key is
/// required) is a programming error and fires FASTOD_CHECK in debug use;
/// the writer never produces malformed output from well-ordered calls.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Object member key; must be followed by exactly one value.
  JsonWriter& Key(const std::string& key);

  JsonWriter& String(const std::string& value);
  JsonWriter& Int(int64_t value);
  JsonWriter& Double(double value);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();
  /// Splices pre-rendered JSON (e.g. a report string) as one value.
  JsonWriter& Raw(const std::string& json);

  const std::string& str() const { return out_; }

 private:
  void BeforeValue();

  std::string out_;
  // One frame per open container: '{' or '[', plus whether a value has
  // been written at this level (comma placement) and, for objects,
  // whether a key is pending.
  struct Frame {
    char kind;
    bool has_value = false;
    bool key_pending = false;
  };
  std::vector<Frame> stack_;
};

/// One parsed JSON value.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  /// The number as an integer, saturating: NaN → 0, values beyond the
  /// exactly-representable range clamp to ±2^53. A plain static_cast of
  /// an out-of-range double is undefined behavior, and the parser accepts
  /// any double a hostile request body can spell (1e999 → +inf).
  int64_t int_value() const;
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array_items() const { return array_; }
  const std::vector<std::pair<std::string, JsonValue>>& object_items()
      const {
    return object_;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  /// Renders a value back to compact JSON text (for error messages and
  /// round-trip tests).
  std::string Dump() const;

 private:
  friend class JsonParser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Parses one JSON document. Trailing non-whitespace, duplicate object
/// keys, and nesting beyond 64 levels are InvalidArgument errors.
Result<JsonValue> ParseJson(const std::string& text);

}  // namespace fastod

#endif  // FASTOD_COMMON_JSON_H_
