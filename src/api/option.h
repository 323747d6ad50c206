// Typed, introspectable algorithm options.
//
// Every Algorithm (api/algorithm.h) exposes its configuration as a flat,
// string-keyed registry of typed options: each option has a name, a
// one-line description, a rendered default, and a parser that validates
// and applies a string value. Frontends — the CLI, future Python/C
// bindings, a server — configure any engine uniformly through
// SetOption(name, value) and generate their help/usage text from the
// metadata, without compile-time knowledge of the engine's options struct.
//
// Options bind to fields of the engine's native struct (FastodOptions and
// friends) by pointer, so SetOption writes through immediately and the
// legacy structs remain the single source of truth for defaults.
#ifndef FASTOD_API_OPTION_H_
#define FASTOD_API_OPTION_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"

namespace fastod {

/// Option value categories. The numeric values are frozen: they cross the
/// C ABI as the FASTOD_OPTION_* constants in capi/fastod_c.h, so bindings
/// in any language can switch on them without parsing type_name.
enum class OptionKind : int {
  kBool = 0,
  kInt = 1,
  kDouble = 2,
  kString = 3,
  kEnum = 4,
};

/// Introspection record for one registered option. Everything a frontend
/// needs crosses language boundaries as plain data: the kind as an int,
/// the default rendered as a string (the same spelling SetOption parses).
struct OptionInfo {
  std::string name;
  OptionKind kind = OptionKind::kString;
  std::string type_name;     // "bool", "int", "double", "string", "enum"
  std::string description;
  std::string default_repr;  // rendered default value
  std::vector<std::string> enum_values;  // non-empty only for enums
};

class OptionRegistry {
 public:
  /// Registration. Target pointers must outlive the registry; the target's
  /// current value is rendered as the default. Min/max bounds are
  /// inclusive and validated at SetOption time.
  void AddBool(const std::string& name, bool* target,
               const std::string& description);
  void AddInt(const std::string& name, int* target,
              const std::string& description, int min_value, int max_value);
  void AddInt64(const std::string& name, int64_t* target,
                const std::string& description, int64_t min_value,
                int64_t max_value);
  void AddDouble(const std::string& name, double* target,
                 const std::string& description, double min_value,
                 double max_value);
  void AddString(const std::string& name, std::string* target,
                 const std::string& description);
  /// `values` maps each accepted spelling to an int stored via `target`.
  void AddEnum(const std::string& name, int* target,
               const std::string& description,
               std::vector<std::pair<std::string, int>> values,
               const std::string& default_repr);

  /// Parses and applies `value`. For bools an empty value means "true"
  /// (mirroring --flag with no argument). Resolution order: canonical
  /// name, then its underscore spelling (historical "max_level" style),
  /// which bumps a deprecation counter. Unknown names and malformed or
  /// out-of-range values are errors naming the option.
  Status Set(const std::string& name, const std::string& value);

  /// Option names in registration order.
  std::vector<std::string> Names() const;

  const OptionInfo* Find(const std::string& name) const;

  /// Help text, one option per line:
  ///   --name=<type>  description (default: X)
  std::string Describe() const;

 private:
  struct Option {
    OptionInfo info;
    std::function<Status(const std::string&)> apply;
  };
  void Add(OptionInfo info, std::function<Status(const std::string&)> apply);

  std::vector<Option> options_;
};

}  // namespace fastod

#endif  // FASTOD_API_OPTION_H_
