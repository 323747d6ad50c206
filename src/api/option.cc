#include "api/option.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/string_util.h"
#include "obs/metrics.h"

namespace fastod {

namespace {

/// The historical option surface drifted between hyphen and underscore
/// spellings; hyphens are canonical now, underscores resolve via this.
std::string Hyphenated(const std::string& name) {
  std::string out = name;
  std::replace(out.begin(), out.end(), '_', '-');
  return out;
}

void CountDeprecatedUse(const std::string& spelling) {
  if (!obs::Enabled()) return;
  obs::Registry::Global()
      .GetCounter("fastod_deprecated_option_total",
                  "Uses of deprecated option spellings (by spelling)",
                  {{"name", spelling}})
      ->Inc();
}

std::string RenderDouble(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

Status BadValue(const std::string& name, const std::string& value,
                const std::string& expected) {
  return Status::InvalidArgument("option '" + name + "': invalid value '" +
                                 value + "' (expected " + expected + ")");
}

}  // namespace

void OptionRegistry::Add(OptionInfo info,
                         std::function<Status(const std::string&)> apply) {
  options_.push_back(Option{std::move(info), std::move(apply)});
}

void OptionRegistry::AddBool(const std::string& name, bool* target,
                             const std::string& description) {
  OptionInfo info{name, OptionKind::kBool, "bool", description,
                  *target ? "true" : "false", {}};
  Add(std::move(info), [name, target](const std::string& value) {
    // An empty value mirrors a bare --flag on the command line.
    if (value.empty() || value == "true" || value == "1" || value == "on") {
      *target = true;
      return Status::Ok();
    }
    if (value == "false" || value == "0" || value == "off") {
      *target = false;
      return Status::Ok();
    }
    return BadValue(name, value, "true/false");
  });
}

void OptionRegistry::AddInt(const std::string& name, int* target,
                            const std::string& description, int min_value,
                            int max_value) {
  OptionInfo info{name, OptionKind::kInt, "int", description,
                  std::to_string(*target), {}};
  Add(std::move(info),
      [name, target, min_value, max_value](const std::string& value) {
        std::optional<int64_t> parsed = ParseInt(value);
        if (!parsed.has_value()) return BadValue(name, value, "an integer");
        if (*parsed < min_value || *parsed > max_value) {
          return BadValue(name, value,
                          "an integer in [" + std::to_string(min_value) +
                              ", " + std::to_string(max_value) + "]");
        }
        *target = static_cast<int>(*parsed);
        return Status::Ok();
      });
}

void OptionRegistry::AddInt64(const std::string& name, int64_t* target,
                              const std::string& description,
                              int64_t min_value, int64_t max_value) {
  OptionInfo info{name, OptionKind::kInt, "int", description,
                  std::to_string(*target), {}};
  Add(std::move(info),
      [name, target, min_value, max_value](const std::string& value) {
        std::optional<int64_t> parsed = ParseInt(value);
        if (!parsed.has_value()) return BadValue(name, value, "an integer");
        if (*parsed < min_value || *parsed > max_value) {
          return BadValue(name, value,
                          "an integer in [" + std::to_string(min_value) +
                              ", " + std::to_string(max_value) + "]");
        }
        *target = *parsed;
        return Status::Ok();
      });
}

void OptionRegistry::AddDouble(const std::string& name, double* target,
                               const std::string& description,
                               double min_value, double max_value) {
  OptionInfo info{name, OptionKind::kDouble, "double", description,
                  RenderDouble(*target), {}};
  Add(std::move(info),
      [name, target, min_value, max_value](const std::string& value) {
        std::optional<double> parsed = ParseDouble(value);
        if (!parsed.has_value()) return BadValue(name, value, "a number");
        if (*parsed < min_value || *parsed > max_value) {
          return BadValue(name, value,
                          "a number in [" + RenderDouble(min_value) + ", " +
                              RenderDouble(max_value) + "]");
        }
        *target = *parsed;
        return Status::Ok();
      });
}

void OptionRegistry::AddString(const std::string& name, std::string* target,
                               const std::string& description) {
  OptionInfo info{name, OptionKind::kString, "string", description,
                  *target, {}};
  Add(std::move(info), [target](const std::string& value) {
    *target = value;
    return Status::Ok();
  });
}

void OptionRegistry::AddEnum(const std::string& name, int* target,
                             const std::string& description,
                             std::vector<std::pair<std::string, int>> values,
                             const std::string& default_repr) {
  OptionInfo info{name, OptionKind::kEnum, "enum", description,
                  default_repr, {}};
  for (const auto& [spelling, unused] : values) {
    info.enum_values.push_back(spelling);
  }
  Add(std::move(info),
      [name, target, values = std::move(values)](const std::string& value) {
        for (const auto& [spelling, mapped] : values) {
          if (value == spelling) {
            *target = mapped;
            return Status::Ok();
          }
        }
        std::string expected = "one of";
        for (size_t i = 0; i < values.size(); ++i) {
          expected += (i == 0 ? " " : ", ") + values[i].first;
        }
        return BadValue(name, value, expected);
      });
}

Status OptionRegistry::Set(const std::string& name, const std::string& value) {
  for (Option& option : options_) {
    if (option.info.name == name) return option.apply(value);
  }
  // Deprecated spelling: the underscore form of the canonical name,
  // counted by the spelling the caller actually used.
  const std::string hyphenated = Hyphenated(name);
  if (hyphenated != name) {
    for (Option& option : options_) {
      if (option.info.name == hyphenated) {
        CountDeprecatedUse(name);
        return option.apply(value);
      }
    }
  }
  std::string known;
  for (size_t i = 0; i < options_.size(); ++i) {
    known += (i == 0 ? "" : ", ") + options_[i].info.name;
  }
  return Status::NotFound("unknown option '" + name + "' (available: " +
                          known + ")");
}

std::vector<std::string> OptionRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(options_.size());
  for (const Option& option : options_) names.push_back(option.info.name);
  return names;
}

const OptionInfo* OptionRegistry::Find(const std::string& name) const {
  for (const Option& option : options_) {
    if (option.info.name == name) return &option.info;
  }
  return nullptr;
}

std::string OptionRegistry::Describe() const {
  std::string out;
  for (const Option& option : options_) {
    const OptionInfo& info = option.info;
    std::string type = info.type_name;
    if (type == "enum") {
      type.clear();
      for (size_t i = 0; i < info.enum_values.size(); ++i) {
        if (i > 0) type += "|";
        type += info.enum_values[i];
      }
    }
    std::string line = "  --" + info.name + "=<" + type + ">";
    if (line.size() < 34) line.append(34 - line.size(), ' ');
    line += " " + info.description + " (default: " + info.default_repr + ")";
    out += line + "\n";
  }
  return out;
}

}  // namespace fastod
