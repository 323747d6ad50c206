#include "od/canonical_od.h"

#include "data/schema.h"

namespace fastod {

std::string ConstancyOd::ToString() const {
  return context.ToString() + ": [] -> " + AttrName(attribute);
}

std::string ConstancyOd::ToString(const Schema& schema) const {
  return context.ToString(schema) + ": [] -> " + schema.name(attribute);
}

std::string CompatibilityOd::ToString() const {
  return context.ToString() + ": " + AttrName(a) + " ~ " + AttrName(b);
}

std::string CompatibilityOd::ToString(const Schema& schema) const {
  return context.ToString(schema) + ": " + schema.name(a) + " ~ " +
         schema.name(b);
}

std::string CanonicalOdToString(const CanonicalOd& od) {
  if (std::holds_alternative<ConstancyOd>(od)) {
    return std::get<ConstancyOd>(od).ToString();
  }
  return std::get<CompatibilityOd>(od).ToString();
}

std::string CanonicalOdToString(const CanonicalOd& od, const Schema& schema) {
  if (std::holds_alternative<ConstancyOd>(od)) {
    return std::get<ConstancyOd>(od).ToString(schema);
  }
  return std::get<CompatibilityOd>(od).ToString(schema);
}

}  // namespace fastod
