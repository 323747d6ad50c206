#include "od/list_od.h"

#include "data/schema.h"

namespace fastod {

std::string OrderSpecToString(const OrderSpec& spec) {
  std::string out = "[";
  for (size_t i = 0; i < spec.size(); ++i) {
    if (i > 0) out += ",";
    out += AttrName(spec[i]);
  }
  out += "]";
  return out;
}

std::string OrderSpecToString(const OrderSpec& spec, const Schema& schema) {
  std::string out = "[";
  for (size_t i = 0; i < spec.size(); ++i) {
    if (i > 0) out += ",";
    out += schema.name(spec[i]);
  }
  out += "]";
  return out;
}

AttributeSet OrderSpecSet(const OrderSpec& spec) {
  AttributeSet s;
  for (int a : spec) s = s.With(a);
  return s;
}

bool IsPrefixOf(const OrderSpec& prefix, const OrderSpec& list) {
  if (prefix.size() > list.size()) return false;
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (prefix[i] != list[i]) return false;
  }
  return true;
}

std::string ListOd::ToString() const {
  return OrderSpecToString(lhs) + " orders " + OrderSpecToString(rhs);
}

std::string ListOd::ToString(const Schema& schema) const {
  return OrderSpecToString(lhs, schema) + " orders " +
         OrderSpecToString(rhs, schema);
}

}  // namespace fastod
