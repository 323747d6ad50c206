#include "od/bidirectional.h"

#include "data/schema.h"

namespace fastod {

namespace {

std::string Render(const DirectedSpec& spec, const Schema* schema) {
  std::string out = "[";
  for (size_t i = 0; i < spec.size(); ++i) {
    if (i > 0) out += ",";
    out += schema != nullptr ? schema->name(spec[i].attr)
                             : AttrName(spec[i].attr);
    out += spec[i].direction == SortDirection::kAsc ? " asc" : " desc";
  }
  out += "]";
  return out;
}

}  // namespace

DirectedAttribute Asc(int attr) {
  return DirectedAttribute{attr, SortDirection::kAsc};
}

DirectedAttribute Desc(int attr) {
  return DirectedAttribute{attr, SortDirection::kDesc};
}

std::string DirectedSpecToString(const DirectedSpec& spec) {
  return Render(spec, nullptr);
}

std::string DirectedSpecToString(const DirectedSpec& spec,
                                 const Schema& schema) {
  return Render(spec, &schema);
}

std::string BidirectionalListOd::ToString() const {
  return DirectedSpecToString(lhs) + " orders " + DirectedSpecToString(rhs);
}

std::string BidirectionalListOd::ToString(const Schema& schema) const {
  return DirectedSpecToString(lhs, schema) + " orders " +
         DirectedSpecToString(rhs, schema);
}

std::string BidiCompatibilityOd::ToString() const {
  return context.ToString() + ": " + AttrName(a) + " ~ " + AttrName(b) +
         " desc";
}

std::string BidiCompatibilityOd::ToString(const Schema& schema) const {
  return context.ToString(schema) + ": " + schema.name(a) + " ~ " +
         schema.name(b) + " desc";
}

}  // namespace fastod
