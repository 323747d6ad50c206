#include "od/attribute_set.h"

#include "data/schema.h"

namespace fastod {

std::vector<int> AttributeSet::ToIndices() const {
  std::vector<int> out;
  out.reserve(Count());
  for (int a = First(); a >= 0; a = Next(a)) out.push_back(a);
  return out;
}

std::string AttrName(int attr) {
  if (attr < 26) return std::string(1, static_cast<char>('A' + attr));
  std::string out = "#";
  out += std::to_string(attr);
  return out;
}

std::string AttributeSet::ToString() const {
  std::string out = "{";
  bool first = true;
  for (int a = First(); a >= 0; a = Next(a)) {
    if (!first) out += ",";
    first = false;
    out += AttrName(a);
  }
  out += "}";
  return out;
}

std::string AttributeSet::ToString(const Schema& schema) const {
  std::string out = "{";
  bool first = true;
  for (int a = First(); a >= 0; a = Next(a)) {
    if (!first) out += ",";
    first = false;
    if (a < schema.NumAttributes()) {
      out += schema.name(a);
    } else {
      out += "#";
      out += std::to_string(a);
    }
  }
  out += "}";
  return out;
}

}  // namespace fastod
