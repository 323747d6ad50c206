#include "data/value.h"

#include <cmath>
#include <cstdio>

#include "common/macros.h"

namespace fastod {

const char* DataTypeName(DataType type) {
  switch (type) {
    case DataType::kNull:
      return "null";
    case DataType::kInt:
      return "int";
    case DataType::kDouble:
      return "double";
    case DataType::kString:
      return "string";
  }
  return "unknown";
}

DataType Value::type() const {
  switch (rep_.index()) {
    case 0:
      return DataType::kNull;
    case 1:
      return DataType::kInt;
    case 2:
      return DataType::kDouble;
    case 3:
      return DataType::kString;
  }
  return DataType::kNull;
}

int64_t Value::AsInt() const {
  FASTOD_DCHECK(std::holds_alternative<int64_t>(rep_));
  return std::get<int64_t>(rep_);
}

double Value::AsDouble() const {
  FASTOD_DCHECK(std::holds_alternative<double>(rep_));
  return std::get<double>(rep_);
}

const std::string& Value::AsString() const {
  FASTOD_DCHECK(std::holds_alternative<std::string>(rep_));
  return std::get<std::string>(rep_);
}

double Value::NumericValue() const {
  if (std::holds_alternative<int64_t>(rep_)) {
    return static_cast<double>(std::get<int64_t>(rep_));
  }
  FASTOD_DCHECK(std::holds_alternative<double>(rep_));
  return std::get<double>(rep_);
}

Value Value::FromView(const ValueView& v) {
  switch (v.type) {
    case DataType::kNull:
      return Null();
    case DataType::kInt:
      return Int(v.i);
    case DataType::kDouble:
      return Double(v.d);
    case DataType::kString:
      return Str(std::string(v.s));
  }
  return Null();
}

ValueView Value::view() const {
  ValueView v;
  v.type = type();
  switch (v.type) {
    case DataType::kNull:
      break;
    case DataType::kInt:
      v.i = std::get<int64_t>(rep_);
      break;
    case DataType::kDouble:
      v.d = std::get<double>(rep_);
      break;
    case DataType::kString:
      v.s = std::get<std::string>(rep_);
      break;
  }
  return v;
}

namespace {

// Rank of a type in the cross-type total order: null < numeric < string.
int TypeRank(DataType t) {
  switch (t) {
    case DataType::kNull:
      return 0;
    case DataType::kInt:
    case DataType::kDouble:
      return 1;
    case DataType::kString:
      return 2;
  }
  return 3;
}

int CompareIntDouble(int64_t x, double y) {
  if (std::isnan(y)) return -1;
  // [-2^63, 2^63) is exactly the int64 range, so a double outside it
  // orders against every int without a lossy conversion.
  if (y >= 9223372036854775808.0) return -1;
  if (y < -9223372036854775808.0) return 1;
  const double whole = std::trunc(y);
  const int64_t w = static_cast<int64_t>(whole);
  if (x != w) return x < w ? -1 : 1;
  // Same integral part: the fraction decides.
  return y > whole ? -1 : (y < whole ? 1 : 0);
}

}  // namespace

int ValueView::Compare(const ValueView& a, const ValueView& b) {
  int ra = TypeRank(a.type);
  int rb = TypeRank(b.type);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (ra) {
    case 0:  // both null
      return 0;
    case 1: {  // both numeric
      const bool a_int = a.type == DataType::kInt;
      const bool b_int = b.type == DataType::kInt;
      if (a_int && b_int) return a.i < b.i ? -1 : (a.i > b.i ? 1 : 0);
      if (a_int) return CompareIntDouble(a.i, b.d);
      if (b_int) return -CompareIntDouble(b.i, a.d);
      return CompareDoubles(a.d, b.d);
    }
    default: {  // both strings
      int c = a.s.compare(b.s);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
  }
}

std::string ValueView::ToString() const {
  switch (type) {
    case DataType::kNull:
      return "NULL";
    case DataType::kInt:
      return std::to_string(i);
    case DataType::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%g", d);
      return buf;
    }
    case DataType::kString:
      return std::string(s);
  }
  return "?";
}

}  // namespace fastod
