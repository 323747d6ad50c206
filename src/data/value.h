// Typed cell values.
//
// Tables hold Value cells; the discovery algorithms never touch Values on
// their hot paths — they run over the order-preserving integer encoding
// produced by data/encode.h (Section 4.6 of the paper: "values of the
// columns are replaced with integers ... ordering is preserved").
#ifndef FASTOD_DATA_VALUE_H_
#define FASTOD_DATA_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

namespace fastod {

enum class DataType {
  kNull,    // only as a cell state, not a column type
  kInt,     // 64-bit signed integer
  kDouble,  // IEEE double
  kString,  // byte string, ordered lexicographically
};

/// Returns a short lowercase name ("int", "double", ...).
const char* DataTypeName(DataType type);

/// Three-way comparison of two doubles under the Value total order:
/// numeric (-0 equals 0), and NaN equals NaN and sorts after every
/// number, so sorts see a strict weak ordering. Inline, so the encoder's
/// double-keyed sort (data/encode.cc) compares without a call.
inline int CompareDoubles(double x, double y) {
  if (x < y) return -1;
  if (x > y) return 1;
  if (x == y) return 0;
  // At least one NaN (x != x only for NaN).
  return static_cast<int>(x != x) - static_cast<int>(y != y);
}

/// A non-owning view of one value: the string case borrows its bytes.
/// Value, the column dictionaries and the CSV encoder all order and
/// render through it, so there is one implementation of the total order
/// and none of them has to materialize a Value to compare.
struct ValueView {
  DataType type = DataType::kNull;
  int64_t i = 0;       // kInt
  double d = 0.0;      // kDouble
  std::string_view s;  // kString

  /// Three-way comparison under the Value total order (<0, 0, >0).
  static int Compare(const ValueView& a, const ValueView& b);

  /// Rendered form: "NULL", "42", "3.5", or the raw string.
  std::string ToString() const;
};

/// A single typed cell. Small, copyable, with a total order:
///   null < all non-null; ints and doubles compare numerically with each
///   other, exactly (an int is never rounded to a double), and NaN equals
///   NaN and sorts after every other number; any number < any string.
///   Within strings: lexicographic byte order. This matches SQL ascending
///   order with NULLS FIRST.
class Value {
 public:
  Value() : rep_(std::monostate{}) {}
  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(Rep(v)); }
  static Value Double(double v) { return Value(Rep(v)); }
  static Value Str(std::string v) { return Value(Rep(std::move(v))); }
  /// An owning copy of a view.
  static Value FromView(const ValueView& v);

  DataType type() const;
  bool is_null() const { return std::holds_alternative<std::monostate>(rep_); }

  /// Typed accessors; calling the wrong one is a bug (checked in debug).
  int64_t AsInt() const;
  double AsDouble() const;
  const std::string& AsString() const;

  /// Numeric view: AsInt widened, or AsDouble. Only for numeric values.
  double NumericValue() const;

  /// Borrowing view of this value; valid while the Value lives.
  ValueView view() const;

  /// Three-way comparison under the total order documented above.
  /// Returns <0, 0, >0.
  static int Compare(const Value& a, const Value& b) {
    return ValueView::Compare(a.view(), b.view());
  }

  bool operator==(const Value& other) const {
    return Compare(*this, other) == 0;
  }
  bool operator<(const Value& other) const { return Compare(*this, other) < 0; }

  /// Rendered form: "NULL", "42", "3.5", or the raw string.
  std::string ToString() const { return view().ToString(); }

 private:
  using Rep = std::variant<std::monostate, int64_t, double, std::string>;
  explicit Value(Rep rep) : rep_(std::move(rep)) {}
  Rep rep_;
};

}  // namespace fastod

#endif  // FASTOD_DATA_VALUE_H_
