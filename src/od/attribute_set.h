// AttributeSet: a set of attribute indices, packed into one 64-bit word.
//
// This is the key enabling data structure of the paper's approach: ODs are
// mapped into a *set-based* canonical form (Section 3), so the discovery
// lattice is the 2^|R| set-containment lattice rather than the factorial
// list-containment lattice. Every lattice node, context, and candidate set
// Cc+(X) is an AttributeSet. The 64-attribute cap comfortably covers the
// paper's evaluation (max 40 attributes).
#ifndef FASTOD_OD_ATTRIBUTE_SET_H_
#define FASTOD_OD_ATTRIBUTE_SET_H_

#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/macros.h"

namespace fastod {

class Schema;

class AttributeSet {
 public:
  /// Maximum number of attributes a relation may have.
  static constexpr int kMaxAttributes = 64;

  constexpr AttributeSet() : bits_(0) {}
  explicit constexpr AttributeSet(uint64_t bits) : bits_(bits) {}

  static AttributeSet Empty() { return AttributeSet(); }
  static AttributeSet Single(int attr) {
    FASTOD_DCHECK(attr >= 0 && attr < kMaxAttributes);
    return AttributeSet(uint64_t{1} << attr);
  }
  /// {0, 1, ..., n-1}: the full relation schema R.
  static AttributeSet FullSet(int n) {
    FASTOD_DCHECK(n >= 0 && n <= kMaxAttributes);
    if (n == 0) return AttributeSet();
    if (n == 64) return AttributeSet(~uint64_t{0});
    return AttributeSet((uint64_t{1} << n) - 1);
  }
  static AttributeSet FromIndices(const std::vector<int>& indices) {
    AttributeSet s;
    for (int a : indices) s = s.With(a);
    return s;
  }

  uint64_t bits() const { return bits_; }
  bool IsEmpty() const { return bits_ == 0; }
  int Count() const { return std::popcount(bits_); }

  bool Contains(int attr) const {
    FASTOD_DCHECK(attr >= 0 && attr < kMaxAttributes);
    return (bits_ >> attr) & 1;
  }
  bool ContainsAll(AttributeSet other) const {
    return (bits_ & other.bits_) == other.bits_;
  }
  bool Intersects(AttributeSet other) const {
    return (bits_ & other.bits_) != 0;
  }

  AttributeSet With(int attr) const {
    FASTOD_DCHECK(attr >= 0 && attr < kMaxAttributes);
    return AttributeSet(bits_ | (uint64_t{1} << attr));
  }
  AttributeSet Without(int attr) const {
    FASTOD_DCHECK(attr >= 0 && attr < kMaxAttributes);
    return AttributeSet(bits_ & ~(uint64_t{1} << attr));
  }
  AttributeSet Union(AttributeSet other) const {
    return AttributeSet(bits_ | other.bits_);
  }
  AttributeSet Intersect(AttributeSet other) const {
    return AttributeSet(bits_ & other.bits_);
  }
  AttributeSet Minus(AttributeSet other) const {
    return AttributeSet(bits_ & ~other.bits_);
  }

  /// Lowest attribute index, or -1 if empty.
  int First() const {
    return bits_ == 0 ? -1 : std::countr_zero(bits_);
  }
  /// Lowest attribute index greater than `attr`, or -1.
  int Next(int attr) const {
    uint64_t rest = (attr + 1 >= 64) ? 0 : (bits_ >> (attr + 1)) << (attr + 1);
    return rest == 0 ? -1 : std::countr_zero(rest);
  }

  /// Attribute indices in ascending order.
  std::vector<int> ToIndices() const;

  bool operator==(const AttributeSet& o) const { return bits_ == o.bits_; }
  bool operator!=(const AttributeSet& o) const { return bits_ != o.bits_; }
  bool operator<(const AttributeSet& o) const { return bits_ < o.bits_; }

  /// "{}" or "{a,c,d}" using 'A'+index placeholders.
  std::string ToString() const;
  /// "{year,salary}" using schema names.
  std::string ToString(const Schema& schema) const;

 private:
  uint64_t bits_;
};

/// Placeholder name of attribute `attr` when no schema is at hand: 'A' +
/// index for the first 26, "#index" beyond.
std::string AttrName(int attr);

/// Iteration helper: visits set members in ascending order.
///   for (int a = s.First(); a >= 0; a = s.Next(a)) { ... }
///
/// Range-style adapter for readability in non-hot code.
class AttributeSetIterable {
 public:
  explicit AttributeSetIterable(AttributeSet set) : set_(set) {}
  class Iterator {
   public:
    Iterator(AttributeSet set, int cur) : set_(set), cur_(cur) {}
    int operator*() const { return cur_; }
    Iterator& operator++() {
      cur_ = set_.Next(cur_);
      return *this;
    }
    bool operator!=(const Iterator& o) const { return cur_ != o.cur_; }

   private:
    AttributeSet set_;
    int cur_;
  };
  Iterator begin() const { return Iterator(set_, set_.First()); }
  Iterator end() const { return Iterator(set_, -1); }

 private:
  AttributeSet set_;
};

inline AttributeSetIterable Members(AttributeSet set) {
  return AttributeSetIterable(set);
}

struct AttributeSetHash {
  size_t operator()(const AttributeSet& s) const {
    // splitmix64 finalizer: cheap and well-distributed for bitmask keys.
    uint64_t z = s.bits() + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<size_t>(z ^ (z >> 31));
  }
};

}  // namespace fastod

#endif  // FASTOD_OD_ATTRIBUTE_SET_H_
