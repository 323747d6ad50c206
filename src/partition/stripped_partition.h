// Stripped partitions Π*_X (Section 4.6).
//
// A partition Π_X groups tuples into equivalence classes by their values on
// the attribute set X. A *stripped* partition discards singleton classes:
// by Lemma 14 of the paper, singletons can falsify neither constancy ODs
// (X: [] -> A) nor order-compatibility ODs (X: A ~ B), so dropping them is
// lossless for validation and shrinks partitions rapidly as contexts grow.
//
// Classes are stored flattened (one elements array plus offsets) for cache
// locality; tuple ids within a class are in ascending order, and for
// single-attribute partitions the classes themselves appear in ascending
// value (rank) order.
#ifndef FASTOD_PARTITION_STRIPPED_PARTITION_H_
#define FASTOD_PARTITION_STRIPPED_PARTITION_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/macros.h"
#include "data/column.h"

namespace fastod {

/// The reusable buffers of the refine kernel (StrippedPartition::Refine):
/// the parent's gathered keys, the per-key slot array and the staged
/// output. They grow to the largest call and keep their capacity, so a
/// caller that refines many times (the lattice walk holds one per party)
/// allocates them once. One call at a time per scratch; the slot array
/// is all zero between calls.
class RefineScratch {
 public:
  RefineScratch() = default;

 private:
  friend class StrippedPartition;
  std::vector<uint32_t> keys_;      // the parent's keys, by element
  std::vector<int32_t> slots_;      // per key: a count, then a cursor
  std::vector<uint32_t> touched_;   // a class's keys, first seen
  std::vector<int32_t> elements_;   // the result's elements, staged
  std::vector<int32_t> ends_;       // the result's offsets, staged
};

class StrippedPartition {
 public:
  StrippedPartition() = default;

  /// Π*_{} — the universe partition: one class holding all `num_rows`
  /// tuples (empty if num_rows < 2, i.e. the empty set is already a key).
  static StrippedPartition Universe(int64_t num_rows);

  /// Π*_{A} from the dense order-preserving code column of attribute A —
  /// a counting sort over the contiguous codes. Classes are emitted in
  /// ascending code (= value) order.
  static StrippedPartition ForAttribute(const CodeColumn& codes);

  /// Convenience overload over a hand-assembled rank vector (tests).
  static StrippedPartition ForAttribute(const std::vector<int32_t>& ranks,
                                        int32_t num_distinct);

  /// Builds Π*_X directly from the code columns of the attributes of X:
  /// an LSD radix sort (one stable counting pass per column, last to
  /// first) followed by adjacent-run grouping, so classes appear in
  /// ascending lexicographic key order with ascending members. Used for
  /// one-off constructions and as the test oracle; the level-wise
  /// algorithms and the validators derive partitions with Refine().
  static StrippedPartition FromCodeColumns(
      const std::vector<const CodeColumn*>& columns, int64_t num_rows);

  /// Π*_{X∪{A}} from `*this` = Π*_X and the code column of A: splits
  /// every class by its members' codes (the probing-table refinement of
  /// the TANE/HyFD family). One kernel serves Refine and Product. It
  /// gathers the parent's keys once, then splits each class in place:
  /// classes of 2 and 3 members compare their keys directly, larger ones
  /// count codes in `scratch`'s slot array, route singleton groups to one
  /// trash cell and scatter the rest into staging. The result is copied
  /// once into exactly sized arrays. Classes keep the parent's class
  /// order and, within a class, first-seen code order; members stay
  /// ascending. `scratch` serves one call at a time; the overload without
  /// it uses a call-local one.
  StrippedPartition Refine(const CodeColumn& codes,
                           RefineScratch* scratch) const;
  StrippedPartition Refine(const CodeColumn& codes) const;

  /// The partition product Π*_{X∪Y} = Π*_X · Π*_Y: refines `*this` by
  /// `other`'s classes (its stripped singletons drop out). Kept for
  /// callers holding two partitions rather than a code column.
  StrippedPartition Product(const StrippedPartition& other) const;

  int64_t num_rows() const { return num_rows_; }
  int32_t NumClasses() const {
    return static_cast<int32_t>(offsets_.size()) - 1;
  }
  /// Total tuples across (non-singleton) classes.
  int64_t NumElements() const {
    return static_cast<int64_t>(elements_.size());
  }

  /// e(X) = ||Π*_X|| - |Π*_X|: the number of tuples that must be removed
  /// for X to become a key. Two contexts X ⊂ X' index the same partition
  /// iff their errors are equal — the O(1) FD check of Section 4.6.
  int64_t Error() const { return NumElements() - NumClasses(); }

  /// True iff every class is a singleton, i.e. the attribute set is a
  /// superkey (triggers the key-pruning rules, Lemmas 12-13).
  bool IsSuperkey() const { return NumClasses() == 0; }

  /// Tuple ids of class `c`, ascending.
  std::span<const int32_t> Class(int32_t c) const {
    FASTOD_DCHECK(c >= 0 && c < NumClasses());
    return std::span<const int32_t>(elements_.data() + offsets_[c],
                                    offsets_[c + 1] - offsets_[c]);
  }

  /// Writes the class index of every tuple into `class_of` (resized to
  /// num_rows): class id for members of non-singleton classes, -1 for
  /// stripped singletons. Used by the τ-based swap checker.
  void FillClassIndex(std::vector<int32_t>* class_of) const;

  bool operator==(const StrippedPartition& other) const;

  /// "{{0,3},{1,4,5}}" for debugging and tests.
  std::string ToString() const;

 private:
  // The refine kernel behind Refine and Product: splits every class by
  // `keys[t]` in [0, num_keys).
  StrippedPartition RefineByKeys(const uint32_t* keys, int64_t num_keys,
                                 RefineScratch* scratch) const;

  int64_t num_rows_ = 0;
  std::vector<int32_t> elements_;
  std::vector<int32_t> offsets_{0};

  friend class PartitionBuilder;
};

/// Incremental construction: append classes one at a time. Classes with
/// fewer than two tuples are dropped automatically (stripping).
class PartitionBuilder {
 public:
  explicit PartitionBuilder(int64_t num_rows) { result_.num_rows_ = num_rows; }

  void BeginClass() { class_start_ = result_.elements_.size(); }
  void AddTuple(int32_t tuple) { result_.elements_.push_back(tuple); }
  void EndClass() {
    size_t size = result_.elements_.size() - class_start_;
    if (size < 2) {
      result_.elements_.resize(class_start_);  // strip singleton / empty
    } else {
      result_.offsets_.push_back(
          static_cast<int32_t>(result_.elements_.size()));
    }
  }

  StrippedPartition Build() { return std::move(result_); }

 private:
  StrippedPartition result_;
  size_t class_start_ = 0;
};

}  // namespace fastod

#endif  // FASTOD_PARTITION_STRIPPED_PARTITION_H_
