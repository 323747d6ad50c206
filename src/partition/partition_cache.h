// A level-aware cache of stripped partitions keyed by AttributeSet.
//
// The level-wise algorithms (FASTOD, TANE) derive Π*_X for every lattice
// node X from the previous level (Section 4.6: "only partitions from the
// previous level are needed"), usually by refining the smallest cached
// Π*_{X\A} by the codes of A — but when a known exact FD makes Π*_X
// equal to a parent's partition, the node shares that parent's partition
// instead (Derive below). Validation may read further down than the
// derive step: the lattice walk (algo/lattice_walk.h) keeps as many
// levels cached as the engine's LatticePolicy::CachedLevelsBack() asks
// for — one for TANE, one more for FASTOD, whose override says why — and
// evicts older ones to bound memory.
#ifndef FASTOD_PARTITION_PARTITION_CACHE_H_
#define FASTOD_PARTITION_PARTITION_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <unordered_map>

#include "od/attribute_set.h"
#include "partition/stripped_partition.h"

namespace fastod {

class EncodedRelation;

/// An immutable stripped partition shared by every lattice node whose
/// partition it is. A handle may also be non-owning (empty control block)
/// when the partition lives in a longer-lived owner, such as a dataset's
/// prebuilt level-1 partitions.
using PartitionHandle = std::shared_ptr<const StrippedPartition>;

/// A non-owning handle to `partition`, which must outlive every reader of
/// the handle (and of the cache it is put into).
inline PartitionHandle BorrowPartition(const StrippedPartition& partition) {
  return PartitionHandle(PartitionHandle(), &partition);
}

// Thread-safety: reads (Get/Derive/Contains/NumCached/TotalElements) take
// a shared lock, writes (Put/EvictBelow) an exclusive one. The level-wise
// engines read from parallel tasks and write only from the calling
// thread between task batches (see docs/CONCURRENCY.md). Values are
// handles to immutable partitions, and Get returns a reference into the
// handle's partition: it stays valid under concurrent Put and until its
// level is evicted. Overwriting an existing key while a reader holds its
// reference is NOT safe — the level-wise engines never do (each Π*_X is
// put exactly once).
class PartitionCache {
 public:
  PartitionCache() = default;
  PartitionCache(const PartitionCache&) = delete;
  PartitionCache& operator=(const PartitionCache&) = delete;

  /// Registers Π*_X at lattice level `level` (= |X|).
  void Put(int level, AttributeSet set, PartitionHandle partition);
  void Put(int level, AttributeSet set, StrippedPartition partition) {
    Put(level, set,
        std::make_shared<const StrippedPartition>(std::move(partition)));
  }

  /// Π*_X, which must be present (guaranteed by level-wise construction:
  /// every subset of a live node is a live node of its level).
  const StrippedPartition& Get(AttributeSet set) const;

  struct Derived {
    PartitionHandle partition;
    bool reused = false;  // shares a parent's partition, none built
  };

  /// The derive step: Π*_X for X = left ∪ right, where `left` and
  /// `right` are X's two generating parents and every |X|-1 subset of X
  /// is cached (level-wise construction guarantees both). `determined`
  /// is a set of attributes A ∈ X for which X\A -> A is known to hold
  /// exactly (e(X\A) = e(X) observed at X or at a subset of X, lifted by
  /// Augmentation). The rules, in order:
  ///   1. determined non-empty: X\A -> A means Π*_X = Π*_{X\A}; share
  ///      Π*_{X\A} for A the lowest attribute of `determined`;
  ///   2. a superkey parent: Π*_X is empty too; share that parent's;
  ///   3. otherwise refine the cached Π*_{X\A} with the fewest elements
  ///      (ties to the lowest A) by the codes of A in `relation`.
  /// Looks everything up under one shared lock and copies one handle; the
  /// refinement (rule 3) runs outside the lock, in the caller's
  /// `scratch`, which no other call may use at the same time.
  Derived Derive(const EncodedRelation& relation, AttributeSet left,
                 AttributeSet right, AttributeSet determined,
                 RefineScratch* scratch) const;

  /// True iff Π*_X is cached.
  bool Contains(AttributeSet set) const {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return partitions_.find(set) != partitions_.end();
  }

  /// Evicts every partition of level < `level`.
  void EvictBelow(int level);

  int64_t NumCached() const {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return static_cast<int64_t>(partitions_.size());
  }

  /// Total tuples held across distinct cached partitions (memory
  /// telemetry): a partition shared by several keys counts once.
  int64_t TotalElements() const;

  /// Lifetime lookup/insert traffic (search telemetry: a Get is a
  /// partition read, a Put is a partition the run built or shared). Counted with relaxed atomics so concurrent validation scans
  /// can read partitions without synchronizing on the counters.
  int64_t gets() const { return gets_.load(std::memory_order_relaxed); }
  int64_t puts() const { return puts_.load(std::memory_order_relaxed); }

 private:
  struct Entry {
    int level;
    PartitionHandle partition;
  };
  // The handle of Π*_X, which must be present (one get). The caller holds
  // the lock.
  const PartitionHandle& Lookup(AttributeSet set) const;

  mutable std::shared_mutex mutex_;
  std::unordered_map<AttributeSet, Entry, AttributeSetHash> partitions_;
  mutable std::atomic<int64_t> gets_{0};
  std::atomic<int64_t> puts_{0};
};

}  // namespace fastod

#endif  // FASTOD_PARTITION_PARTITION_CACHE_H_
