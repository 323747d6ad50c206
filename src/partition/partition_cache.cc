#include "partition/partition_cache.h"

#include "data/encode.h"

#include <mutex>
#include <unordered_set>
#include <utility>

namespace fastod {

void PartitionCache::Put(int level, AttributeSet set,
                         PartitionHandle partition) {
  FASTOD_DCHECK(partition != nullptr);
  puts_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::shared_mutex> lock(mutex_);
  partitions_[set] = Entry{level, std::move(partition)};
}

const StrippedPartition& PartitionCache::Get(AttributeSet set) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return *Lookup(set);
}

const PartitionHandle& PartitionCache::Lookup(AttributeSet set) const {
  gets_.fetch_add(1, std::memory_order_relaxed);
  auto it = partitions_.find(set);
  FASTOD_CHECK(it != partitions_.end());
  return it->second.partition;
}

PartitionCache::Derived PartitionCache::Derive(const EncodedRelation& relation,
                                               AttributeSet left,
                                               AttributeSet right,
                                               AttributeSet determined,
                                               RefineScratch* scratch) const {
  const AttributeSet set = left.Union(right);
  FASTOD_DCHECK(set.ContainsAll(determined));
  std::shared_lock<std::shared_mutex> lock(mutex_);
  if (!determined.IsEmpty()) {
    return Derived{Lookup(set.Without(determined.First())), true};
  }
  const PartitionHandle& left_partition = Lookup(left);
  if (left_partition->IsSuperkey()) return Derived{left_partition, true};
  const PartitionHandle& right_partition = Lookup(right);
  if (right_partition->IsSuperkey()) return Derived{right_partition, true};
  // Refinement costs one pass over the parent's elements, so start from
  // the smallest l-subset, which need not be a generating parent.
  const PartitionHandle* smallest = nullptr;
  int refine_by = -1;
  for (int a = set.First(); a >= 0; a = set.Next(a)) {
    const AttributeSet subset = set.Without(a);
    const PartitionHandle& candidate = subset == left    ? left_partition
                                       : subset == right ? right_partition
                                                         : Lookup(subset);
    if (smallest == nullptr ||
        candidate->NumElements() < (*smallest)->NumElements()) {
      smallest = &candidate;
      refine_by = a;
    }
  }
  const PartitionHandle parent = *smallest;
  lock.unlock();
  return Derived{std::make_shared<const StrippedPartition>(
                     parent->Refine(relation.codes(refine_by), scratch)),
                 false};
}

void PartitionCache::EvictBelow(int level) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  for (auto it = partitions_.begin(); it != partitions_.end();) {
    if (it->second.level < level) {
      it = partitions_.erase(it);
    } else {
      ++it;
    }
  }
}

int64_t PartitionCache::TotalElements() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::unordered_set<const StrippedPartition*> seen;
  int64_t total = 0;
  for (const auto& [set, entry] : partitions_) {
    if (seen.insert(entry.partition.get()).second) {
      total += entry.partition->NumElements();
    }
  }
  return total;
}

}  // namespace fastod
