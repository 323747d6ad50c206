#include "partition/partition_cache.h"

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
  gets_.fetch_add(1, std::memory_order_relaxed);
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = partitions_.find(set);
  FASTOD_CHECK(it != partitions_.end());
  return *it->second.partition;
}

PartitionHandle PartitionCache::Handle(AttributeSet set) const {
  gets_.fetch_add(1, std::memory_order_relaxed);
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = partitions_.find(set);
  FASTOD_CHECK(it != partitions_.end());
  return it->second.partition;
}

PartitionCache::Derived PartitionCache::Derive(AttributeSet left,
                                               AttributeSet right,
                                               AttributeSet determined) const {
  const AttributeSet set = left.Union(right);
  FASTOD_DCHECK(set.ContainsAll(determined));
  if (!determined.IsEmpty()) {
    return Derived{Handle(set.Without(determined.First())), true};
  }
  PartitionHandle left_partition = Handle(left);
  if (left_partition->IsSuperkey()) return Derived{left_partition, true};
  PartitionHandle right_partition = Handle(right);
  if (right_partition->IsSuperkey()) return Derived{right_partition, true};
  return Derived{std::make_shared<const StrippedPartition>(
                     left_partition->Product(*right_partition)),
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
