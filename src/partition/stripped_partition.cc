#include "partition/stripped_partition.h"

#include "common/fault.h"

#include <algorithm>
#include <numeric>
#include <type_traits>

namespace fastod {

StrippedPartition StrippedPartition::Universe(int64_t num_rows) {
  PartitionBuilder builder(num_rows);
  builder.BeginClass();
  for (int64_t t = 0; t < num_rows; ++t) {
    builder.AddTuple(static_cast<int32_t>(t));
  }
  builder.EndClass();
  return builder.Build();
}

StrippedPartition StrippedPartition::ForAttribute(const CodeColumn& codes) {
  // No coded-failure path out of a partition build: only "throw"
  // schedules apply (contained at the session worker boundary).
  (void)FASTOD_FAULT_POINT("partition.build");
  const int64_t n = codes.size();
  const uint32_t* data = codes.data();
  // Counting sort by code keeps classes in ascending value order. Only
  // codes held by two or more tuples get a class, so the partition is
  // sized exactly and each tuple goes straight to its slot, ascending.
  std::vector<int32_t> next(codes.num_distinct(), 0);
  for (int64_t t = 0; t < n; ++t) {
    FASTOD_DCHECK(data[t] < next.size());
    ++next[data[t]];
  }
  int32_t classes = 0;
  for (int32_t count : next) classes += count >= 2 ? 1 : 0;
  StrippedPartition result;
  result.num_rows_ = n;
  result.offsets_.reserve(classes + 1);
  int32_t size = 0;
  for (int32_t& slot : next) {  // count -> first slot, or -1 if stripped
    if (slot < 2) {
      slot = -1;
      continue;
    }
    const int32_t start = size;
    size += slot;
    slot = start;
    result.offsets_.push_back(size);
  }
  result.elements_.resize(size);
  for (int64_t t = 0; t < n; ++t) {
    int32_t& slot = next[data[t]];
    if (slot >= 0) result.elements_[slot++] = static_cast<int32_t>(t);
  }
  return result;
}

StrippedPartition StrippedPartition::ForAttribute(
    const std::vector<int32_t>& ranks, int32_t num_distinct) {
  return ForAttribute(CodeColumn::FromRanks(ranks, num_distinct));
}

StrippedPartition StrippedPartition::FromCodeColumns(
    const std::vector<const CodeColumn*>& columns, int64_t num_rows) {
  if (columns.empty()) return Universe(num_rows);
  // LSD radix sort over *batches* of columns: consecutive columns fuse
  // into one composite key while the product of their distinct counts
  // stays within ~the row count, so low-cardinality column sets collapse
  // into a single counting pass (the common case). Each pass is a stable
  // counting sort, last batch first, starting from ascending row order,
  // so the final order is lexicographic by code vector with row-id
  // tiebreak — classes in ascending key order, members ascending.
  const int64_t budget = std::min<int64_t>(
      std::max<int64_t>(num_rows, int64_t{1} << 16), int64_t{1} << 30);
  std::vector<int32_t> order(num_rows);
  std::vector<int32_t> next(num_rows);
  std::vector<uint32_t> fused;
  std::vector<int32_t> counts;
  bool first_pass = true;
  size_t hi = columns.size();
  while (hi > 0) {
    // Greedily extend the batch [lo, hi) while the key space fits.
    size_t lo = hi;
    int64_t k = 1;
    while (lo > 0 &&
           k * std::max<int64_t>(columns[lo - 1]->num_distinct(), 1) <=
               budget) {
      k *= std::max<int64_t>(columns[--lo]->num_distinct(), 1);
    }
    if (lo == hi) k = columns[--lo]->num_distinct();  // oversized, alone
    const uint32_t* key;
    if (hi - lo == 1) {
      key = columns[lo]->data();
    } else {
      fused.resize(num_rows);
      for (int64_t t = 0; t < num_rows; ++t) {
        uint32_t v = 0;
        for (size_t ci = lo; ci < hi; ++ci) {
          v = v * static_cast<uint32_t>(columns[ci]->num_distinct()) +
              static_cast<uint32_t>(columns[ci]->data()[t]);
        }
        fused[t] = v;
      }
      key = fused.data();
    }
    counts.assign(static_cast<size_t>(k) + 1, 0);
    for (int64_t t = 0; t < num_rows; ++t) ++counts[key[t] + 1];
    for (int64_t v = 0; v < k; ++v) counts[v + 1] += counts[v];
    if (first_pass) {
      // Identity start: scatter row ids directly, no order[] indirection.
      for (int64_t t = 0; t < num_rows; ++t) {
        next[counts[key[t]]++] = static_cast<int32_t>(t);
      }
      first_pass = false;
    } else {
      for (int64_t i = 0; i < num_rows; ++i) {
        next[counts[key[order[i]]]++] = order[i];
      }
    }
    order.swap(next);
    hi = lo;
  }
  auto same_key = [&columns](int32_t a, int32_t b) {
    for (const CodeColumn* col : columns) {
      if ((*col)[a] != (*col)[b]) return false;
    }
    return true;
  };
  PartitionBuilder builder(num_rows);
  int64_t i = 0;
  while (i < num_rows) {
    builder.BeginClass();
    builder.AddTuple(order[i]);
    int64_t j = i + 1;
    while (j < num_rows && same_key(order[i], order[j])) {
      builder.AddTuple(order[j]);
      ++j;
    }
    builder.EndClass();
    i = j;
  }
  return builder.Build();
}

template <typename Key>
StrippedPartition StrippedPartition::RefineByKeys(const Key* keys,
                                                  int32_t num_keys) const {
  // One slot per key: it counts the key's members in the current class,
  // then becomes the write cursor of the key's group (-1 for a singleton
  // group, which is stripped). Only the slots a class touched are reset,
  // so the loop is linear in the parent's elements.
  std::vector<int32_t> slot(num_keys, 0);
  std::vector<Key> touched;     // keys of the current class, first seen
  std::vector<Key> class_keys;  // keys of the current class, by member
  StrippedPartition result;
  result.num_rows_ = num_rows_;
  result.elements_.resize(elements_.size());
  int32_t written = 0;
  for (int32_t c = 0; c < NumClasses(); ++c) {
    const auto cls = Class(c);
    class_keys.resize(cls.size());
    touched.clear();
    for (size_t i = 0; i < cls.size(); ++i) {
      const Key key = keys[cls[i]];
      class_keys[i] = key;
      if constexpr (std::is_signed_v<Key>) {
        if (key < 0) continue;
      }
      if (slot[key]++ == 0) touched.push_back(key);
    }
    for (Key key : touched) {
      const int32_t count = slot[key];
      if (count < 2) {
        slot[key] = -1;
        continue;
      }
      slot[key] = written;
      written += count;
      result.offsets_.push_back(written);
    }
    // Scatter in member order, so every group stays ascending.
    for (size_t i = 0; i < cls.size(); ++i) {
      const Key key = class_keys[i];
      if constexpr (std::is_signed_v<Key>) {
        if (key < 0) continue;
      }
      if (slot[key] >= 0) result.elements_[slot[key]++] = cls[i];
    }
    for (Key key : touched) slot[key] = 0;
  }
  // Cached partitions live for up to three levels: keep no slack.
  result.elements_.resize(written);
  result.elements_.shrink_to_fit();
  result.offsets_.shrink_to_fit();
  return result;
}

StrippedPartition StrippedPartition::Refine(const CodeColumn& codes) const {
  FASTOD_DCHECK(codes.size() == num_rows_);
  return RefineByKeys(codes.data(), codes.num_distinct());
}

StrippedPartition StrippedPartition::Product(
    const StrippedPartition& other) const {
  FASTOD_DCHECK(num_rows_ == other.num_rows_);
  std::vector<int32_t> class_of;
  other.FillClassIndex(&class_of);
  return RefineByKeys(class_of.data(), other.NumClasses());
}

void StrippedPartition::FillClassIndex(std::vector<int32_t>* class_of) const {
  class_of->assign(num_rows_, -1);
  for (int32_t c = 0; c < NumClasses(); ++c) {
    for (int32_t t : Class(c)) (*class_of)[t] = c;
  }
}

bool StrippedPartition::operator==(const StrippedPartition& other) const {
  if (num_rows_ != other.num_rows_ || NumClasses() != other.NumClasses()) {
    return false;
  }
  // Classes are canonical up to ordering: compare as sorted sets of sorted
  // classes. Members are already ascending; order classes by first element.
  auto canonical = [](const StrippedPartition& p) {
    std::vector<std::vector<int32_t>> classes;
    classes.reserve(p.NumClasses());
    for (int32_t c = 0; c < p.NumClasses(); ++c) {
      auto cls = p.Class(c);
      classes.emplace_back(cls.begin(), cls.end());
    }
    std::sort(classes.begin(), classes.end());
    return classes;
  };
  return canonical(*this) == canonical(other);
}

std::string StrippedPartition::ToString() const {
  std::string out = "{";
  for (int32_t c = 0; c < NumClasses(); ++c) {
    if (c > 0) out += ",";
    out += "{";
    auto cls = Class(c);
    for (size_t i = 0; i < cls.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(cls[i]);
    }
    out += "}";
  }
  out += "}";
  return out;
}

}  // namespace fastod
