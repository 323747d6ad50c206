#include "partition/stripped_partition.h"

#include "common/fault.h"

#include <algorithm>

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

namespace {

// `*buffer` with at least `size` elements. It never shrinks, so a
// scratch buffer is zero-filled only when the largest call grows it.
template <typename T>
T* AtLeast(std::vector<T>* buffer, int64_t size) {
  if (static_cast<int64_t>(buffer->size()) < size) buffer->resize(size);
  return buffer->data();
}

}  // namespace

StrippedPartition StrippedPartition::RefineByKeys(
    const uint32_t* keys, int64_t num_keys, RefineScratch* scratch) const {
  StrippedPartition result;
  result.num_rows_ = num_rows_;
  const int64_t n = NumElements();
  if (n == 0) return result;
  // Gather the parent's keys once, in element order: independent loads,
  // so the random reads of the key column overlap.
  uint32_t* key_of = AtLeast(&scratch->keys_, n);
  const int32_t* members = elements_.data();
  for (int64_t i = 0; i < n; ++i) {
    FASTOD_DCHECK(keys[members[i]] < num_keys);
    key_of[i] = keys[members[i]];
  }
  int32_t* slot = AtLeast(&scratch->slots_, num_keys);
  uint32_t* touched = AtLeast(&scratch->touched_, std::min(n, num_keys) + 1);
  // Staging: the result has at most n elements and n/2 classes, plus
  // one trash cell at index n that every singleton group writes to.
  int32_t* out = AtLeast(&scratch->elements_, n + 1);
  int32_t* ends = AtLeast(&scratch->ends_, n / 2 + 2);
  const int32_t trash = static_cast<int32_t>(n);
  // The result's elements so far and its classes so far. A class's
  // groups are written at or after `written`, which never passes the
  // class's own start in the parent, so the 2- and 3-member paths may
  // write all their members before knowing how many they keep.
  int32_t written = 0;
  int32_t classes = 0;
  ends[0] = 0;
  for (int32_t c = 0; c < NumClasses(); ++c) {
    const int32_t begin = offsets_[c];
    const int32_t size = offsets_[c + 1] - begin;
    const uint32_t* k = key_of + begin;
    const int32_t* m = members + begin;
    if (size == 2) {
      out[written] = m[0];
      out[written + 1] = m[1];
      const bool kept = k[0] == k[1];
      written += kept ? 2 : 0;
      ends[classes + 1] = written;
      classes += kept;
      continue;
    }
    if (size == 3) {
      // All three share a key, one pair does (01, 02 or 12), or none.
      const bool k01 = k[0] == k[1], k02 = k[0] == k[2], k12 = k[1] == k[2];
      out[written] = k12 && !k01 ? m[1] : m[0];
      out[written + 1] = k01 ? m[1] : m[2];
      out[written + 2] = m[2];
      const int32_t kept = k01 && k02 ? 3 : (k01 || k02 || k12) ? 2 : 0;
      written += kept;
      ends[classes + 1] = written;
      classes += kept != 0;
      continue;
    }
    // Count: the slot of a key counts its members in this class, and a
    // key's first touch appends it to `touched` without a branch (every
    // member writes the cell past the list, hence its one spare cell).
    int32_t distinct = 0;
    for (int32_t i = 0; i < size; ++i) {
      const uint32_t key = k[i];
      const int32_t count = slot[key];
      slot[key] = count + 1;
      touched[distinct] = key;
      distinct += count == 0;
    }
    if (distinct == 1) {  // one group: the class itself
      std::copy(m, m + size, out + written);
      written += size;
      ends[++classes] = written;
      slot[touched[0]] = 0;
      continue;
    }
    // Route: each group, in first-seen order, gets its write cursor; a
    // singleton group gets the trash cell.
    for (int32_t j = 0; j < distinct; ++j) {
      int32_t& s = slot[touched[j]];
      const int32_t count = s;
      const bool kept = count >= 2;
      s = kept ? written : trash;
      written += kept ? count : 0;
      ends[classes + 1] = written;
      classes += kept;
    }
    // Scatter in member order, so every group stays ascending.
    for (int32_t i = 0; i < size; ++i) out[slot[k[i]]++] = m[i];
    for (int32_t j = 0; j < distinct; ++j) slot[touched[j]] = 0;
  }
  // Cached partitions live for up to three levels: keep no slack.
  result.elements_.assign(out, out + written);
  result.offsets_.assign(ends, ends + classes + 1);
  return result;
}

StrippedPartition StrippedPartition::Refine(const CodeColumn& codes,
                                            RefineScratch* scratch) const {
  FASTOD_DCHECK(codes.size() == num_rows_);
  return RefineByKeys(codes.data(), codes.num_distinct(), scratch);
}

StrippedPartition StrippedPartition::Refine(const CodeColumn& codes) const {
  RefineScratch scratch;
  return Refine(codes, &scratch);
}

StrippedPartition StrippedPartition::Product(
    const StrippedPartition& other) const {
  FASTOD_DCHECK(num_rows_ == other.num_rows_);
  // Key each tuple by its class in `other`, and each of `other`'s
  // stripped singletons by a key of its own, so it drops out as a
  // singleton group.
  const int64_t classes = other.NumClasses();
  std::vector<uint32_t> keys(num_rows_);
  for (int64_t t = 0; t < num_rows_; ++t) {
    keys[t] = static_cast<uint32_t>(classes + t);
  }
  for (int32_t c = 0; c < classes; ++c) {
    for (int32_t t : other.Class(c)) keys[t] = static_cast<uint32_t>(c);
  }
  RefineScratch scratch;
  return RefineByKeys(keys.data(), classes + num_rows_, &scratch);
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
