// Dense interning of a column's values, shared by the CSV tokenizer
// (data/csv.cc), which interns each piece's trimmed fields as it reads
// them, and the Table encoder (data/encode.cc), which interns rows.
#ifndef FASTOD_DATA_INTERNER_H_
#define FASTOD_DATA_INTERNER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace fastod {

/// Open-addressing hash set handing each distinct key a dense id in
/// first-seen order, and keeping each id's first key. A key may stand
/// for a value it does not hold: the Table encoder interns row indices
/// whose `hash` and `eq` read the column. Slots keep the low 32 hash
/// bits beside the id: they place the key on a rehash and filter
/// probes, so a probe compares keys only on a likely match. The table
/// doubles at half load; ids are bounded by the int32 row count, so 32
/// bits address every slot.
template <typename Key, typename Hash, typename Eq = std::equal_to<Key>>
class Interner {
 public:
  explicit Interner(Hash hash = Hash(), Eq eq = Eq())
      : hash_(std::move(hash)), eq_(std::move(eq)), slots_(16) {}

  /// The id of `key`'s value, assigning the next one on first sight.
  uint32_t Intern(const Key& key) {
    return Intern(key, static_cast<uint32_t>(hash_(key)));
  }

  /// Interns keys[0, n) in order into ids[0, n). Hashes a batch of keys
  /// first, then fetches each key's slot a few keys ahead of its probe,
  /// so the cache misses of a large table overlap.
  void Intern(const Key* keys, size_t n, uint32_t* ids) {
    constexpr size_t kBatch = 64;
    constexpr size_t kAhead = 8;
    uint32_t hashes[kBatch];
    for (size_t begin = 0; begin < n; begin += kBatch) {
      const size_t m = std::min(kBatch, n - begin);
      for (size_t k = 0; k < m; ++k) {
        hashes[k] = static_cast<uint32_t>(hash_(keys[begin + k]));
      }
      for (size_t k = 0; k < m; ++k) {
        if (k + kAhead < m) {
          __builtin_prefetch(
              &slots_[hashes[k + kAhead] & (slots_.size() - 1)]);
        }
        ids[begin + k] = Intern(keys[begin + k], hashes[k]);
      }
    }
  }

  /// Room for `keys` distinct keys without regrowing.
  void Reserve(size_t keys) {
    keys_.reserve(keys);
    size_t slots = slots_.size();
    while (slots < keys * 2) slots *= 2;
    if (slots > slots_.size()) Rehash(slots);
  }

  /// The first key of each id.
  const std::vector<Key>& keys() const { return keys_; }

  /// The first key of each id; frees the table.
  std::vector<Key> TakeKeys() && {
    std::vector<Slot>().swap(slots_);
    return std::move(keys_);
  }

 private:
  struct Slot {
    uint32_t hash = 0;
    uint32_t id = 0;  // 1-based; 0 marks an empty slot
  };

  uint32_t Intern(const Key& key, uint32_t h) {
    const size_t mask = slots_.size() - 1;
    for (size_t s = h & mask;; s = (s + 1) & mask) {
      Slot& slot = slots_[s];
      if (slot.id == 0) {
        const uint32_t id = static_cast<uint32_t>(keys_.size());
        slot = Slot{h, id + 1};
        keys_.push_back(key);
        if (keys_.size() * 2 > slots_.size()) Rehash(slots_.size() * 2);
        return id;
      }
      if (slot.hash == h && eq_(keys_[slot.id - 1], key)) return slot.id - 1;
    }
  }

  void Rehash(size_t size) {
    std::vector<Slot> bigger(size);
    const size_t mask = bigger.size() - 1;
    for (const Slot& slot : slots_) {
      if (slot.id == 0) continue;
      size_t s = slot.hash & mask;
      while (bigger[s].id != 0) s = (s + 1) & mask;
      bigger[s] = slot;
    }
    slots_.swap(bigger);
  }

  Hash hash_;
  Eq eq_;
  std::vector<Slot> slots_;
  std::vector<Key> keys_;
};

}  // namespace fastod

#endif  // FASTOD_DATA_INTERNER_H_
