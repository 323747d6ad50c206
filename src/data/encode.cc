#include "data/encode.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <numeric>
#include <utility>

#include "od/attribute_set.h"

namespace fastod {

namespace {

Status CheckWidth(int columns) {
  if (columns > AttributeSet::kMaxAttributes) {
    return Status::InvalidArgument(
        "relation has " + std::to_string(columns) +
        " attributes; the discovery lattice supports at most " +
        std::to_string(AttributeSet::kMaxAttributes));
  }
  return Status::Ok();
}

uint64_t MixBits(uint64_t z) {  // splitmix64 finalizer
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Open-addressing hash set handing out dense ids in first-seen order.
/// Slots keep 32 hash bits beside the id, so a probe compares keys only
/// on a likely match; the table doubles at half load.
template <typename Key, typename Hash, typename Eq>
class Interner {
 public:
  explicit Interner(Hash hash = Hash(), Eq eq = Eq())
      : hash_(hash), eq_(eq), slots_(16) {}

  /// The id of `key`, assigning the next one on first sight.
  uint32_t Intern(const Key& key) {
    const uint64_t h = hash_(key);
    const uint32_t tag = static_cast<uint32_t>(h >> 32);
    const size_t mask = slots_.size() - 1;
    for (size_t s = h & mask;; s = (s + 1) & mask) {
      Slot& slot = slots_[s];
      if (slot.id == 0) {
        const uint32_t id = static_cast<uint32_t>(keys_.size());
        slot = Slot{tag, id + 1};
        keys_.push_back(key);
        hashes_.push_back(h);
        if (keys_.size() * 2 > slots_.size()) Grow();
        return id;
      }
      if (slot.tag == tag && eq_(keys_[slot.id - 1], key)) {
        return slot.id - 1;
      }
    }
  }

  /// Distinct keys, indexed by id.
  const std::vector<Key>& keys() const { return keys_; }

 private:
  struct Slot {
    uint32_t tag = 0;
    uint32_t id = 0;  // 1-based; 0 marks an empty slot
  };

  void Grow() {
    std::vector<Slot> bigger(slots_.size() * 2);
    const size_t mask = bigger.size() - 1;
    for (uint32_t id = 0; id < keys_.size(); ++id) {
      size_t s = hashes_[id] & mask;
      while (bigger[s].id != 0) s = (s + 1) & mask;
      bigger[s] = Slot{static_cast<uint32_t>(hashes_[id] >> 32), id + 1};
    }
    slots_.swap(bigger);
  }

  Hash hash_;
  Eq eq_;
  std::vector<Slot> slots_;
  std::vector<Key> keys_;
  std::vector<uint64_t> hashes_;
};

/// Hash consistent with Value::Compare equality: an integral double
/// hashes as the int it equals (so 2 and 2.0 collide, as do 0.0 and
/// -0.0), and every NaN hashes alike whatever its bit pattern.
struct ValueHash {
  uint64_t operator()(const Value* value) const {
    switch (value->type()) {
      case DataType::kNull:
        return MixBits(1);
      case DataType::kInt:
        return MixBits(static_cast<uint64_t>(value->AsInt()));
      case DataType::kDouble: {
        const double d = value->AsDouble();
        if (std::isnan(d)) return MixBits(2);
        if (d == std::trunc(d) && d >= -9223372036854775808.0 &&
            d < 9223372036854775808.0) {
          return MixBits(static_cast<uint64_t>(static_cast<int64_t>(d)));
        }
        return MixBits(std::bit_cast<uint64_t>(d));
      }
      case DataType::kString:
        return std::hash<std::string_view>()(value->AsString());
    }
    return 0;
  }
};

struct ValueEq {
  bool operator()(const Value* a, const Value* b) const {
    return Value::Compare(*a, *b) == 0;
  }
};

struct ColumnEncoding {
  CodeColumn codes;
  ValueDictionary dict;
};

/// The shared back half of every encoder. `values` are the interned
/// distinct values by id, ids assigned in first-row order; `ids` is each
/// row's id. Sorts the distinct values (ties by id, so each run of equal
/// values starts with its first-row representative), turns `ids` into
/// dense ranks in place, and builds the dictionary.
ColumnEncoding RankDistinct(const std::vector<ValueView>& values,
                            std::vector<uint32_t> ids) {
  const uint32_t d = static_cast<uint32_t>(values.size());
  std::vector<uint32_t> order(d);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&values](uint32_t a, uint32_t b) {
    int cmp = ValueView::Compare(values[a], values[b]);
    if (cmp != 0) return cmp < 0;
    return a < b;
  });
  std::vector<uint32_t> code_of(d);
  ValueDictionary::Builder dict;
  int32_t next_code = -1;
  for (uint32_t k = 0; k < d; ++k) {
    if (k == 0 ||
        ValueView::Compare(values[order[k - 1]], values[order[k]]) != 0) {
      ++next_code;
      dict.Add(values[order[k]]);
    }
    code_of[order[k]] = static_cast<uint32_t>(next_code);
  }
  for (uint32_t& id : ids) id = code_of[id];
  return ColumnEncoding{CodeColumn(std::move(ids), next_code + 1),
                        dict.Build()};
}

}  // namespace

Result<EncodedRelation> EncodedRelation::FromTable(const Table& table) {
  if (Status s = CheckWidth(table.NumColumns()); !s.ok()) return s;
  EncodedRelation rel;
  rel.schema_ = table.schema();
  rel.num_rows_ = table.NumRows();
  rel.codes_.reserve(table.NumColumns());
  rel.dicts_.reserve(table.NumColumns());
  for (int c = 0; c < table.NumColumns(); ++c) {
    const std::vector<Value>& col = table.column(c);
    Interner<const Value*, ValueHash, ValueEq> interner;
    std::vector<uint32_t> ids(col.size());
    for (size_t r = 0; r < col.size(); ++r) ids[r] = interner.Intern(&col[r]);
    std::vector<ValueView> values;
    values.reserve(interner.keys().size());
    for (const Value* value : interner.keys()) values.push_back(value->view());
    ColumnEncoding column = RankDistinct(values, std::move(ids));
    rel.codes_.push_back(std::move(column.codes));
    rel.dicts_.push_back(std::move(column.dict));
  }
  return rel;
}

Result<EncodedRelation> EncodedRelation::FromCsv(const CsvFields& fields) {
  const Schema& schema = fields.schema;
  if (Status s = CheckWidth(schema.NumAttributes()); !s.ok()) return s;
  EncodedRelation rel;
  rel.schema_ = schema;
  rel.num_rows_ = fields.num_rows;
  rel.codes_.reserve(schema.NumAttributes());
  rel.dicts_.reserve(schema.NumAttributes());
  for (int c = 0; c < schema.NumAttributes(); ++c) {
    const std::vector<std::string_view>& column = fields.columns[c];
    // Interning the trimmed text first means only distinct fields are
    // parsed; fields spelling one value differently ("1", "01") get
    // separate ids here and one code in RankDistinct.
    Interner<std::string_view, std::hash<std::string_view>, std::equal_to<>>
        interner;
    std::vector<uint32_t> ids(column.size());
    for (size_t r = 0; r < column.size(); ++r) {
      ids[r] = interner.Intern(column[r]);
    }
    std::vector<ValueView> values;
    values.reserve(interner.keys().size());
    for (std::string_view field : interner.keys()) {
      values.push_back(ParseField(field, schema.type(c)));
    }
    ColumnEncoding encoded = RankDistinct(values, std::move(ids));
    rel.codes_.push_back(std::move(encoded.codes));
    rel.dicts_.push_back(std::move(encoded.dict));
  }
  return rel;
}

EncodedRelation EncodedRelation::FromColumns(
    Schema schema, std::vector<CodeColumn> codes,
    std::vector<ValueDictionary> dicts) {
  FASTOD_CHECK(codes.size() == dicts.size());
  EncodedRelation rel;
  rel.num_rows_ = codes.empty() ? 0 : codes[0].size();
  rel.schema_ = std::move(schema);
  rel.codes_ = std::move(codes);
  rel.dicts_ = std::move(dicts);
  return rel;
}

int64_t EncodedRelation::ByteSize() const {
  int64_t bytes = 0;
  for (const CodeColumn& col : codes_) bytes += col.ByteSize();
  for (const ValueDictionary& dict : dicts_) bytes += dict.ByteSize();
  return bytes;
}

Result<EncodedRelation> EncodeCsvString(std::string_view text,
                                        const CsvOptions& options) {
  Result<CsvFields> fields = TokenizeCsv(text, options);
  if (!fields.ok()) return fields.status();
  return EncodedRelation::FromCsv(*fields);
}

Result<EncodedRelation> EncodeCsvFile(const std::string& path,
                                      const CsvOptions& options,
                                      obs::TraceRecorder* trace) {
  double start = trace != nullptr ? trace->Now() : 0.0;
  Result<std::string> text = ReadTextFile(path);
  Result<CsvFields> fields = text.ok() ? TokenizeCsv(*text, options)
                                       : Result<CsvFields>(text.status());
  if (trace != nullptr) {
    trace->RecordSpan("csv.parse", start, trace->Now() - start);
    start = trace->Now();
  }
  if (!fields.ok()) return fields.status();
  Result<EncodedRelation> relation = EncodedRelation::FromCsv(*fields);
  if (trace != nullptr) {
    trace->RecordSpan("encode", start, trace->Now() - start);
  }
  return relation;
}

}  // namespace fastod
