#include "data/encode.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <memory>
#include <thread>
#include <utility>

#include "common/string_util.h"
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

/// Below this many cells a CSV load encodes and partitions on the
/// calling thread alone: starting the workers would cost more than the
/// columns save.
constexpr int64_t kParallelIngestCells = int64_t{1} << 16;

/// The private pool one CSV load encodes its columns and builds their
/// level-1 partitions on: min(hardware threads, columns) parties, the
/// caller being one of them, or none below kParallelIngestCells. Never
/// the service's pool, which runs one ParallelFor at a time and would
/// collide with concurrent uploads.
std::unique_ptr<ThreadPool> MakeIngestPool(const CsvFields& fields) {
  const int64_t columns = static_cast<int64_t>(fields.columns.size());
  const int64_t parties = std::min<int64_t>(
      std::max(1u, std::thread::hardware_concurrency()), columns);
  if (fields.num_rows * columns < kParallelIngestCells || parties < 2) {
    return nullptr;
  }
  return std::make_unique<ThreadPool>(static_cast<int>(parties - 1),
                                      "fastod-ingest");
}

uint64_t MixBits(uint64_t z) {  // splitmix64 finalizer
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Open-addressing hash set over the rows of one column, handing each
/// distinct value a dense id in first-row order. It stores rows, not
/// values: `hash(row)` and `eq(row, row)` read the column, and each id
/// keeps the first row carrying its value (4 bytes a distinct value).
/// Slots keep the low 32 hash bits beside the id: they place the row on
/// a rehash and filter probes, so a probe compares values only on a
/// likely match. The table doubles at half load; row counts fit int32,
/// so 32 bits address every slot.
template <typename Hash, typename Eq>
class Interner {
 public:
  Interner(Hash hash, Eq eq) : hash_(hash), eq_(eq), slots_(16) {}

  /// The id of row `row`'s value, assigning the next one on first sight.
  uint32_t Intern(uint32_t row) {
    const uint32_t h = static_cast<uint32_t>(hash_(row));
    const size_t mask = slots_.size() - 1;
    for (size_t s = h & mask;; s = (s + 1) & mask) {
      Slot& slot = slots_[s];
      if (slot.id == 0) {
        const uint32_t id = static_cast<uint32_t>(first_rows_.size());
        slot = Slot{h, id + 1};
        first_rows_.push_back(row);
        if (first_rows_.size() * 2 > slots_.size()) Grow();
        return id;
      }
      if (slot.hash == h && eq_(first_rows_[slot.id - 1], row)) {
        return slot.id - 1;
      }
    }
  }

  /// The first row of each id; leaves the interner empty.
  std::vector<uint32_t> TakeFirstRows() && { return std::move(first_rows_); }

 private:
  struct Slot {
    uint32_t hash = 0;
    uint32_t id = 0;  // 1-based; 0 marks an empty slot
  };

  void Grow() {
    std::vector<Slot> bigger(slots_.size() * 2);
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
  std::vector<uint32_t> first_rows_;
};

/// Hash consistent with Value::Compare equality: an integral double
/// hashes as the int it equals (so 2 and 2.0 collide, as do 0.0 and
/// -0.0), and every NaN hashes alike whatever its bit pattern.
uint64_t HashValue(const Value& value) {
  switch (value.type()) {
    case DataType::kNull:
      return MixBits(1);
    case DataType::kInt:
      return MixBits(static_cast<uint64_t>(value.AsInt()));
    case DataType::kDouble: {
      const double d = value.AsDouble();
      if (std::isnan(d)) return MixBits(2);
      if (d == std::trunc(d) && d >= -9223372036854775808.0 &&
          d < 9223372036854775808.0) {
        return MixBits(static_cast<uint64_t>(static_cast<int64_t>(d)));
      }
      return MixBits(std::bit_cast<uint64_t>(d));
    }
    case DataType::kString:
      return std::hash<std::string_view>()(value.AsString());
  }
  return 0;
}

/// Interns every row of `column` (anything indexable by row): each
/// row's id, in first-row order, and the first row of each id.
template <typename Column, typename Hash, typename Eq>
std::vector<uint32_t> InternRows(const Column& column, Hash hash, Eq eq,
                                 std::vector<uint32_t>* first_rows) {
  std::vector<uint32_t> ids(column.size());
  Interner<Hash, Eq> interner(hash, eq);
  for (size_t r = 0; r < column.size(); ++r) {
    ids[r] = interner.Intern(static_cast<uint32_t>(r));
  }
  *first_rows = std::move(interner).TakeFirstRows();
  return ids;
}

struct ColumnEncoding {
  CodeColumn codes;
  ValueDictionary dict;
};

// The keys a column's distinct values sort on. The CSV encoder parses
// each distinct field once into its column type's native key, so the
// sort compares int64s, doubles or bytes inline; FromTable's keys are
// its Values' views (one column of a Table may mix types).
int CompareKeys(int64_t a, int64_t b) { return a < b ? -1 : (a > b ? 1 : 0); }
int CompareKeys(double a, double b) { return CompareDoubles(a, b); }
int CompareKeys(std::string_view a, std::string_view b) {
  const int c = a.compare(b);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}
int CompareKeys(const ValueView& a, const ValueView& b) {
  return ValueView::Compare(a, b);
}

ValueView ViewOf(int64_t i) {
  ValueView v;
  v.type = DataType::kInt;
  v.i = i;
  return v;
}
ValueView ViewOf(double d) {
  ValueView v;
  v.type = DataType::kDouble;
  v.d = d;
  return v;
}
ValueView ViewOf(std::string_view s) {
  ValueView v;
  v.type = DataType::kString;
  v.s = s;
  return v;
}
ValueView ViewOf(const ValueView& v) { return v; }

/// One distinct value of a column: its sort key and its interned id.
template <typename Key>
struct Keyed {
  Key key;
  uint32_t id;
};

/// The shared back half of every encoder. `keyed` holds the column's d
/// interned distinct values but NULL, ids assigned in first-row order;
/// `null_id` is NULL's id (code 0), or -1 when there is none or the keys
/// order it themselves. `ids` is each row's id. Sorts the keys (ties by
/// id, so each run of equal values starts with its first-row
/// representative), turns `ids` into dense ranks in place, and builds
/// the dictionary.
template <typename Key>
ColumnEncoding RankDistinct(std::vector<Keyed<Key>> keyed, uint32_t d,
                            int64_t null_id, std::vector<uint32_t> ids) {
  std::sort(keyed.begin(), keyed.end(),
            [](const Keyed<Key>& a, const Keyed<Key>& b) {
              const int cmp = CompareKeys(a.key, b.key);
              return cmp != 0 ? cmp < 0 : a.id < b.id;
            });
  std::vector<uint32_t> code_of(d);
  ValueDictionary::Builder dict;
  dict.Reserve(static_cast<int32_t>(d));
  int32_t next_code = -1;
  if (null_id >= 0) {
    dict.Add(ValueView());
    code_of[null_id] = static_cast<uint32_t>(++next_code);
  }
  for (size_t k = 0; k < keyed.size(); ++k) {
    if (k == 0 || CompareKeys(keyed[k - 1].key, keyed[k].key) != 0) {
      ++next_code;
      dict.Add(ViewOf(keyed[k].key));
    }
    code_of[keyed[k].id] = static_cast<uint32_t>(next_code);
  }
  for (uint32_t& id : ids) id = code_of[id];
  return ColumnEncoding{CodeColumn(std::move(ids), next_code + 1),
                        dict.Build()};
}

/// The distinct fields of one CSV column but NULL (`null_id`), each
/// parsed once into its key; consumes `distinct`.
template <typename Key, typename Parse>
std::vector<Keyed<Key>> KeyDistinct(std::vector<std::string_view> distinct,
                                    int64_t null_id, Parse parse) {
  std::vector<Keyed<Key>> keyed;
  keyed.reserve(distinct.size());
  for (uint32_t id = 0; id < distinct.size(); ++id) {
    if (id != null_id) keyed.push_back(Keyed<Key>{parse(distinct[id]), id});
  }
  return keyed;
}

/// Encodes one tokenized CSV column and frees its field views: interns
/// them in first-row order, keeps one view per distinct field and frees
/// the rest, infers the type over the distinct fields (when `infer`),
/// parses each distinct field once into the type's key, and ranks.
ColumnEncoding EncodeCsvColumn(std::vector<std::string_view>* fields,
                               bool infer, DataType* type) {
  // Interning the trimmed text first means only distinct fields are
  // parsed; fields spelling one value differently ("1", "01") get
  // separate ids here and one code in RankDistinct.
  const std::vector<std::string_view>& column = *fields;
  std::vector<uint32_t> first_rows;
  std::vector<uint32_t> ids = InternRows(
      column,
      [&column](uint32_t r) { return std::hash<std::string_view>()(column[r]); },
      [&column](uint32_t a, uint32_t b) { return column[a] == column[b]; },
      &first_rows);
  std::vector<std::string_view> distinct(first_rows.size());
  for (size_t id = 0; id < distinct.size(); ++id) {
    distinct[id] = column[first_rows[id]];
  }
  std::vector<uint32_t>().swap(first_rows);
  std::vector<std::string_view>().swap(*fields);
  *type = infer ? InferColumnType(distinct) : DataType::kString;
  const uint32_t d = static_cast<uint32_t>(distinct.size());
  // The empty field is NULL whatever the type; interning leaves at most
  // one. Inference admitted a numeric type only if every other field
  // parses as it.
  const auto empty =
      std::find(distinct.begin(), distinct.end(), std::string_view());
  const int64_t null = empty == distinct.end() ? -1 : empty - distinct.begin();
  switch (*type) {
    case DataType::kInt:
      return RankDistinct(
          KeyDistinct<int64_t>(std::move(distinct), null,
                               [](std::string_view f) {
                                 return ParseInt(f).value();
                               }),
          d, null, std::move(ids));
    case DataType::kDouble:
      return RankDistinct(
          KeyDistinct<double>(std::move(distinct), null,
                              [](std::string_view f) {
                                return ParseDouble(f).value();
                              }),
          d, null, std::move(ids));
    default:
      return RankDistinct(
          KeyDistinct<std::string_view>(std::move(distinct), null,
                                        [](std::string_view f) { return f; }),
          d, null, std::move(ids));
  }
}

}  // namespace

Status CheckRelationShape(int64_t rows, int columns) {
  if (Status s = CheckWidth(columns); !s.ok()) return s;
  if (rows > kMaxRows) {
    return Status::InvalidArgument(
        "relation has " + std::to_string(rows) +
        " rows; tuple ids are 32-bit, so at most " +
        std::to_string(kMaxRows) + " rows are supported");
  }
  return Status::Ok();
}

Result<EncodedRelation> EncodedRelation::FromTable(const Table& table) {
  if (Status s = CheckRelationShape(table.NumRows(), table.NumColumns());
      !s.ok()) {
    return s;
  }
  EncodedRelation rel;
  rel.schema_ = table.schema();
  rel.num_rows_ = table.NumRows();
  rel.codes_.reserve(table.NumColumns());
  rel.dicts_.reserve(table.NumColumns());
  for (int c = 0; c < table.NumColumns(); ++c) {
    const std::vector<Value>& col = table.column(c);
    std::vector<uint32_t> first_rows;
    std::vector<uint32_t> ids = InternRows(
        col, [&col](uint32_t r) { return HashValue(col[r]); },
        [&col](uint32_t a, uint32_t b) {
          return Value::Compare(col[a], col[b]) == 0;
        },
        &first_rows);
    std::vector<Keyed<ValueView>> keyed;
    keyed.reserve(first_rows.size());
    for (uint32_t id = 0; id < first_rows.size(); ++id) {
      keyed.push_back(Keyed<ValueView>{col[first_rows[id]].view(), id});
    }
    ColumnEncoding column =
        RankDistinct(std::move(keyed), static_cast<uint32_t>(first_rows.size()),
                     -1, std::move(ids));
    rel.codes_.push_back(std::move(column.codes));
    rel.dicts_.push_back(std::move(column.dict));
  }
  return rel;
}

Result<EncodedRelation> EncodedRelation::FromCsv(CsvFields fields,
                                                 ThreadPool* pool) {
  const int columns = static_cast<int>(fields.columns.size());
  if (Status s = CheckRelationShape(fields.num_rows, columns); !s.ok()) {
    return s;
  }
  EncodedRelation rel;
  rel.num_rows_ = fields.num_rows;
  rel.codes_.resize(columns);
  rel.dicts_.resize(columns);
  std::vector<AttributeDef> defs(columns);
  auto encode = [&](int64_t c) {
    defs[c].name = std::move(fields.names[c]);
    ColumnEncoding encoded = EncodeCsvColumn(&fields.columns[c],
                                             fields.infer_types, &defs[c].type);
    rel.codes_[c] = std::move(encoded.codes);
    rel.dicts_[c] = std::move(encoded.dict);
  };
  if (pool != nullptr) {
    pool->ParallelFor(columns, encode);
  } else {
    for (int c = 0; c < columns; ++c) encode(c);
  }
  rel.schema_ = Schema(std::move(defs));
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
                                        const CsvOptions& options,
                                        std::unique_ptr<ThreadPool>* pool) {
  Result<CsvFields> fields = TokenizeCsv(text, options);
  if (!fields.ok()) return fields.status();
  std::unique_ptr<ThreadPool> ingest = MakeIngestPool(*fields);
  Result<EncodedRelation> relation =
      EncodedRelation::FromCsv(*std::move(fields), ingest.get());
  if (pool != nullptr) *pool = std::move(ingest);
  return relation;
}

Result<EncodedRelation> EncodeCsvFile(const std::string& path,
                                      const CsvOptions& options,
                                      obs::TraceRecorder* trace,
                                      std::unique_ptr<ThreadPool>* pool) {
  double start = trace != nullptr ? trace->Now() : 0.0;
  Result<std::string> text = ReadTextFile(path);
  Result<CsvFields> fields = text.ok() ? TokenizeCsv(*text, options)
                                       : Result<CsvFields>(text.status());
  if (trace != nullptr) {
    trace->RecordSpan("csv.parse", start, trace->Now() - start);
    start = trace->Now();
  }
  if (!fields.ok()) return fields.status();
  std::unique_ptr<ThreadPool> ingest = MakeIngestPool(*fields);
  Result<EncodedRelation> relation =
      EncodedRelation::FromCsv(*std::move(fields), ingest.get());
  if (trace != nullptr) {
    trace->RecordSpan("encode", start, trace->Now() - start);
  }
  if (pool != nullptr) *pool = std::move(ingest);
  return relation;
}

}  // namespace fastod
