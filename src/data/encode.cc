#include "data/encode.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <memory>
#include <utility>

#include "common/string_util.h"
#include "data/interner.h"
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

/// Encodes one tokenized CSV column: infers the type over its distinct
/// fields (when `infer`), parses each once into the type's key, and
/// ranks, turning the column's ids into its codes in place.
ColumnEncoding EncodeCsvColumn(CsvColumn column, bool infer, DataType* type) {
  std::vector<std::string_view>& distinct = column.distinct;
  *type = infer ? InferColumnType(distinct) : DataType::kString;
  const uint32_t d = static_cast<uint32_t>(distinct.size());
  // The empty field is NULL whatever the type; interning leaves at most
  // one. Inference admitted a numeric type only if every other field
  // parses as it. Fields spelling one value differently ("1", "01") have
  // separate ids and get one code in RankDistinct.
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
          d, null, std::move(column.ids));
    case DataType::kDouble:
      return RankDistinct(
          KeyDistinct<double>(std::move(distinct), null,
                              [](std::string_view f) {
                                return ParseDouble(f).value();
                              }),
          d, null, std::move(column.ids));
    default:
      return RankDistinct(
          KeyDistinct<std::string_view>(std::move(distinct), null,
                                        [](std::string_view f) { return f; }),
          d, null, std::move(column.ids));
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
    auto hash = [&col](uint32_t r) { return HashValue(col[r]); };
    auto eq = [&col](uint32_t a, uint32_t b) {
      return Value::Compare(col[a], col[b]) == 0;
    };
    Interner<uint32_t, decltype(hash), decltype(eq)> interner(hash, eq);
    std::vector<uint32_t> ids(col.size());
    for (size_t r = 0; r < col.size(); ++r) {
      ids[r] = interner.Intern(static_cast<uint32_t>(r));
    }
    const std::vector<uint32_t>& first_rows = interner.keys();
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
    ColumnEncoding encoded = EncodeCsvColumn(
        std::move(fields.columns[c]), fields.infer_types, &defs[c].type);
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
  std::unique_ptr<ThreadPool> ingest = MakeCsvIngestPool(text, options);
  Result<CsvFields> fields = TokenizeCsv(text, options, ingest.get());
  if (!fields.ok()) return fields.status();
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
  // Records `name` from `start` to now, and starts the next span.
  auto span = [&](const char* name) {
    if (trace == nullptr) return;
    const double now = trace->Now();
    trace->RecordSpan(name, start, now - start);
    start = now;
  };
  Result<std::string> text = ReadTextFile(path);
  span("csv.read");
  if (!text.ok()) return text.status();
  std::unique_ptr<ThreadPool> ingest = MakeCsvIngestPool(*text, options);
  Result<CsvFields> fields = TokenizeCsv(*text, options, ingest.get());
  span("csv.tokenize");
  if (!fields.ok()) return fields.status();
  Result<EncodedRelation> relation =
      EncodedRelation::FromCsv(*std::move(fields), ingest.get());
  span("encode");
  if (pool != nullptr) *pool = std::move(ingest);
  return relation;
}

}  // namespace fastod
