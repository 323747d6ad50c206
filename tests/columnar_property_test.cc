// The PR-9 acceptance oracle: the columnar dictionary-interned data
// plane must be observationally identical to the row-oriented plane it
// replaced. Three layers of evidence:
//
//   1. Golden fixtures (tests/golden_pr9_data.h) — the six engines'
//      ResultJson captured *before* the refactor, compared bit-for-bit
//      (minus wall-clock stats) against fresh runs.
//   2. Randomized properties — dictionary round-trips, code/value order
//      agreement, and LSD-radix FromCodeColumns vs the partition-product
//      fold, over seeded random tables.
//   3. The versioned-append path — merge-encoding a delta against the
//      parent's dictionaries must equal FromTable on the concatenation,
//      and discovery over the grown dataset must still match the golden.
//   4. The direct CSV encoder — FromCsv on the tokenizer's field views
//      must equal FromTable(ReadCsvString(text)) on hostile, generated
//      and option-varied inputs, and a CSV append must equal a load of
//      the concatenated text.
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/algorithm.h"
#include "api/registry.h"
#include "common/json.h"
#include "common/rng.h"
#include "data/csv.h"
#include "data/dataset_store.h"
#include "data/encode.h"
#include "data/table.h"
#include "gen/generators.h"
#include "gen/random_table.h"
#include "golden_pr9_data.h"
#include "partition/stripped_partition.h"
#include "test_util.h"

namespace fastod {
namespace {

const Table& Fixture() {
  static Table table = GenFlightLike(200, 8, 42);
  return table;
}

struct EngineSpec {
  const char* name;
  const char* golden;
  std::vector<std::pair<std::string, std::string>> options;
};

std::vector<EngineSpec> EngineSpecs() {
  return {
      {"fastod", kGoldenFastod, {}},
      {"tane", kGoldenTane, {}},
      {"order", kGoldenOrder, {{"max-level", "3"}}},
      {"brute-force", kGoldenBruteForce, {}},
      {"approximate", kGoldenApproximate, {}},
      {"conditional", kGoldenConditional, {}},
  };
}

std::unique_ptr<Algorithm> MakeEngine(const EngineSpec& spec) {
  auto algo = AlgorithmRegistry::Default().Create(spec.name);
  EXPECT_TRUE(algo.ok()) << spec.name;
  if (!algo.ok()) return nullptr;
  for (const auto& [key, value] : spec.options) {
    EXPECT_TRUE((*algo)->SetOption(key, value).ok())
        << spec.name << " --" << key << "=" << value;
  }
  return std::move(*algo);
}

JsonValue ParseOrDie(const std::string& text, const std::string& what) {
  Result<JsonValue> parsed = ParseJson(text);
  EXPECT_TRUE(parsed.ok()) << what << ": " << text.substr(0, 200);
  return parsed.ok() ? std::move(*parsed) : JsonValue();
}

// Every top-level key except "stats" (wall clock) must match exactly.
void ExpectSameModuloStats(const JsonValue& golden, const JsonValue& fresh,
                           const std::string& engine) {
  ASSERT_TRUE(golden.is_object()) << engine;
  ASSERT_TRUE(fresh.is_object()) << engine;
  ASSERT_EQ(golden.object_items().size(), fresh.object_items().size())
      << engine;
  for (const auto& [key, value] : golden.object_items()) {
    if (key == "stats") continue;
    const JsonValue* got = fresh.Find(key);
    ASSERT_NE(got, nullptr) << engine << " lost key " << key;
    EXPECT_EQ(value.Dump(), got->Dump()) << engine << " key " << key;
  }
}

TEST(ColumnarGoldenTest, SixEnginesMatchPreRefactorFixtures) {
  for (const EngineSpec& spec : EngineSpecs()) {
    SCOPED_TRACE(spec.name);
    std::unique_ptr<Algorithm> algo = MakeEngine(spec);
    ASSERT_NE(algo, nullptr);
    ASSERT_TRUE(algo->BindDataset(DatasetOf(Fixture())).ok());
    ASSERT_TRUE(algo->Execute().ok());
    JsonValue golden = ParseOrDie(spec.golden, "golden");
    JsonValue fresh = ParseOrDie(algo->ResultJson(), "fresh");
    ExpectSameModuloStats(golden, fresh, spec.name);
  }
}

// A typed random table: int, double, and string columns (single-typed
// with interspersed NULLs, so equal-comparing values render identically
// and the dictionary representative is unambiguous).
Table RandomTable(std::mt19937& rng, int64_t rows) {
  std::uniform_int_distribution<int> small(0, 9);
  std::uniform_int_distribution<int64_t> wide(-1000, 1000);
  std::uniform_real_distribution<double> real(-5.0, 5.0);
  TableBuilder builder(
      Schema::FromNames({"i_small", "i_wide", "d", "s", "mixed_null"}));
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    row.push_back(Value::Int(small(rng)));
    row.push_back(Value::Int(wide(rng)));
    row.push_back(Value::Double(real(rng) * 0.5));
    row.push_back(Value::Str("k" + std::to_string(small(rng)) +
                             std::string(small(rng), 'x')));
    row.push_back(small(rng) == 0 ? Value::Null() : Value::Int(small(rng)));
    builder.AddRowUnchecked(std::move(row));
  }
  return builder.Build();
}

TEST(ColumnarPropertyTest, DictionaryRoundTripsEveryCell) {
  std::mt19937 rng(9001);
  for (int trial = 0; trial < 8; ++trial) {
    Table table = RandomTable(rng, 64 + trial * 37);
    auto rel = EncodedRelation::FromTable(table);
    ASSERT_TRUE(rel.ok());
    for (int c = 0; c < table.NumColumns(); ++c) {
      const ValueDictionary& dict = rel->dictionary(c);
      const CodeColumn& codes = rel->codes(c);
      ASSERT_EQ(dict.size(), codes.num_distinct());
      // Codes are dense, order-preserving, and decode to the cell value.
      for (int64_t r = 0; r < table.NumRows(); ++r) {
        int32_t code = codes[r];
        ASSERT_GE(code, 0);
        ASSERT_LT(code, dict.size());
        EXPECT_EQ(dict.Compare(code, table.at(r, c)), 0)
            << "trial " << trial << " cell (" << r << "," << c << ")";
        EXPECT_EQ(dict.ToString(code), table.at(r, c).ToString());
      }
      // The interned values are strictly ascending: code order IS value
      // order, which is what lets partitions sort by codes alone.
      for (int32_t code = 1; code < dict.size(); ++code) {
        EXPECT_LT(Value::Compare(dict.At(code - 1), dict.At(code)), 0);
      }
    }
  }
}

TEST(ColumnarPropertyTest, RadixBuildMatchesPartitionProductFold) {
  std::mt19937 rng(4242);
  for (int trial = 0; trial < 8; ++trial) {
    Table table = RandomTable(rng, 96 + trial * 53);
    auto rel = EncodedRelation::FromTable(table);
    ASSERT_TRUE(rel.ok());
    // Every 2- and 3-column prefix set, both construction routes.
    for (int a = 0; a < rel->NumAttributes(); ++a) {
      for (int b = a + 1; b < rel->NumAttributes(); ++b) {
        std::vector<const CodeColumn*> columns = {&rel->codes(a),
                                                  &rel->codes(b)};
        StrippedPartition radix =
            StrippedPartition::FromCodeColumns(columns, rel->NumRows());
        StrippedPartition folded =
            StrippedPartition::ForAttribute(rel->codes(a))
                .Product(StrippedPartition::ForAttribute(rel->codes(b)));
        EXPECT_TRUE(radix == folded)
            << "trial " << trial << " attrs {" << a << "," << b << "}";
        if (b + 1 < rel->NumAttributes()) {
          columns.push_back(&rel->codes(b + 1));
          StrippedPartition radix3 =
              StrippedPartition::FromCodeColumns(columns, rel->NumRows());
          StrippedPartition folded3 = folded.Product(
              StrippedPartition::ForAttribute(rel->codes(b + 1)));
          EXPECT_TRUE(radix3 == folded3)
              << "trial " << trial << " attrs {" << a << "," << b << ","
              << b + 1 << "}";
        }
      }
    }
  }
}

// Merge-encoding appended rows against the parent's dictionaries must be
// bit-for-bit what a from-scratch encode of the concatenation produces —
// codes, dictionaries (observed through decode), and partitions alike.
TEST(ColumnarAppendTest, MergeEncodedAppendEqualsFromTable) {
  const Table& full = Fixture();
  std::vector<int64_t> tail;
  for (int64_t r = 150; r < full.NumRows(); ++r) tail.push_back(r);

  DatasetStore store;
  auto base = store.Put(DatasetOf(full.Head(150), "flight"));
  ASSERT_TRUE(base.ok());
  auto grown = store.AppendRows("flight", Encode(full.SelectRows(tail)));
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ((*grown)->version(), 2);
  EXPECT_EQ((*grown)->base_rows(), 150);
  EXPECT_EQ((*grown)->NumRows(), full.NumRows());

  auto expected = EncodedRelation::FromTable(full);
  ASSERT_TRUE(expected.ok());
  const EncodedRelation& relation = (*grown)->relation();
  ASSERT_EQ(relation.NumAttributes(), expected->NumAttributes());
  for (int a = 0; a < relation.NumAttributes(); ++a) {
    EXPECT_TRUE(relation.codes(a) == expected->codes(a)) << "attr " << a;
    for (int32_t code = 0; code < relation.codes(a).num_distinct(); ++code) {
      EXPECT_EQ(relation.dictionary(a).ToString(code),
                expected->dictionary(a).ToString(code))
          << "attr " << a << " code " << code;
    }
    EXPECT_TRUE((*grown)->singleton_partitions()[a] ==
                StrippedPartition::ForAttribute(expected->codes(a)))
        << "attr " << a;
  }

  // Discovery over the grown dataset equals the pre-refactor golden on
  // the full 200-row fixture.
  EngineSpec fastod_spec{"fastod", kGoldenFastod, {}};
  std::unique_ptr<Algorithm> algo = MakeEngine(fastod_spec);
  ASSERT_NE(algo, nullptr);
  ASSERT_TRUE(algo->BindDataset(*grown).ok());
  ASSERT_TRUE(algo->Execute().ok());
  ExpectSameModuloStats(ParseOrDie(kGoldenFastod, "golden"),
                        ParseOrDie(algo->ResultJson(), "grown"), "fastod");
}

// Same schema, codes, and dictionaries: per code the same type, the same
// value (doubles bit for bit, so -0.0 and 0.0 are told apart) and the
// same rendering, and equal dictionary byte sizes.
void ExpectSameRelation(const EncodedRelation& want,
                        const EncodedRelation& got, const std::string& what) {
  ASSERT_TRUE(want.schema() == got.schema()) << what;
  ASSERT_EQ(want.NumRows(), got.NumRows()) << what;
  for (int a = 0; a < want.NumAttributes(); ++a) {
    ASSERT_TRUE(want.codes(a) == got.codes(a)) << what << " attr " << a;
    const ValueDictionary& w = want.dictionary(a);
    const ValueDictionary& g = got.dictionary(a);
    ASSERT_EQ(w.size(), g.size()) << what << " attr " << a;
    EXPECT_EQ(w.ByteSize(), g.ByteSize()) << what << " attr " << a;
    for (int32_t code = 0; code < w.size(); ++code) {
      const Value wv = w.At(code);
      const Value gv = g.At(code);
      ASSERT_EQ(wv.type(), gv.type()) << what << " attr " << a;
      EXPECT_EQ(Value::Compare(wv, gv), 0) << what << " attr " << a;
      EXPECT_EQ(wv.ToString(), gv.ToString()) << what << " attr " << a;
      if (wv.type() == DataType::kDouble) {
        EXPECT_EQ(std::bit_cast<uint64_t>(wv.AsDouble()),
                  std::bit_cast<uint64_t>(gv.AsDouble()))
            << what << " attr " << a << " code " << code;
      }
    }
  }
}

// The direct route (tokenizer views -> FromCsv) against the Table route
// (ReadCsvString -> FromTable): the same StatusCode on failure, the same
// relation otherwise.
void ExpectDirectMatchesTablePath(const std::string& text,
                                  const CsvOptions& options) {
  const std::string what = "input \"" + text + "\"";
  Result<EncodedRelation> direct = EncodeCsvString(text, options);
  Result<Table> table = ReadCsvString(text, options);
  Result<EncodedRelation> via_table =
      table.ok() ? EncodedRelation::FromTable(*table)
                 : Result<EncodedRelation>(table.status());
  ASSERT_EQ(direct.ok(), via_table.ok()) << what;
  if (!direct.ok()) {
    EXPECT_EQ(direct.status().code(), via_table.status().code()) << what;
    return;
  }
  ExpectSameRelation(*via_table, *direct, what);
}

// delimiter x has_header x infer_types x max_rows.
std::vector<CsvOptions> OptionMatrix(char delimiter) {
  std::vector<CsvOptions> matrix;
  for (bool header : {true, false}) {
    for (bool infer : {true, false}) {
      for (int64_t max_rows : {int64_t{-1}, int64_t{0}, int64_t{1},
                               int64_t{5}}) {
        CsvOptions options;
        options.delimiter = delimiter;
        options.has_header = header;
        options.infer_types = infer;
        options.max_rows = max_rows;
        matrix.push_back(options);
      }
    }
  }
  return matrix;
}

// The CsvFuzzTest alphabet and seeds (tests/csv_test.cc): quotes, \r,
// blank lines and ragged rows, under every option combination.
TEST(DirectCsvEncodingTest, FuzzAlphabetMatchesTablePath) {
  const char alphabet[] = "ab,\"\n\r\t;0123456789.\\x";
  for (uint64_t seed : {1001, 2002, 3003, 4004}) {
    Rng rng(seed);
    for (int trial = 0; trial < 200; ++trial) {
      std::string input;
      int64_t len = rng.Uniform(120);
      for (int64_t i = 0; i < len; ++i) {
        input += alphabet[rng.Uniform(sizeof(alphabet) - 1)];
      }
      for (char delimiter : {',', ';'}) {
        for (const CsvOptions& options : OptionMatrix(delimiter)) {
          ExpectDirectMatchesTablePath(input, options);
        }
      }
    }
  }
}

TEST(DirectCsvEncodingTest, WrittenRandomTablesMatchTablePath) {
  Rng rng(1234);
  for (int trial = 0; trial < 20; ++trial) {
    Table t = GenRandomTable(1 + rng.Uniform(30),
                             1 + static_cast<int>(rng.Uniform(6)),
                             1 + rng.Uniform(8), rng.Next64());
    for (char delimiter : {',', ';', '\t'}) {
      const std::string text = WriteCsvString(t, delimiter);
      for (const CsvOptions& options : OptionMatrix(delimiter)) {
        ExpectDirectMatchesTablePath(text, options);
      }
    }
  }
  // Typed columns: ints, doubles, strings, and NULLs.
  std::mt19937 typed(77);
  for (int trial = 0; trial < 6; ++trial) {
    const std::string text = WriteCsvString(RandomTable(typed, 40 + trial));
    for (const CsvOptions& options : OptionMatrix(',')) {
      ExpectDirectMatchesTablePath(text, options);
    }
  }
}

// Spellings of one value intern to separate ids but must share a code,
// represented by the first row's spelling — and NaN is one value, last
// among the numbers.
TEST(DirectCsvEncodingTest, SpellingsOfOneValueShareACode) {
  const std::string text =
      "i,d,s\n"
      "01,-0,b\n"
      "1,0,a\n"
      "+1,nan,\" b\"\n"
      "-3,-nan,b\n"
      ",1e3,\n"
      "7,1000,a\n";
  ExpectDirectMatchesTablePath(text, CsvOptions());
  Result<EncodedRelation> rel = EncodeCsvString(text);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->schema().type(0), DataType::kInt);
  EXPECT_EQ(rel->schema().type(1), DataType::kDouble);
  // i: NULL < -3 < 1 (three spellings) < 7.
  EXPECT_EQ(rel->NumDistinct(0), 4);
  EXPECT_EQ(rel->rank(0, 0), rel->rank(1, 0));
  EXPECT_EQ(rel->rank(0, 0), rel->rank(2, 0));
  // d: -0 and 0 are one value whose representative is the first row's
  // -0; 1e3 and 1000 are one value; both NaNs form the last code.
  EXPECT_EQ(rel->NumDistinct(1), 3);
  EXPECT_EQ(rel->dictionary(1).ToString(0), "-0");
  EXPECT_EQ(rel->rank(2, 1), rel->rank(3, 1));
  EXPECT_EQ(rel->rank(2, 1), 2);
  EXPECT_TRUE(std::isnan(rel->dictionary(1).At(2).AsDouble()));
  // s: fields are trimmed, so " b" is b.
  EXPECT_EQ(rel->rank(0, 2), rel->rank(2, 2));
}

// Appending a headerless CSV block onto a loaded prefix equals loading
// the concatenated CSV at once (columns whose inferred type is the same
// in the prefix, the block, and the whole).
TEST(DirectCsvEncodingTest, AppendCsvEqualsPutOfConcatenation) {
  const std::string full = WriteCsvString(GenFlightLike(300, 8, 7));
  CsvOptions rows_only;
  rows_only.has_header = false;
  for (int64_t split : {1, 150, 299}) {
    SCOPED_TRACE(split);
    // The header line plus `split` data lines, then the rest.
    size_t cut = 0;
    for (int64_t line = 0; line <= split; ++line) {
      cut = full.find('\n', cut) + 1;
    }
    DatasetStore store;
    ASSERT_TRUE(store.PutCsvString("whole", full).ok());
    ASSERT_TRUE(store.PutCsvString("grown", full.substr(0, cut)).ok());
    auto grown = store.AppendCsvString("grown", full.substr(cut), rows_only);
    ASSERT_TRUE(grown.ok()) << grown.status().ToString();
    auto whole = store.Get("whole");
    ASSERT_TRUE(whole.ok());
    ExpectSameRelation((*whole)->relation(), (*grown)->relation(), "append");
    for (int a = 0; a < (*grown)->NumAttributes(); ++a) {
      EXPECT_TRUE((*grown)->singleton_partitions()[a] ==
                  (*whole)->singleton_partitions()[a]);
    }
  }
}

// 20k rows x 8 typed columns (160k cells) is above the parallel ingest
// threshold, so on a machine with two or more hardware threads the
// columns are encoded and partitioned on the load's private pool; every
// other input here is encoded serially. The columns
// put ties on every key type: spellings of one int, and -0 and NaN
// first (rows 0 and 1) with unsigned spellings of the same values
// after, so a representative other than the first row's shows up as a
// dictionary bit difference.
TEST(DirectCsvEncodingTest, AboveParallelThresholdMatchesTablePath) {
  const char* ints[] = {"-9223372036854775808", "9223372036854775807",
                        "-5",  "01", "+1", "1", "0", "-0", "", "42"};
  const char* doubles[] = {"-0",  "0",   "0.0", "nan", "-nan", "NaN",
                           "inf", "-inf", "2.5", "-1e300", "",
                           "9223372036854775808"};
  const char* quoted[] = {"\"a,b\"", "\"x\"\"y\"", "\" pad \"", "\"\"",
                          "\"line\nbreak\"", "plain"};
  Rng rng(2024);
  std::string text = "i,wide,empty,d,q,word,mixed,sparse\n";
  for (int64_t r = 0; r < 20000; ++r) {
    text += ints[rng.Uniform(10)];
    text += ',';
    // Mostly distinct ints, so ranks run into the thousands.
    text += std::to_string(static_cast<int64_t>(rng.Uniform(40000)) - 20000);
    text += ",,";
    text += r == 0 ? "-0" : (r == 1 ? "-nan" : doubles[rng.Uniform(12)]);
    text += ',';
    text += quoted[rng.Uniform(6)];
    text += ",w";
    text += std::to_string(rng.Uniform(300));
    text += ',';
    // Ints and doubles in one column: it is a double column.
    text += rng.Uniform(2) == 0 ? std::to_string(rng.Uniform(50))
                                : std::to_string(rng.Uniform(50)) + ".5";
    text += ',';
    if (rng.Uniform(4) != 0) text += std::to_string(rng.Uniform(3));
    text += '\n';
  }

  Result<EncodedRelation> direct = EncodeCsvString(text);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  Result<Table> table = ReadCsvString(text);
  ASSERT_TRUE(table.ok());
  Result<EncodedRelation> via_table = EncodedRelation::FromTable(*table);
  ASSERT_TRUE(via_table.ok());
  ExpectSameRelation(*via_table, *direct, "20k x 8");
  const std::vector<DataType> types = {
      DataType::kInt,    DataType::kInt,    DataType::kString,
      DataType::kDouble, DataType::kString, DataType::kString,
      DataType::kDouble, DataType::kInt};
  for (int a = 0; a < 8; ++a) {
    EXPECT_EQ(direct->schema().type(a), types[a]) << "attr " << a;
  }
  EXPECT_EQ(direct->NumDistinct(2), 1);  // all NULL

  auto loaded = LoadedDataset::LoadCsv("big", text, CsvOptions(), "inline");
  ASSERT_TRUE(loaded.ok());
  ExpectSameRelation(*via_table, (*loaded)->relation(), "20k x 8 load");
  for (int a = 0; a < 8; ++a) {
    EXPECT_TRUE((*loaded)->singleton_partitions()[a] ==
                StrippedPartition::ForAttribute(via_table->codes(a)))
        << "attr " << a;
  }
}

TEST(DirectCsvEncodingTest, LoadedDatasetMatchesBuildOfReadTable) {
  const std::string text = WriteCsvString(Fixture());
  auto direct = LoadedDataset::LoadCsv("direct", text, CsvOptions(), "inline");
  ASSERT_TRUE(direct.ok());
  auto table = ReadCsvString(text);
  ASSERT_TRUE(table.ok());
  auto built = DatasetOf(*table, "built");
  ExpectSameRelation(built->relation(), (*direct)->relation(), "load");
  EXPECT_EQ(built->ApproxBytes(), (*direct)->ApproxBytes());
}

}  // namespace
}  // namespace fastod
