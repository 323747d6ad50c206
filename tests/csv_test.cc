#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/csv.h"
#include "data/encode.h"
#include "gen/random_table.h"

namespace fastod {
namespace {

TEST(CsvReadTest, BasicHeaderAndTypes) {
  auto t = ReadCsvString("id,name,score\n1,alice,3.5\n2,bob,4\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->NumRows(), 2);
  EXPECT_EQ(t->schema().name(0), "id");
  EXPECT_EQ(t->schema().type(0), DataType::kInt);
  EXPECT_EQ(t->schema().type(1), DataType::kString);
  EXPECT_EQ(t->schema().type(2), DataType::kDouble);
  EXPECT_EQ(t->at(0, 1).AsString(), "alice");
  EXPECT_DOUBLE_EQ(t->at(1, 2).AsDouble(), 4.0);
}

TEST(CsvReadTest, NoHeaderGeneratesColumnNames) {
  CsvOptions opt;
  opt.has_header = false;
  auto t = ReadCsvString("1,x\n2,y\n", opt);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().name(0), "col0");
  EXPECT_EQ(t->schema().name(1), "col1");
  EXPECT_EQ(t->NumRows(), 2);
}

TEST(CsvReadTest, QuotedFieldsWithDelimitersAndEscapes) {
  auto t = ReadCsvString("a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->at(0, 0).AsString(), "x,y");
  EXPECT_EQ(t->at(0, 1).AsString(), "he said \"hi\"");
}

TEST(CsvReadTest, EmptyFieldsBecomeNull) {
  auto t = ReadCsvString("a,b\n1,\n,2\n");
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->at(0, 1).is_null());
  EXPECT_TRUE(t->at(1, 0).is_null());
  EXPECT_EQ(t->at(1, 1).AsInt(), 2);
  // Type inference ignores NULLs: both columns stay int.
  EXPECT_EQ(t->schema().type(0), DataType::kInt);
}

TEST(CsvReadTest, MixedColumnFallsBackToString) {
  auto t = ReadCsvString("a\n1\nx\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().type(0), DataType::kString);
  EXPECT_EQ(t->at(0, 0).AsString(), "1");
}

TEST(CsvReadTest, IntThenDecimalBecomesDouble) {
  auto t = ReadCsvString("a\n1\n2.5\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().type(0), DataType::kDouble);
}

TEST(CsvReadTest, TypeInferenceCanBeDisabled) {
  CsvOptions opt;
  opt.infer_types = false;
  auto t = ReadCsvString("a\n1\n2\n", opt);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().type(0), DataType::kString);
}

TEST(CsvReadTest, MaxRowsLimitsData) {
  CsvOptions opt;
  opt.max_rows = 1;
  auto t = ReadCsvString("a\n1\n2\n3\n", opt);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->NumRows(), 1);
}

TEST(CsvReadTest, CrLfLineEndings) {
  auto t = ReadCsvString("a,b\r\n1,2\r\n3,4\r\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->NumRows(), 2);
  EXPECT_EQ(t->at(1, 1).AsInt(), 4);
}

TEST(CsvReadTest, MissingFinalNewlineStillParses) {
  auto t = ReadCsvString("a\n1\n2");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->NumRows(), 2);
}

TEST(CsvReadTest, RaggedRowsRejected) {
  auto t = ReadCsvString("a,b\n1\n");
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvReadTest, UnterminatedQuoteRejected) {
  auto t = ReadCsvString("a\n\"oops\n");
  EXPECT_FALSE(t.ok());
}

TEST(CsvReadTest, EmptyInputRejected) {
  EXPECT_FALSE(ReadCsvString("").ok());
}

// The tokenizer's grammar on the cases that force a field out of a plain
// text slice: a quote opens a quoted section only at the start of a
// field, text after a closing quote is appended, "" is a literal quote,
// a stray \r is dropped, and lines without content are skipped.
TEST(CsvReadTest, QuoteAndCarriageReturnGrammar) {
  CsvOptions opt;
  opt.has_header = false;
  auto t = ReadCsvString(
      "\"ab\"cd,x\"y\"\n"
      "\"\",\"p\"\"q\"\n"
      "\n\r\n"
      "a\rb,\"line\nbreak\"\r\n",
      opt);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->NumRows(), 3);
  EXPECT_EQ(t->at(0, 0).AsString(), "abcd");
  EXPECT_EQ(t->at(0, 1).AsString(), "x\"y\"");
  EXPECT_TRUE(t->at(1, 0).is_null());  // "" is an empty field
  EXPECT_EQ(t->at(1, 1).AsString(), "p\"q");
  EXPECT_EQ(t->at(2, 0).AsString(), "ab");
  EXPECT_EQ(t->at(2, 1).AsString(), "line\nbreak");
}

TEST(CsvReadTest, TokenizerViewsAreTrimmedAndColumnMajor) {
  const std::string text = "a , b\n 1,\" x \"\n2 ,y\n3,z\n";
  CsvOptions opt;
  opt.max_rows = 2;
  auto fields = TokenizeCsv(text, opt);
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(fields->names, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(InferColumnType(fields->columns[0].distinct), DataType::kInt);
  EXPECT_EQ(fields->num_rows, 2);
  ASSERT_EQ(fields->columns.size(), 2u);
  EXPECT_EQ(fields->columns[0].distinct,
            (std::vector<std::string_view>{"1", "2"}));
  EXPECT_EQ(fields->columns[0].ids, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(fields->columns[1].distinct,
            (std::vector<std::string_view>{"x", "y"}));
  EXPECT_EQ(fields->columns[1].ids, (std::vector<uint32_t>{0, 1}));
}

TEST(CsvReadTest, ErrorsCoverTheWholeTextInOrder) {
  CsvOptions opt;
  opt.max_rows = 1;
  // A ragged record past max_rows still fails the read...
  auto ragged = ReadCsvString("a,b\n1,2\n3\n", opt);
  ASSERT_FALSE(ragged.ok());
  EXPECT_NE(ragged.status().message().find("found a record with 1"),
            std::string::npos);
  // ...and an unterminated quote anywhere wins over raggedness.
  auto quote = ReadCsvString("a,b\n1\n\"open\n", opt);
  ASSERT_FALSE(quote.ok());
  EXPECT_NE(quote.status().message().find("unterminated"), std::string::npos);
}

TEST(CsvReadTest, CustomDelimiter) {
  CsvOptions opt;
  opt.delimiter = ';';
  auto t = ReadCsvString("a;b\n1;2\n", opt);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->at(0, 1).AsInt(), 2);
}

TEST(CsvWriteTest, RoundTripPreservesContent) {
  auto original = ReadCsvString("id,name\n1,\"a,b\"\n2,plain\n");
  ASSERT_TRUE(original.ok());
  std::string written = WriteCsvString(*original);
  auto reread = ReadCsvString(written);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread->NumRows(), original->NumRows());
  EXPECT_EQ(reread->at(0, 1).AsString(), "a,b");
  EXPECT_EQ(reread->at(1, 1).AsString(), "plain");
}

TEST(CsvWriteTest, NullsWriteAsEmptyFields) {
  auto t = ReadCsvString("a,b\n,1\n");
  ASSERT_TRUE(t.ok());
  std::string written = WriteCsvString(*t);
  EXPECT_NE(written.find("\n,1\n"), std::string::npos);
}

TEST(CsvFileTest, WriteAndReadBack) {
  auto t = ReadCsvString("x,y\n1,2\n3,4\n");
  ASSERT_TRUE(t.ok());
  std::string path = ::testing::TempDir() + "/fastod_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(*t, path).ok());
  auto back = ReadCsvFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->NumRows(), 2);
  EXPECT_EQ(back->at(1, 0).AsInt(), 3);
  std::remove(path.c_str());
}

TEST(CsvFileTest, MissingFileIsIoError) {
  auto t = ReadCsvFile("/nonexistent/path/nope.csv");
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kIoError);
}

// Robustness sweep: the parser must never crash or hang on arbitrary
// byte soup — it returns either a table or a clean error Status.
class CsvFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvFuzzTest, ArbitraryBytesNeverCrash) {
  Rng rng(GetParam());
  const char alphabet[] = "ab,\"\n\r\t;0123456789.\\x";
  for (int trial = 0; trial < 200; ++trial) {
    std::string input;
    int64_t len = rng.Uniform(120);
    for (int64_t i = 0; i < len; ++i) {
      input += alphabet[rng.Uniform(sizeof(alphabet) - 1)];
    }
    auto t = ReadCsvString(input);
    if (t.ok()) {
      // Anything parsed must be structurally sound and re-serializable.
      EXPECT_GE(t->NumColumns(), 1);
      std::string out = WriteCsvString(*t);
      auto back = ReadCsvString(out);
      ASSERT_TRUE(back.ok()) << "round-trip failed for: " << input;
      EXPECT_EQ(back->NumRows(), t->NumRows());
    } else {
      EXPECT_FALSE(t.status().message().empty());
    }
  }
}

TEST_P(CsvFuzzTest, RandomTablesRoundTripLosslessly) {
  Rng rng(GetParam() + 77);
  for (int trial = 0; trial < 20; ++trial) {
    Table t = GenRandomTable(1 + rng.Uniform(30),
                             1 + static_cast<int>(rng.Uniform(6)),
                             1 + rng.Uniform(8), rng.Next64());
    auto back = ReadCsvString(WriteCsvString(t));
    ASSERT_TRUE(back.ok());
    ASSERT_EQ(back->NumRows(), t.NumRows());
    ASSERT_EQ(back->NumColumns(), t.NumColumns());
    for (int64_t r = 0; r < t.NumRows(); ++r) {
      for (int c = 0; c < t.NumColumns(); ++c) {
        EXPECT_EQ(Value::Compare(back->at(r, c), t.at(r, c)), 0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvFuzzTest,
                         ::testing::Values(1001, 2002, 3003, 4004));

// A tokenize in comparable form: its error code and message, or the
// names, the row count and, per column, its ids, its distinct fields and
// every row's field decoded through them.
std::string Describe(Result<CsvFields> fields) {
  std::string out;
  if (!fields.ok()) {
    out += "error ";
    out += std::to_string(static_cast<int>(fields.status().code()));
    out += ": ";
    out += fields.status().message();
    return out;
  }
  out += std::to_string(fields->num_rows);
  out += " rows;";
  for (const std::string& name : fields->names) {
    out += " <";
    out += name;
    out += '>';
  }
  for (const CsvColumn& column : fields->columns) {
    out += "\nids " + std::to_string(column.ids.size()) + ':';
    for (uint32_t id : column.ids) out += ' ' + std::to_string(id);
    out += "\ndistinct " + std::to_string(column.distinct.size()) + ':';
    for (std::string_view field : column.distinct) {
      out += " <";
      out += field;
      out += '>';
    }
    out += "\nfields:";
    for (uint32_t id : column.ids) {
      out += " <";
      out += id < column.distinct.size() ? column.distinct[id] : "?";
      out += '>';
    }
  }
  return out;
}

// `rows` records of four edge-case columns: `id`, every field distinct
// and out of order (like flight_id); `spelled`, the ints 1 and 2 spelled
// several ways (quoted, padded, signed, zero-led), with NULLs; `nulls`,
// only NULLs, bare or quoted; `esc`, a value spelled escaped ("a""b"),
// which copies it into the piece's arena, and literally.
std::string EdgeColumns(int rows) {
  const char* spellings[] = {"1",   "01", " 1 ", "\"1\"", "+1",
                             "\" 01\"", "",   "2",   "02"};
  const char* escaped[] = {"\"a\"\"b\"", "\"a\"\"c\"", " a\"b"};
  std::string text = "id,spelled,nulls,esc\n";
  for (int r = 0; r < rows; ++r) {
    text += std::to_string(static_cast<int64_t>(r) * 7919 % rows) + ',';
    text += spellings[r % 9];
    text += r % 2 == 0 ? ",," : ",\"\",";
    text += escaped[r % 3];
    text += '\n';
  }
  return text;
}

// Texts whose pieces meet every case the speculative split must undo or
// keep: quoted line breaks and "" at and across the cuts, CRLF, blank
// lines, literal quotes in mid-field, a missing final newline, a ragged
// record early with an unterminated quote at the end, a quoted field
// across several cuts, and the edge-case columns.
std::vector<std::string> ChunkCorpusSeeds() {
  std::string quoted = "id,note,k\n";
  std::string crlf = "a,b\r\n";
  std::string blank = "\n\na,b\n";
  std::string literal = "a,b\n";
  std::string ragged = "a,b\n1\n";
  for (int r = 0; r < 30; ++r) {
    const std::string n = std::to_string(r);
    quoted += n + ",\"x\n\"\"" + n + "\"\"\n\"," + std::to_string(r % 4) + "\n";
    crlf += n + ",\"c\r\nd\"\r\n";
    blank += n + "," + n + (r % 3 == 0 ? "\n\n\n" : "\n");
    literal += "a\"" + n + ",\"q\"" + n + "\n";
    ragged += n + ",\"" + n + "\"\n";
  }
  std::string unterminated_tail = quoted;
  unterminated_tail.pop_back();
  std::string spanning = "a,b\n0,x\n1,\"";
  for (int line = 0; line < 40; ++line) {
    spanning += "\"\"" + std::to_string(line) + "\n";
  }
  spanning += "\"\n";
  for (int r = 2; r < 20; ++r) spanning += std::to_string(r) + ",y\n";
  return {quoted,  crlf, blank, literal, ragged + "9,\"open\n",
          unterminated_tail, quoted + "7,\"last\"\",1", spanning,
          EdgeColumns(61)};
}

// One to four random edits (insert a CSV-significant byte, delete a
// byte, copy a slice elsewhere).
std::string Mutate(std::string text, Rng* rng) {
  const char alphabet[] = ",\"\n\r a1";
  for (int64_t edits = 1 + rng->Uniform(4); edits > 0; --edits) {
    const size_t at = static_cast<size_t>(rng->Uniform(
        static_cast<int64_t>(text.size()) + 1));
    switch (rng->Uniform(3)) {
      case 0:
        text.insert(at, 1, alphabet[rng->Uniform(sizeof(alphabet) - 1)]);
        break;
      case 1:
        if (at < text.size()) text.erase(at, 1);
        break;
      default: {
        const size_t from = static_cast<size_t>(
            rng->Uniform(static_cast<int64_t>(text.size()) + 1));
        text.insert(at, text.substr(from, rng->Uniform(12)));
        break;
      }
    }
  }
  return text;
}

// Tokenizing in pieces on 2-8 parties gives what one piece gives, field
// for field and error for error, on a fixed-seed mutation corpus.
TEST(CsvChunkTest, PiecesMatchOnePieceOnAMutationCorpus) {
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (int workers = 1; workers <= 7; ++workers) {
    pools.push_back(std::make_unique<ThreadPool>(workers, "csv-test"));
  }
  CsvOptions no_header;
  no_header.has_header = false;
  CsvOptions few_rows;
  few_rows.max_rows = 3;
  const std::vector<CsvOptions> variants = {CsvOptions(), no_header,
                                            few_rows};
  Rng rng(20261019);
  int errors = 0;
  int texts = 0;
  for (const std::string& seed : ChunkCorpusSeeds()) {
    for (int mutant = 0; mutant < 40; ++mutant) {
      const std::string text = mutant == 0 ? seed : Mutate(seed, &rng);
      ++texts;
      for (const CsvOptions& options : variants) {
        const std::string expected = Describe(TokenizeCsv(text, options));
        errors += expected.rfind("error", 0) == 0;
        for (const auto& pool : pools) {
          ASSERT_EQ(Describe(TokenizeCsv(text, options, pool.get())),
                    expected)
              << "parties " << pool->num_threads() + 1 << ", has_header "
              << options.has_header << ", max_rows " << options.max_rows
              << ", text:\n" << text;
        }
      }
    }
  }
  // The corpus reaches both outcomes.
  EXPECT_GT(errors, 0);
  EXPECT_LT(errors, texts * static_cast<int>(variants.size()));
}

// The seeds' errors come in the serial order over the whole text.
TEST(CsvChunkTest, SeedErrorsKeepTheSerialOrder) {
  ThreadPool pool(3, "csv-test");
  const std::vector<std::string> seeds = ChunkCorpusSeeds();
  // A ragged record in the first piece loses to an unterminated quote in
  // the last.
  auto unterminated = TokenizeCsv(seeds[4], CsvOptions(), &pool);
  ASSERT_FALSE(unterminated.ok());
  EXPECT_EQ(unterminated.status().message(), "unterminated quoted CSV field");
  auto ragged = TokenizeCsv(seeds[4].substr(0, seeds[4].size() - 8),
                            CsvOptions(), &pool);
  ASSERT_FALSE(ragged.ok());
  EXPECT_EQ(ragged.status().message(),
            "ragged CSV: expected 2 fields, found a record with 1");
  auto quoted = TokenizeCsv(seeds[0], CsvOptions(), &pool);
  ASSERT_TRUE(quoted.ok()) << quoted.status().ToString();
  EXPECT_EQ(quoted->num_rows, 30);
}

// An encoding in comparable form, bit for bit: its error, or per column
// the name, the type, every row's code, and the dictionary's entries
// (tag and int, double bits or bytes) and byte size.
std::string DescribeEncoding(const Result<EncodedRelation>& rel) {
  if (!rel.ok()) {
    return "error " + std::to_string(static_cast<int>(rel.status().code())) +
           ": " + rel.status().message();
  }
  std::string out = std::to_string(rel->NumRows()) + " rows";
  for (int a = 0; a < rel->NumAttributes(); ++a) {
    out += "\n<" + rel->schema().name(a) + "> type " +
           std::to_string(static_cast<int>(rel->schema().type(a))) +
           " codes:";
    for (int64_t r = 0; r < rel->NumRows(); ++r) {
      out += ' ' + std::to_string(rel->rank(r, a));
    }
    const ValueDictionary& dict = rel->dictionary(a);
    out += "\ndictionary " + std::to_string(dict.ByteSize()) + " bytes:";
    for (int32_t code = 0; code < dict.size(); ++code) {
      const ValueView v = dict.View(code);
      out += ' ' + std::to_string(static_cast<int>(v.type)) + '=';
      if (v.type == DataType::kInt) out += std::to_string(v.i);
      if (v.type == DataType::kDouble) {
        out += std::to_string(std::bit_cast<uint64_t>(v.d));
      }
      if (v.type == DataType::kString) out += '<' + std::string(v.s) + '>';
    }
  }
  return out;
}

// The serial EncodeCsvString and the pooled path (pieces tokenized and
// columns encoded on 2-8 parties) give bit-identical codes, dictionaries
// and types on every corpus text; and on an edge-case text above the
// parallel ingest threshold, where EncodeCsvString takes the pooled path
// itself, the same as a serial tokenize and encode.
TEST(CsvChunkTest, EncodingsMatchTheSerialPath) {
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (int workers = 1; workers <= 7; ++workers) {
    pools.push_back(std::make_unique<ThreadPool>(workers, "csv-test"));
  }
  CsvOptions no_header;
  no_header.has_header = false;
  for (const std::string& text : ChunkCorpusSeeds()) {
    for (const CsvOptions& options : {CsvOptions(), no_header}) {
      const std::string expected =
          DescribeEncoding(EncodeCsvString(text, options));
      for (const auto& pool : pools) {
        Result<CsvFields> fields = TokenizeCsv(text, options, pool.get());
        const std::string got = DescribeEncoding(
            fields.ok() ? EncodedRelation::FromCsv(*std::move(fields),
                                                   pool.get())
                        : Result<EncodedRelation>(fields.status()));
        ASSERT_EQ(got, expected)
            << "parties " << pool->num_threads() + 1 << ", has_header "
            << options.has_header << ", text:\n" << text;
      }
    }
  }

  const std::string big = EdgeColumns(20000);  // 80k cells
  Result<CsvFields> fields = TokenizeCsv(big);
  ASSERT_TRUE(fields.ok());
  Result<EncodedRelation> serial = EncodedRelation::FromCsv(*std::move(fields));
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(DescribeEncoding(EncodeCsvString(big)), DescribeEncoding(serial));
  const std::vector<DataType> types = {DataType::kInt, DataType::kInt,
                                       DataType::kString, DataType::kString};
  for (int a = 0; a < 4; ++a) {
    EXPECT_EQ(serial->schema().type(a), types[a]) << "attr " << a;
  }
  EXPECT_EQ(serial->NumDistinct(0), 20000);
  // spelled: NULL < 1 < 2, each represented by its first row's spelling.
  EXPECT_EQ(serial->NumDistinct(1), 3);
  EXPECT_EQ(serial->NumDistinct(2), 1);
  // esc: a"b (escaped and literal) < a"c.
  EXPECT_EQ(serial->NumDistinct(3), 2);
}

}  // namespace
}  // namespace fastod
