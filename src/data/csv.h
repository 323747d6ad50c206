// CSV import/export with type inference.
//
// The evaluation datasets in the paper (flight, ncvoter, hepatitis, dbtesma)
// are CSV files; this reader lets users run discovery on their own data.
// Supports RFC-4180-style quoting ("a,b" fields, "" escapes), configurable
// delimiter, optional header row, and per-column type inference
// (int -> double -> string; empty fields become NULL).
//
// One tokenizer serves every reader: TokenizeCsv splits the text into
// fields and interns them as it goes, so its output (CsvFields) holds,
// per column, each data row's field as a 4-byte id into the column's
// distinct fields in first-row order. It copies only fields that need
// unescaping, and infers no types. The load paths hand the CsvFields to
// the encoder (EncodedRelation::FromCsv in data/encode.h), which infers
// each column's type over its distinct fields (InferColumnType), parses
// only those and turns the ids into codes in place, never building a
// Value.
// ReadCsvString/ReadCsvFile build a Table from the same output, parsing
// each distinct field once, for callers that want one.
//
// Given a pool, TokenizeCsv reads the first record on the calling
// thread, cuts the rest of the text at line breaks into one piece per
// party and tokenizes the pieces in one ParallelFor, each as if it began
// at a record start, into its own row slots of each column and its own
// dictionary per column. Pieces are accepted in text order (speculative
// parsing as in Ge et al., SIGMOD 2019). One that ended inside a quoted
// field means the next began mid-field: that piece resumes from where it
// stopped through the next one, whose speculative result is dropped,
// until it ends outside quotes; the pieces after it began at a record
// start and stand. So no byte is tokenized more than twice, and text
// without quoted line breaks only once. Then one ParallelFor over the
// columns merges each column's piece dictionaries in text order, which
// gives the ids of a one-piece tokenize, and in the same pass maps each
// piece's rows to merged ids and closes the slots the pieces left unused
// (blank lines, quoted line breaks). Without a pool the whole rest is
// one piece, which needs no merge, so both paths run the same code.
#ifndef FASTOD_DATA_CSV_H_
#define FASTOD_DATA_CSV_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "data/schema.h"
#include "data/table.h"

namespace fastod {

class ThreadPool;

struct CsvOptions {
  char delimiter = ',';
  /// If true, the first record provides attribute names; otherwise columns
  /// are named col0, col1, ...
  bool has_header = true;
  /// If true, infer int/double column types where every non-empty field
  /// parses; otherwise every column is string-typed.
  bool infer_types = true;
  /// Maximum number of data rows to read (-1 = all).
  int64_t max_rows = -1;
};

/// One tokenized column: every data row's whitespace-trimmed field, as
/// ids[r] into `distinct`, the column's distinct fields in first-row
/// order. An empty field is a NULL.
struct CsvColumn {
  std::vector<uint32_t> ids;
  std::vector<std::string_view> distinct;
};

/// Tokenized CSV: the attribute names (header names or col0..) and, per
/// column, its interned fields. The distinct fields point into the
/// tokenized text, which must outlive this object, or into `unescaped`.
/// Column types are not known yet: the consumer infers them
/// (InferColumnType) when `infer_types` is set. Move-only, since copies
/// would alias the original's unescaped fields.
struct CsvFields {
  CsvFields() = default;
  CsvFields(CsvFields&&) = default;
  CsvFields& operator=(CsvFields&&) = default;
  CsvFields(const CsvFields&) = delete;
  CsvFields& operator=(const CsvFields&) = delete;

  std::vector<std::string> names;
  /// CsvOptions::infer_types of the tokenize; false makes every column
  /// a string column.
  bool infer_types = true;
  /// Data rows, at most max_rows; every column has this many ids.
  int64_t num_rows = 0;
  std::vector<CsvColumn> columns;
  /// Owned copies of the fields that needed unescaping (quotes, stray
  /// \r), one arena per tokenized piece. Each arena is kept whole and
  /// never merged: a view of a short string points inside the string
  /// object, so those strings must never move.
  std::vector<std::deque<std::string>> unescaped;
};

/// Splits CSV text into per-column interned fields. With a `pool`,
/// tokenizes one piece of the text per party (see above); the output is
/// the same at any party count. Fails (InvalidArgument) on an unterminated quoted
/// field, input with no records, or ragged records — checked in that
/// order over the whole text, even beyond max_rows. A tokenize with
/// max_rows set runs as one piece.
Result<CsvFields> TokenizeCsv(std::string_view text,
                              const CsvOptions& options = CsvOptions(),
                              ThreadPool* pool = nullptr);

/// The private pool one load of CSV `text` tokenizes, encodes its
/// columns and builds their level-1 partitions on: min(hardware threads,
/// columns) parties, the caller being one of them, with threads named
/// fastod-ingest-N. Null (all on the calling thread) below 2^16 cells,
/// where starting the workers would cost more than the pieces save; the
/// cells are the first record's fields times the line count (capped by
/// max_rows), counted only as far as the threshold. Never the service's
/// pool, which runs one ParallelFor at a time and would collide with
/// concurrent uploads.
std::unique_ptr<ThreadPool> MakeCsvIngestPool(
    std::string_view text, const CsvOptions& options = CsvOptions());

/// The type of a column with these trimmed fields: int if every
/// non-empty field parses as one, else double if every one parses as
/// one, else string (also for a column of NULLs only). An all/any test,
/// so the distinct fields of a column give the same answer as all of
/// them.
DataType InferColumnType(const std::vector<std::string_view>& fields);

/// A trimmed field's value under its column type: NULL when empty (or,
/// for a field the inferred type cannot parse, which inference rules
/// out); a string view borrows `field`.
ValueView ParseField(std::string_view field, DataType type);

/// The whole contents of a file (IoError if it cannot be read).
Result<std::string> ReadTextFile(const std::string& path);

/// Parses CSV text into a Table.
Result<Table> ReadCsvString(const std::string& text,
                            const CsvOptions& options = CsvOptions());

/// Reads and parses a CSV file.
Result<Table> ReadCsvFile(const std::string& path,
                          const CsvOptions& options = CsvOptions());

/// Serializes a table to CSV (always writes a header row; quotes fields
/// containing the delimiter, quotes, or newlines).
std::string WriteCsvString(const Table& table, char delimiter = ',');

/// Writes a table to a CSV file.
Status WriteCsvFile(const Table& table, const std::string& path,
                    char delimiter = ',');

}  // namespace fastod

#endif  // FASTOD_DATA_CSV_H_
