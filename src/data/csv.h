// CSV import/export with type inference.
//
// The evaluation datasets in the paper (flight, ncvoter, hepatitis, dbtesma)
// are CSV files; this reader lets users run discovery on their own data.
// Supports RFC-4180-style quoting ("a,b" fields, "" escapes), configurable
// delimiter, optional header row, and per-column type inference
// (int -> double -> string; empty fields become NULL).
//
// One tokenizer serves every reader: TokenizeCsv splits the text into
// per-column field views (CsvFields) in a single pass, copying only
// fields that need unescaping. It infers no types. The load paths hand
// the CsvFields to the encoder (EncodedRelation::FromCsv in
// data/encode.h), which consumes them column by column: it interns the
// views, infers the column type over the distinct fields
// (InferColumnType) and parses only those, never building a Value.
// ReadCsvString/ReadCsvFile infer over every field and build a Table
// from the same views for callers that want one.
#ifndef FASTOD_DATA_CSV_H_
#define FASTOD_DATA_CSV_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "data/schema.h"
#include "data/table.h"

namespace fastod {

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

/// Tokenized CSV: the attribute names (header names or col0..) and, per
/// column, the whitespace-trimmed text of every data row's field. An
/// empty view is a NULL. Views point into the tokenized text, which must
/// outlive this object, or into `unescaped`. Column types are not known
/// yet: the consumer infers them (InferColumnType) when `infer_types`
/// is set. Move-only, since copies would alias the original's unescaped
/// fields.
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
  int64_t num_rows = 0;
  /// columns[c][r]: field of data row r (at most max_rows) in column c.
  std::vector<std::vector<std::string_view>> columns;
  /// Owned copies of the fields that needed unescaping (quotes, stray
  /// \r); a deque, so the views stay valid as it grows.
  std::deque<std::string> unescaped;
};

/// Splits CSV text into per-column field views in one pass. Fails
/// (InvalidArgument) on an unterminated quoted field, input with no
/// records, or ragged records — checked in that order over the whole
/// text, even beyond max_rows.
Result<CsvFields> TokenizeCsv(std::string_view text,
                              const CsvOptions& options = CsvOptions());

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
