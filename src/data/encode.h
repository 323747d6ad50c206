// Order-preserving dictionary encoding.
//
// Section 4.6 of the paper: "The values of the columns are replaced with
// integers 1, 2, ..., n, in a way that the equivalence classes do not change
// and the ordering is preserved." All discovery algorithms run over this
// encoded form: equal values share a code, and code order equals value
// order, so both split detection (equality) and swap detection (ordering)
// reduce to integer comparisons.
//
// The encoded image is columnar: one contiguous CodeColumn per attribute
// (4 bytes/row) plus the column's interned ValueDictionary (code ->
// value), which replaces retaining the raw Value table for rendering and
// for merge-encoding appended deltas.
//
// Every encoder runs the same core per column: hash-intern the cells
// (data/interner.h), giving each distinct value an id in first-row
// order (the first row carrying a value is its representative), sort
// only the d distinct values, and remap each row's id to its value's
// rank in place — O(n + d log d) instead of sorting all n rows. For a
// CSV load the tokenizer has interned the trimmed fields already
// (data/csv.h), so CSV loads never build a Value: per column FromCsv
// infers the type over the distinct fields, parses only those into
// int64/double/byte keys, sorts on the keys, and ranks the tokenizer's
// ids in place, which become the code column. FromTable interns the
// Values of an existing Table.
//
// A CSV load of at least 2^16 cells (line count x first-record fields)
// makes a pool private to that load (MakeCsvIngestPool in data/csv.h)
// before it tokenizes. The load tokenizes the text in pieces on it
// (TokenizeCsv), encodes the columns in parallel, and hands the pool on
// so the same load builds its level-1 partitions on it (LoadedDataset
// in data/dataset_store.h). Output is the same at any party count: the
// pieces give the serial tokenizer's ids and distinct fields, and each
// column is encoded by one party.
#ifndef FASTOD_DATA_ENCODE_H_
#define FASTOD_DATA_ENCODE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "data/column.h"
#include "data/csv.h"
#include "data/table.h"
#include "obs/trace.h"

namespace fastod {

/// The integer-encoded image of a Table: per column, a dense code in
/// [0, NumDistinct) for every tuple. Codes are assigned in ascending value
/// order (ties = equal values share a code), under the Value total order
/// (NULLs first).
class EncodedRelation {
 public:
  EncodedRelation() = default;

  /// Encodes every column of `table`. Fails as CheckRelationShape does.
  static Result<EncodedRelation> FromTable(const Table& table);

  /// Encodes tokenized CSV (data/csv.h) with no intermediate Values:
  /// bit-for-bit what FromTable produces on the Table ReadCsvString
  /// builds from the same text. Consumes `fields`: each column's ids
  /// become its codes. With a `pool`, encodes the columns in one
  /// ParallelFor on it. Same limits as FromTable.
  static Result<EncodedRelation> FromCsv(CsvFields fields,
                                         ThreadPool* pool = nullptr);

  /// Wraps precomputed code columns and their dictionaries. The append
  /// path in data/dataset_store.cc merge-encodes delta rows into the
  /// parent version's dictionaries instead of re-sorting the whole
  /// table; the caller guarantees codes are dense and order-preserving,
  /// exactly as FromTable would have assigned them.
  static EncodedRelation FromColumns(Schema schema,
                                     std::vector<CodeColumn> codes,
                                     std::vector<ValueDictionary> dicts);

  int NumAttributes() const { return static_cast<int>(codes_.size()); }
  int64_t NumRows() const { return num_rows_; }
  const Schema& schema() const { return schema_; }

  /// Code of every tuple on attribute `attr` (size NumRows()).
  const CodeColumn& codes(int attr) const {
    FASTOD_DCHECK(attr >= 0 && attr < NumAttributes());
    return codes_[attr];
  }

  int32_t rank(int64_t row, int attr) const { return codes(attr)[row]; }

  /// Number of distinct values in column `attr`.
  int32_t NumDistinct(int attr) const { return codes(attr).num_distinct(); }

  /// Interned distinct values of column `attr`, code -> value.
  const ValueDictionary& dictionary(int attr) const {
    FASTOD_DCHECK(attr >= 0 && attr < NumAttributes());
    return dicts_[attr];
  }

  /// Exact bytes across every code column and dictionary.
  int64_t ByteSize() const;

 private:
  Schema schema_;
  int64_t num_rows_ = 0;
  std::vector<CodeColumn> codes_;
  std::vector<ValueDictionary> dicts_;
};

/// Tuple ids are int32_t, so a relation holds at most this many rows.
inline constexpr int64_t kMaxRows = std::numeric_limits<int32_t>::max();

/// Whether a relation of `rows` x `columns` can be encoded: at most
/// AttributeSet::kMaxAttributes columns (the lattice's attribute sets)
/// and kMaxRows rows. InvalidArgument naming the limit otherwise.
Status CheckRelationShape(int64_t rows, int columns);

/// CSV text straight to its encoding: TokenizeCsv + FromCsv, on the
/// load's private ingest pool when the CSV has at least 2^16 cells,
/// made before tokenizing.
/// With `pool`, hands that pool (null below the threshold) to the
/// caller, so the same load can build its partitions on it.
Result<EncodedRelation> EncodeCsvString(
    std::string_view text, const CsvOptions& options = CsvOptions(),
    std::unique_ptr<ThreadPool>* pool = nullptr);

/// The same for a file. With a `trace`, records the session phase spans
/// csv.read (read the file) and, as long as the previous step
/// succeeded, csv.tokenize (make the ingest pool, tokenize and intern,
/// merge the pieces' dictionaries) and encode (infer types, parse the
/// distinct fields, sort, remap).
Result<EncodedRelation> EncodeCsvFile(const std::string& path,
                                      const CsvOptions& options = CsvOptions(),
                                      obs::TraceRecorder* trace = nullptr,
                                      std::unique_ptr<ThreadPool>* pool =
                                          nullptr);

}  // namespace fastod

#endif  // FASTOD_DATA_ENCODE_H_
