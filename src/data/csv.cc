#include "data/csv.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "data/interner.h"

namespace fastod {

namespace {

// Below this many cells a CSV load tokenizes, encodes and partitions on
// the calling thread alone: starting the workers would cost more than
// the pieces and columns save.
constexpr int64_t kParallelIngestCells = int64_t{1} << 16;

using FieldInterner = Interner<std::string_view, std::hash<std::string_view>>;

// Rows a piece holds as field views before it interns them, a column at
// a time: then one column's table stays in cache and its probes are
// independent. Interning each field as it was read made the 4-party
// tokenize of flight 200k x12 more than twice as slow.
constexpr int64_t kBlockRows = 64;

// One piece of the text, [begin, end), tokenized as if it began at a
// record start. Its rows go to consecutive column slots from `slot`, as
// ids into its own per-column dictionaries; a piece holds at most as
// many records as line breaks, plus one for the last piece, so its
// slots are sized by the line count. Pieces, and
// their Tokenizers, sit side by side while each party writes its own,
// so each gets its own cache line.
struct alignas(64) Piece {
  size_t begin = 0;
  size_t end = 0;
  int64_t slot = 0;
  int64_t max_rows = -1;  // rows it may store; -1: every one
  int64_t lines = 0;      // line breaks in it
  // Filled by the Tokenizer:
  int64_t rows = 0;           // stored in slots [slot, slot + rows)
  int64_t ragged_width = -1;  // width of its first ragged record
  bool in_quotes = false;     // ended inside a quoted field
  std::deque<std::string> unescaped;
  std::vector<FieldInterner> interners;  // one per column
};

// One pass over a piece under the RFC-4180-style grammar: a quote opens
// a quoted section only at the start of a field, "" inside one is a
// literal quote, \r outside quotes is dropped, and a line with no content
// is skipped. A field that is one contiguous slice of the text stays a
// view; the first discontiguity (a closing quote followed by more text,
// an escaped quote, a dropped \r) copies it into the piece's arena. With
// `first_record`, reads only the piece's first record into it and ends
// the piece after it; otherwise keeps the records of the width of
// `columns` in blocks of kBlockRows rows, and interns each block's
// fields in the piece's dictionary for their column, storing the ids in
// the records' row slots.
class alignas(64) Tokenizer {
 public:
  Tokenizer(std::string_view text, char delimiter, Piece* piece,
            std::vector<CsvColumn>* columns,
            std::vector<std::string_view>* first_record)
      : text_(text),
        delim_(delimiter),
        piece_(piece),
        columns_(columns),
        first_record_(first_record),
        width_(first_record != nullptr ? SIZE_MAX : columns->size()),
        storing_(HasRoom()),
        pos_(piece->begin) {
    if (first_record == nullptr) block_.resize(width_ * kBlockRows);
  }

  // Tokenizes from where the last call stopped up to the piece's end. A
  // piece that ended inside a quoted field may have its end moved on and
  // be run again: the open field continues across the old end.
  void Run() {
    const char* t = text_.data();
    const size_t n = piece_->end;
    size_t i = pos_;
    while (i < n && !done_) {
      if (in_quotes_) {
        size_t j = i;
        while (j < n && t[j] != '"') ++j;
        Append(i, j - i);
        i = j;
        if (j == n) break;  // unterminated so far; the caller decides
        if (j + 1 < n && t[j + 1] == '"') {  // escaped quote
          Append(j, 1);
          i = j + 2;
          continue;
        }
        in_quotes_ = false;
        i = j + 1;
        continue;
      }
      const char c = t[i];
      if (c == '"' && FieldEmpty()) {
        in_quotes_ = true;
        field_started_ = true;
        ++i;
        continue;
      }
      if (c == delim_) {
        EndField();
        field_started_ = true;
        ++i;
        continue;
      }
      if (c == '\n') {
        if (field_started_ || !FieldEmpty()) EndRecord();
        field_started_ = false;
        ++i;
        continue;
      }
      if (c == '\r') {  // swallow; \r\n handled by the \n branch
        ++i;
        continue;
      }
      // A plain run up to the next delimiter or line break; a quote in it
      // is literal, since the field is no longer empty.
      size_t j = i + 1;
      while (j < n && t[j] != delim_ && t[j] != '\n' && t[j] != '\r') ++j;
      Append(i, j - i);
      field_started_ = true;
      i = j;
    }
    pos_ = i;
    if (done_) {
      piece_->end = i;
      return;
    }
    piece_->in_quotes = in_quotes_;
    if (in_quotes_) return;  // the open record goes on in the next run
    if (field_started_ || !FieldEmpty()) EndRecord();
    InternBlock();
  }

 private:
  bool FieldEmpty() const { return copied_ ? buf_.empty() : len_ == 0; }

  // Adds text_[pos, pos + len) to the current field.
  void Append(size_t pos, size_t len) {
    if (len == 0) return;
    if (copied_) {
      buf_.append(text_.data() + pos, len);
    } else if (len_ == 0) {
      start_ = pos;
      len_ = len;
    } else if (pos == start_ + len_) {
      len_ += len;
    } else {
      copied_ = true;
      buf_.assign(text_.data() + start_, len_);
      buf_.append(text_.data() + pos, len);
    }
  }

  void EndField() {
    if (storing_ && field_ < width_) {
      std::string_view field = text_.substr(start_, len_);
      if (copied_) {
        piece_->unescaped.push_back(std::move(buf_));
        field = piece_->unescaped.back();
      }
      field = Trim(field);
      if (first_record_ != nullptr) {
        first_record_->push_back(field);
      } else {
        block_[field_ * kBlockRows + block_rows_] = field;
      }
    }
    ++field_;
    start_ = 0;
    len_ = 0;
    copied_ = false;
    buf_.clear();
  }

  void EndRecord() {
    EndField();
    if (first_record_ != nullptr) {
      done_ = true;
    } else if (field_ != width_) {
      if (piece_->ragged_width < 0) {
        piece_->ragged_width = static_cast<int64_t>(field_);
      }
    } else if (storing_) {
      ++piece_->rows;
      if (++block_rows_ == kBlockRows) InternBlock();
    }
    field_ = 0;
    // Records past max_rows are still scanned (a malformed tail fails the
    // read) but not stored; nothing is stored after a ragged record.
    storing_ = piece_->ragged_width < 0 && HasRoom();
  }

  bool HasRoom() const {
    return piece_->max_rows < 0 || piece_->rows < piece_->max_rows;
  }

  // Interns the block's rows, the last stored, into their row slots.
  void InternBlock() {
    if (block_rows_ == 0) return;
    const int64_t slot = piece_->slot + piece_->rows - block_rows_;
    for (size_t c = 0; c < width_; ++c) {
      FieldInterner& interner = piece_->interners[c];
      const std::string_view* fields = &block_[c * kBlockRows];
      uint32_t* ids = (*columns_)[c].ids.data() + slot;
      interner.Intern(fields, static_cast<size_t>(block_rows_), ids);
    }
    block_rows_ = 0;
  }

  std::string_view text_;
  char delim_;
  Piece* piece_;
  std::vector<CsvColumn>* columns_;
  std::vector<std::string_view>* first_record_;
  size_t width_;  // fields a record must have
  bool storing_;
  size_t pos_;  // where the next Run goes on
  // Stored rows not yet interned: block_[c * kBlockRows + b] is column c
  // of the b-th.
  std::vector<std::string_view> block_;
  int64_t block_rows_ = 0;
  bool in_quotes_ = false;
  bool field_started_ = false;  // true once the current record has content
  bool done_ = false;           // the first record has been read
  size_t field_ = 0;   // index of the current field within its record
  // The current field: text_[start_, start_ + len_), or buf_ once copied.
  size_t start_ = 0;
  size_t len_ = 0;
  bool copied_ = false;
  std::string buf_;
};

// Reads the first record of `text` into `record`; `piece` ends after it.
void ReadFirstRecord(std::string_view text, char delimiter, Piece* piece,
                     std::vector<std::string_view>* record) {
  piece->end = text.size();
  Tokenizer(text, delimiter, piece, nullptr, record).Run();
}

int64_t CountLineBreaks(std::string_view text) {
  int64_t count = 0;
  const char* end = text.data() + text.size();
  for (const char* p = text.data();; ++p, ++count) {
    p = static_cast<const char*>(std::memchr(p, '\n', end - p));
    if (p == nullptr) return count;
  }
}

Status Unterminated() {
  return Status::InvalidArgument("unterminated quoted CSV field");
}

// Cuts text[begin, end) into at most `parts` pieces of about equal
// length, each cut just after a line break; one empty piece if the text
// ends at `begin`. Every piece but the last ends with '\n'.
std::vector<Piece> CutPieces(std::string_view text, size_t begin, int parts) {
  std::vector<Piece> pieces;
  const size_t n = text.size();
  do {
    size_t end = n;
    const int k = static_cast<int>(pieces.size()) + 1;
    if (k < parts) {
      const size_t target = begin + (n - begin) / (parts - k + 1);
      const void* line_break =
          std::memchr(text.data() + target, '\n', n - target);
      if (line_break != nullptr) {
        end = static_cast<size_t>(static_cast<const char*>(line_break) -
                                  text.data()) + 1;
      }
    }
    pieces.emplace_back();
    pieces.back().begin = begin;
    pieces.back().end = end;
    begin = end;
  } while (begin < n);
  return pieces;
}

bool NeedsQuoting(const std::string& s, char delim) {
  for (char c : s) {
    if (c == delim || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

std::string QuoteField(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

DataType InferColumnType(const std::vector<std::string_view>& fields) {
  bool all_int = true;
  bool all_double = true;
  bool any_value = false;
  for (std::string_view f : fields) {
    if (f.empty()) continue;  // NULL, no evidence
    any_value = true;
    if (all_int && !ParseInt(f).has_value()) all_int = false;
    if (!all_int && all_double && !ParseDouble(f).has_value()) {
      all_double = false;
      break;
    }
  }
  if (!any_value) return DataType::kString;
  if (all_int) return DataType::kInt;
  if (all_double) return DataType::kDouble;
  return DataType::kString;
}

ValueView ParseField(std::string_view field, DataType type) {
  ValueView v;
  if (field.empty()) return v;
  switch (type) {
    case DataType::kInt:
      if (std::optional<int64_t> parsed = ParseInt(field)) {
        v.type = DataType::kInt;
        v.i = *parsed;
      }
      break;
    case DataType::kDouble:
      if (std::optional<double> parsed = ParseDouble(field)) {
        v.type = DataType::kDouble;
        v.d = *parsed;
      }
      break;
    default:
      v.type = DataType::kString;
      v.s = field;
      break;
  }
  return v;
}

Result<CsvFields> TokenizeCsv(std::string_view text, const CsvOptions& options,
                              ThreadPool* pool) {
  if (FASTOD_FAULT_POINT("csv.read")) {
    return Status::IoError("injected fault: csv.read");
  }
  CsvFields out;
  Piece first;
  std::vector<std::string_view> record;
  ReadFirstRecord(text, options.delimiter, &first, &record);
  if (first.in_quotes) return Unterminated();
  if (record.empty()) {
    return Status::InvalidArgument("CSV input contains no records");
  }
  const size_t width = record.size();
  out.names.reserve(width);
  for (size_t c = 0; c < width; ++c) {
    out.names.push_back(options.has_header ? std::string(record[c])
                                           : "col" + std::to_string(c));
  }
  out.infer_types = options.infer_types;

  // Without a header the first record is data row 0.
  const int64_t first_rows =
      !options.has_header && options.max_rows != 0 ? 1 : 0;
  std::vector<Piece> pieces =
      CutPieces(text, first.end,
                pool != nullptr && options.max_rows < 0
                    ? pool->num_threads() + 1
                    : 1);
  // Runs body(k) for k < n: on the pool when there are several pieces.
  auto for_each = [&](size_t n, const std::function<void(int64_t)>& body) {
    if (pieces.size() > 1) {
      pool->ParallelFor(static_cast<int64_t>(n), body);
    } else {
      for (size_t k = 0; k < n; ++k) body(static_cast<int64_t>(k));
    }
  };
  // Each piece's slots start where the line counts before it end; the
  // columns are sized once and the pieces fill them in place.
  for_each(pieces.size(), [&](int64_t k) {
    pieces[k].lines = CountLineBreaks(text.substr(
        pieces[k].begin, pieces[k].end - pieces[k].begin));
  });
  int64_t slots = first_rows;
  for (Piece& piece : pieces) {
    piece.slot = slots;
    slots += piece.lines;
  }
  // A last record without a line break; otherwise, text made of
  // records alone fills its slots exactly, so the ids need no trim.
  if (text.empty() || text.back() != '\n') ++slots;
  if (options.max_rows >= 0) {
    pieces[0].max_rows = options.max_rows - first_rows;
    slots = std::min(slots, options.max_rows);
  }
  // The loading thread allocates the columns and the parties write them
  // first, one column each: their page faults are spread across the
  // parties, while the memory stays in the loading thread's malloc arena
  // (allocated in the workers' arenas, the columns raised perfbench
  // flight-50k's peak RSS by ~4 MB).
  out.columns.resize(width);
  for (CsvColumn& column : out.columns) {
    column.ids.reserve(static_cast<size_t>(slots));
  }
  for (Piece& piece : pieces) piece.interners.resize(width);
  for_each(width, [&](int64_t c) {
    out.columns[c].ids.resize(static_cast<size_t>(slots));
    if (first_rows > 0) {
      out.columns[c].ids[0] = pieces[0].interners[c].Intern(record[c]);
    }
  });
  std::vector<Tokenizer> tokenizers;
  tokenizers.reserve(pieces.size());
  for (Piece& piece : pieces) {
    tokenizers.emplace_back(text, options.delimiter, &piece, &out.columns,
                            nullptr);
  }
  for_each(pieces.size(), [&](int64_t k) { tokenizers[k].Run(); });
  // A piece is verified when every piece before it is. One that ended
  // inside a quoted field had its successor begin mid-field, so it goes
  // on through the successor, whose speculative rows, arena and errors
  // are dropped, until it ends outside quotes; its rows fit, since slots
  // were sized by line breaks. The pieces after it began at a record
  // start and stand.
  std::vector<Piece*> kept;
  for (size_t k = 0; k < pieces.size();) {
    size_t next = k + 1;
    for (; pieces[k].in_quotes && next < pieces.size(); ++next) {
      pieces[k].end = pieces[next].end;
      tokenizers[k].Run();
    }
    kept.push_back(&pieces[k]);
    k = next;
  }
  if (kept.back()->in_quotes) return Unterminated();
  for (const Piece* piece : kept) {
    if (piece->ragged_width >= 0) {
      return Status::InvalidArgument(
          "ragged CSV: expected " + std::to_string(width) +
          " fields, found a record with " +
          std::to_string(piece->ragged_width));
    }
  }

  out.num_rows = first_rows;
  out.unescaped.reserve(kept.size() + 1);
  out.unescaped.push_back(std::move(first.unescaped));
  for (Piece* piece : kept) {
    out.num_rows += piece->rows;
    out.unescaped.push_back(std::move(piece->unescaped));
  }
  // Merges each column's piece dictionaries into the first piece's, in
  // text order, so the merged ids are in first-row order. The other
  // pieces' tables are freed first, and their keys once merged. The same
  // pass moves each piece's rows down over the slots the pieces left
  // unused (blank lines, quoted line breaks, the last piece's spare
  // slot) and maps them to merged ids, in place, so that ids[r] is data
  // row r. The first piece's rows already sit at their rows with their
  // merged ids.
  for_each(width, [&](int64_t c) {
    std::vector<uint32_t>& ids = out.columns[c].ids;
    std::vector<std::vector<std::string_view>> keys(kept.size());
    size_t total = 0;
    for (size_t k = 1; k < kept.size(); ++k) {
      keys[k] = std::move(kept[k]->interners[c]).TakeKeys();
      total += keys[k].size();
    }
    FieldInterner merged = std::move(kept[0]->interners[c]);
    merged.Reserve(merged.keys().size() + total);
    int64_t row = first_rows + kept[0]->rows;
    std::vector<uint32_t> to_merged;
    for (size_t k = 1; k < kept.size(); ++k) {
      const std::vector<std::string_view> local = std::move(keys[k]);
      to_merged.resize(local.size());
      merged.Intern(local.data(), local.size(), to_merged.data());
      // Rows only move down: a forward pass.
      const uint32_t* from = ids.data() + kept[k]->slot;
      for (int64_t r = 0; r < kept[k]->rows; ++r) {
        ids[row + r] = to_merged[from[r]];
      }
      row += kept[k]->rows;
    }
    ids.resize(static_cast<size_t>(out.num_rows));
    out.columns[c].distinct = std::move(merged).TakeKeys();
  });
  return out;
}

std::unique_ptr<ThreadPool> MakeCsvIngestPool(std::string_view text,
                                              const CsvOptions& options) {
  Piece first;
  std::vector<std::string_view> record;
  ReadFirstRecord(text, options.delimiter, &first, &record);
  const int64_t columns =
      first.in_quotes ? 0 : static_cast<int64_t>(record.size());
  const int64_t parties = std::min<int64_t>(
      std::max(1u, std::thread::hardware_concurrency()), columns);
  if (parties < 2) return nullptr;
  const int64_t lines_needed = (kParallelIngestCells + columns - 1) / columns;
  if (options.max_rows >= 0 && options.max_rows < lines_needed) return nullptr;
  const char* p = text.data();
  const char* end = p + text.size();
  for (int64_t lines = 1; lines < lines_needed; ++lines, ++p) {
    p = static_cast<const char*>(std::memchr(p, '\n', end - p));
    if (p == nullptr) return nullptr;
  }
  return std::make_unique<ThreadPool>(static_cast<int>(parties - 1),
                                      "fastod-ingest");
}

Result<std::string> ReadTextFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open '" + path + "' for reading");
  // One read sized by a regular file's length (plus a byte, to meet the
  // end); files without one, such as pipes and /dev/stdin, grow
  // geometrically until the read comes up short.
  std::error_code error;
  const uintmax_t size = std::filesystem::is_regular_file(path, error)
                             ? std::filesystem::file_size(path, error)
                             : 0;
  std::string text;
  size_t length = 0;
  size_t want = error || size == 0 ? size_t{1} << 16
                                   : static_cast<size_t>(size) + 1;
  while (true) {
    text.resize(length + want);
    in.read(text.data() + length, static_cast<std::streamsize>(want));
    length += static_cast<size_t>(in.gcount());
    if (length < text.size()) break;
    want = text.size();
  }
  if (in.bad()) return Status::IoError("cannot read '" + path + "'");
  text.resize(length);
  return text;
}

Result<Table> ReadCsvString(const std::string& text,
                            const CsvOptions& options) {
  Result<CsvFields> fields = TokenizeCsv(text, options);
  if (!fields.ok()) return fields.status();
  const size_t num_cols = fields->columns.size();
  std::vector<AttributeDef> defs(num_cols);
  std::vector<std::vector<Value>> columns(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    const CsvColumn& column = fields->columns[c];
    defs[c].name = std::move(fields->names[c]);
    defs[c].type = fields->infer_types ? InferColumnType(column.distinct)
                                       : DataType::kString;
    std::vector<Value> values;
    values.reserve(column.distinct.size());
    for (std::string_view f : column.distinct) {
      values.push_back(Value::FromView(ParseField(f, defs[c].type)));
    }
    columns[c].reserve(column.ids.size());
    for (uint32_t id : column.ids) columns[c].push_back(values[id]);
  }
  return Table(Schema(std::move(defs)), std::move(columns));
}

Result<Table> ReadCsvFile(const std::string& path, const CsvOptions& options) {
  Result<std::string> text = ReadTextFile(path);
  if (!text.ok()) return text.status();
  return ReadCsvString(*text, options);
}

std::string WriteCsvString(const Table& table, char delimiter) {
  std::string out;
  for (int c = 0; c < table.NumColumns(); ++c) {
    if (c > 0) out += delimiter;
    const std::string& name = table.schema().name(c);
    out += NeedsQuoting(name, delimiter) ? QuoteField(name) : name;
  }
  out += '\n';
  for (int64_t r = 0; r < table.NumRows(); ++r) {
    // A lone NULL in a single-column table would render as a blank line,
    // which readers (including ours) skip; write a quoted empty field so
    // the record survives the round trip.
    if (table.NumColumns() == 1 && table.at(r, 0).is_null()) {
      out += "\"\"\n";
      continue;
    }
    for (int c = 0; c < table.NumColumns(); ++c) {
      if (c > 0) out += delimiter;
      const Value& v = table.at(r, c);
      if (v.is_null()) continue;  // NULL renders as empty field
      std::string s = v.ToString();
      out += NeedsQuoting(s, delimiter) ? QuoteField(s) : s;
    }
    out += '\n';
  }
  return out;
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    char delimiter) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  out << WriteCsvString(table, delimiter);
  if (!out) return Status::IoError("write to '" + path + "' failed");
  return Status::Ok();
}

}  // namespace fastod
