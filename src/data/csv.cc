#include "data/csv.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/string_util.h"

namespace fastod {

namespace {

// One pass over the text under the RFC-4180-style grammar: a quote opens
// a quoted section only at the start of a field, "" inside one is a
// literal quote, \r outside quotes is dropped, and a line with no content
// is skipped. A field that is one contiguous slice of the text stays a
// view; the first discontiguity (a closing quote followed by more text,
// an escaped quote, a dropped \r) copies it into the side arena.
class Tokenizer {
 public:
  Tokenizer(std::string_view text, const CsvOptions& options, CsvFields* out)
      : text_(text), options_(options), out_(out) {}

  Status Run() {
    const char* t = text_.data();
    const size_t n = text_.size();
    const char delim = options_.delimiter;
    // Rows are at most the line count; reserving it up front keeps the
    // column vectors from reallocating while they fill.
    expected_rows_ = static_cast<size_t>(std::count(t, t + n, '\n')) + 1;
    if (options_.max_rows >= 0) {
      expected_rows_ = std::min(expected_rows_,
                                static_cast<size_t>(options_.max_rows));
    }
    bool in_quotes = false;
    bool field_started = false;  // true once the current record has content
    size_t i = 0;
    while (i < n) {
      if (in_quotes) {
        size_t j = i;
        while (j < n && t[j] != '"') ++j;
        Append(i, j - i);
        if (j == n) break;  // unterminated; reported below
        if (j + 1 < n && t[j + 1] == '"') {  // escaped quote
          Append(j, 1);
          i = j + 2;
          continue;
        }
        in_quotes = false;
        i = j + 1;
        continue;
      }
      const char c = t[i];
      if (c == '"' && FieldEmpty()) {
        in_quotes = true;
        field_started = true;
        ++i;
        continue;
      }
      if (c == delim) {
        EndField();
        field_started = true;
        ++i;
        continue;
      }
      if (c == '\n') {
        if (field_started || !FieldEmpty()) EndRecord();
        field_started = false;
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
      while (j < n && t[j] != delim && t[j] != '\n' && t[j] != '\r') ++j;
      Append(i, j - i);
      field_started = true;
      i = j;
    }
    if (in_quotes) {
      return Status::InvalidArgument("unterminated quoted CSV field");
    }
    if (field_started || !FieldEmpty()) EndRecord();
    if (records_ == 0) {
      return Status::InvalidArgument("CSV input contains no records");
    }
    if (ragged_width_ >= 0) {
      return Status::InvalidArgument(
          "ragged CSV: expected " + std::to_string(out_->columns.size()) +
          " fields, found a record with " + std::to_string(ragged_width_));
    }
    return Status::Ok();
  }

  /// The first record's trimmed fields (the header, when there is one).
  const std::vector<std::string_view>& first_record() const {
    return first_record_;
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
    const bool first = records_ == 0;
    if (first || (storing_ && field_ < out_->columns.size())) {
      std::string_view field = text_.substr(start_, len_);
      if (copied_) {
        out_->unescaped.push_back(std::move(buf_));
        field = out_->unescaped.back();
      }
      field = Trim(field);
      if (first) {
        first_record_.push_back(field);
      } else {
        out_->columns[field_].push_back(field);
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
    if (records_ == 0) {
      out_->columns.resize(first_record_.size());
      for (auto& column : out_->columns) column.reserve(expected_rows_);
      if (!options_.has_header && HasRoom()) {
        for (size_t c = 0; c < first_record_.size(); ++c) {
          out_->columns[c].push_back(first_record_[c]);
        }
        ++out_->num_rows;
      }
    } else if (field_ != out_->columns.size()) {
      if (ragged_width_ < 0) ragged_width_ = static_cast<int64_t>(field_);
    } else if (storing_) {
      ++out_->num_rows;
    }
    ++records_;
    field_ = 0;
    // Records past max_rows are still scanned (a malformed tail fails the
    // read) but not stored; nothing is stored after a ragged record.
    storing_ = ragged_width_ < 0 && HasRoom();
  }

  bool HasRoom() const {
    return options_.max_rows < 0 || out_->num_rows < options_.max_rows;
  }

  std::string_view text_;
  const CsvOptions& options_;
  CsvFields* out_;
  size_t expected_rows_ = 0;
  std::vector<std::string_view> first_record_;
  int64_t records_ = 0;
  int64_t ragged_width_ = -1;
  bool storing_ = true;
  size_t field_ = 0;  // index of the current field within its record
  // The current field: text_[start_, start_ + len_), or buf_ once copied.
  size_t start_ = 0;
  size_t len_ = 0;
  bool copied_ = false;
  std::string buf_;
};

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

Result<CsvFields> TokenizeCsv(std::string_view text,
                              const CsvOptions& options) {
  if (FASTOD_FAULT_POINT("csv.read")) {
    return Status::IoError("injected fault: csv.read");
  }
  CsvFields out;
  Tokenizer tokenizer(text, options, &out);
  if (Status s = tokenizer.Run(); !s.ok()) return s;

  out.names.reserve(out.columns.size());
  for (size_t c = 0; c < out.columns.size(); ++c) {
    out.names.push_back(options.has_header
                            ? std::string(tokenizer.first_record()[c])
                            : "col" + std::to_string(c));
  }
  out.infer_types = options.infer_types;
  return out;
}

Result<std::string> ReadTextFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open '" + path + "' for reading");
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

Result<Table> ReadCsvString(const std::string& text,
                            const CsvOptions& options) {
  Result<CsvFields> fields = TokenizeCsv(text, options);
  if (!fields.ok()) return fields.status();
  const size_t num_cols = fields->columns.size();
  std::vector<AttributeDef> defs(num_cols);
  std::vector<std::vector<Value>> columns(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    defs[c].name = std::move(fields->names[c]);
    defs[c].type = fields->infer_types ? InferColumnType(fields->columns[c])
                                       : DataType::kString;
    columns[c].reserve(fields->num_rows);
    for (std::string_view f : fields->columns[c]) {
      columns[c].push_back(Value::FromView(ParseField(f, defs[c].type)));
    }
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
