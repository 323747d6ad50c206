#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/macros.h"

namespace fastod {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void SpliceJsonMember(std::string* object, const std::string& key,
                      const std::string& value_json) {
  size_t brace = object->rfind('}');
  if (brace == std::string::npos || brace == 0) return;
  size_t last = object->find_last_not_of(" \t\n\r", brace - 1);
  const char* lead = last != std::string::npos && (*object)[last] == '{'
                         ? "\""
                         : ",\"";
  object->insert(brace, lead + JsonEscape(key) + "\":" + value_json);
}

// ------------------------------------------------------------- writer

void JsonWriter::BeforeValue() {
  if (stack_.empty()) return;
  Frame& top = stack_.back();
  if (top.kind == '{') {
    // Object values must be introduced by Key().
    FASTOD_CHECK(top.key_pending);
    top.key_pending = false;
  } else if (top.has_value) {
    out_ += ", ";
  }
  top.has_value = true;
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  stack_.push_back({'{'});
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  FASTOD_CHECK(!stack_.empty() && stack_.back().kind == '{' &&
               !stack_.back().key_pending);
  stack_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  stack_.push_back({'['});
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  FASTOD_CHECK(!stack_.empty() && stack_.back().kind == '[');
  stack_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& key) {
  FASTOD_CHECK(!stack_.empty() && stack_.back().kind == '{' &&
               !stack_.back().key_pending);
  if (stack_.back().has_value) out_ += ", ";
  stack_.back().key_pending = true;
  stack_.back().has_value = false;  // BeforeValue handles the comma above
  out_ += '"';
  out_ += JsonEscape(key);
  out_ += "\": ";
  return *this;
}

JsonWriter& JsonWriter::String(const std::string& value) {
  BeforeValue();
  out_ += '"';
  out_ += JsonEscape(value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  BeforeValue();
  if (!std::isfinite(value)) {
    out_ += "null";  // JSON has no Inf/NaN literals
    return *this;
  }
  // %g, not %f: a fixed six-decimal rendering flushes small fractions
  // (support 1e-7 on a huge relation) to 0.000000 and cannot represent
  // large magnitudes in bounded width.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::Raw(const std::string& json) {
  BeforeValue();
  out_ += json;
  return *this;
}

// ------------------------------------------------------------- parser

int64_t JsonValue::int_value() const {
  if (std::isnan(number_)) return 0;
  // ±2^53: the largest magnitude at which doubles still hold every
  // integer exactly, and comfortably inside int64_t.
  constexpr double kLimit = 9007199254740992.0;
  if (number_ >= kLimit) return static_cast<int64_t>(kLimit);
  if (number_ <= -kLimit) return static_cast<int64_t>(-kLimit);
  return static_cast<int64_t>(number_);
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [name, value] : object_) {
    if (name == key) return &value;
  }
  return nullptr;
}

std::string JsonValue::Dump() const {
  switch (type_) {
    case Type::kNull:
      return "null";
    case Type::kBool:
      return bool_ ? "true" : "false";
    case Type::kNumber: {
      // Integral values render without a fraction so ids round-trip.
      if (number_ == std::floor(number_) && std::isfinite(number_) &&
          std::abs(number_) < 1e15) {
        return std::to_string(static_cast<int64_t>(number_));
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", number_);
      return buf;
    }
    case Type::kString: {
      std::string out = "\"";
      out += JsonEscape(string_);
      out += '"';
      return out;
    }
    case Type::kArray: {
      std::string out = "[";
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ", ";
        out += array_[i].Dump();
      }
      return out + "]";
    }
    case Type::kObject: {
      std::string out = "{";
      for (size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += ", ";
        out += '"';
        out += JsonEscape(object_[i].first);
        out += "\": ";
        out += object_[i].second.Dump();
      }
      return out + "}";
    }
  }
  return "null";
}

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    if (Status s = ParseValue(&value, 0); !s.ok()) return s;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& message) const {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + message);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->type_ = JsonValue::Type::kString;
        return ParseString(&out->string_);
      case 't':
      case 'f':
        return ParseLiteral(out, c == 't' ? "true" : "false",
                            JsonValue::Type::kBool, c == 't');
      case 'n':
        return ParseLiteral(out, "null", JsonValue::Type::kNull, false);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseLiteral(JsonValue* out, const char* word,
                      JsonValue::Type type, bool value) {
    size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) {
      return Error(std::string("invalid literal (expected '") + word + "')");
    }
    pos_ += len;
    out->type_ = type;
    out->bool_ = value;
    return Status::Ok();
  }

  Status ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a value");
    std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      pos_ = start;
      return Error("malformed number '" + token + "'");
    }
    out->type_ = JsonValue::Type::kNumber;
    out->number_ = value;
    return Status::Ok();
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Error("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
          *out += '"';
          break;
        case '\\':
          *out += '\\';
          break;
        case '/':
          *out += '/';
          break;
        case 'b':
          *out += '\b';
          break;
        case 'f':
          *out += '\f';
          break;
        case 'n':
          *out += '\n';
          break;
        case 'r':
          *out += '\r';
          break;
        case 't':
          *out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("invalid hex digit in \\u escape");
            }
          }
          // UTF-8 encode the code point (surrogate pairs are passed
          // through as two 3-byte sequences; adequate for option values).
          if (code < 0x80) {
            *out += static_cast<char>(code);
          } else if (code < 0x800) {
            *out += static_cast<char>(0xC0 | (code >> 6));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            *out += static_cast<char>(0xE0 | (code >> 12));
            *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return Error(std::string("invalid escape '\\") + esc + "'");
      }
    }
    return Error("unterminated string");
  }

  Status ParseArray(JsonValue* out, int depth) {
    Consume('[');
    out->type_ = JsonValue::Type::kArray;
    SkipWhitespace();
    if (Consume(']')) return Status::Ok();
    while (true) {
      JsonValue item;
      if (Status s = ParseValue(&item, depth + 1); !s.ok()) return s;
      out->array_.push_back(std::move(item));
      SkipWhitespace();
      if (Consume(']')) return Status::Ok();
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    Consume('{');
    out->type_ = JsonValue::Type::kObject;
    SkipWhitespace();
    if (Consume('}')) return Status::Ok();
    while (true) {
      SkipWhitespace();
      std::string key;
      if (Status s = ParseString(&key); !s.ok()) return s;
      if (out->Find(key) != nullptr) {
        return Error("duplicate object key '" + key + "'");
      }
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      JsonValue value;
      if (Status s = ParseValue(&value, depth + 1); !s.ok()) return s;
      out->object_.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) return Status::Ok();
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

Result<JsonValue> ParseJson(const std::string& text) {
  return JsonParser(text).Parse();
}

}  // namespace fastod
