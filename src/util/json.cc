#include "util/json.h"

#include <cassert>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace gdlog {

void JsonWriter::MaybeComma() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value follows its key, no comma
  }
  if (!stack_.empty()) {
    if (stack_.back() == '1') out_ += ',';
    stack_.back() = '1';
  }
}

void JsonWriter::Escape(std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\t': out_ += "\\t"; break;
      case '\r': out_ += "\\r"; break;
      case '\b': out_ += "\\b"; break;
      case '\f': out_ += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
}

JsonWriter& JsonWriter::BeginObject() {
  MaybeComma();
  out_ += '{';
  stack_ += '0';
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  assert(!stack_.empty());
  stack_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  MaybeComma();
  out_ += '[';
  stack_ += '0';
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  assert(!stack_.empty());
  stack_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  MaybeComma();
  out_ += '"';
  Escape(key);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  MaybeComma();
  out_ += '"';
  Escape(value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Number(double value) {
  MaybeComma();
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Int(long long value) {
  MaybeComma();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  MaybeComma();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  MaybeComma();
  out_ += "null";
  return *this;
}

// ---------------------------------------------------------------------------
// JsonReader — the JSON grammar.
// ---------------------------------------------------------------------------

void JsonReader::Fail(Status error) {
  if (status_.ok()) status_ = std::move(error);
  pos_ = text_.size();
}

void JsonReader::SyntaxError(const char* what) {
  if (!status_.ok()) return;
  Fail(Status::ParseError("json: " + std::string(what) + " at offset " +
                          std::to_string(pos_)));
}

void JsonReader::SkipWhitespace() {
  while (pos_ < text_.size()) {
    char c = text_[pos_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
    ++pos_;
  }
}

bool JsonReader::Consume(char c) {
  if (pos_ < text_.size() && text_[pos_] == c) {
    ++pos_;
    return true;
  }
  return false;
}

bool JsonReader::ConsumeWord(std::string_view word) {
  if (text_.substr(pos_, word.size()) == word) {
    pos_ += word.size();
    return true;
  }
  return false;
}

JsonValue::Kind JsonReader::Peek() {
  if (depth_ > kMaxDepth) {
    SyntaxError("nesting too deep");
    return JsonValue::Kind::kNull;
  }
  SkipWhitespace();
  if (pos_ >= text_.size()) {
    SyntaxError("unexpected end of input");
    return JsonValue::Kind::kNull;
  }
  switch (text_[pos_]) {
    case '{': return JsonValue::Kind::kObject;
    case '[': return JsonValue::Kind::kArray;
    case '"': return JsonValue::Kind::kString;
    case 't':
    case 'f': return JsonValue::Kind::kBool;
    case 'n': return JsonValue::Kind::kNull;
    default: return JsonValue::Kind::kNumber;
  }
}

bool JsonReader::Begin(char open, char close) {
  if (!Consume(open)) {
    SyntaxError(open == '{' ? "expected '{'" : "expected '['");
    return false;
  }
  ++depth_;
  SkipWhitespace();
  if (Consume(close)) {
    --depth_;
    return false;
  }
  return true;
}

bool JsonReader::Next(char close) {
  SkipWhitespace();
  if (Consume(',')) return true;
  if (Consume(close)) {
    --depth_;
    return false;
  }
  SyntaxError(close == '}' ? "expected ',' or '}'" : "expected ',' or ']'");
  return false;
}

std::string_view JsonReader::ReadKey(std::string* scratch) {
  SkipWhitespace();
  if (pos_ >= text_.size() || text_[pos_] != '"') {
    SyntaxError("expected object key");
    return {};
  }
  std::string_view key = ReadString(scratch);
  SkipWhitespace();
  if (!Consume(':')) SyntaxError("expected ':'");
  return key;
}

bool JsonReader::ReadBool() {
  if (ConsumeWord("true")) return true;
  if (!ConsumeWord("false")) SyntaxError("bad literal");
  return false;
}

void JsonReader::ReadNull() {
  if (!ConsumeWord("null")) SyntaxError("bad literal");
}

void JsonReader::Skip() {
  switch (Peek()) {
    case JsonValue::Kind::kObject:
      for (bool more = BeginObject(); more; more = NextMember()) {
        ReadKey(&skip_scratch_);
        Skip();
      }
      return;
    case JsonValue::Kind::kArray:
      for (bool more = BeginArray(); more; more = NextElement()) Skip();
      return;
    case JsonValue::Kind::kString:
      ReadString(&skip_scratch_);
      return;
    case JsonValue::Kind::kNumber:
      ReadNumber();
      return;
    case JsonValue::Kind::kBool:
      ReadBool();
      return;
    case JsonValue::Kind::kNull:
      ReadNull();
      return;
  }
}

Status JsonReader::Finish() {
  SkipWhitespace();
  if (pos_ != text_.size()) SyntaxError("trailing content");
  return status_;
}

/// Four hex digits at pos_; advances past them.
bool JsonReader::ReadHex4(unsigned* code) {
  if (pos_ + 4 > text_.size()) {
    SyntaxError("bad \\u escape");
    return false;
  }
  *code = 0;
  for (int i = 0; i < 4; ++i) {
    char h = text_[pos_ + i];
    *code <<= 4;
    if (h >= '0' && h <= '9') {
      *code |= unsigned(h - '0');
    } else if (h >= 'a' && h <= 'f') {
      *code |= unsigned(h - 'a' + 10);
    } else if (h >= 'A' && h <= 'F') {
      *code |= unsigned(h - 'A' + 10);
    } else {
      SyntaxError("bad \\u escape");
      return false;
    }
  }
  pos_ += 4;
  return true;
}

namespace {

void EncodeUtf8(unsigned cp, std::string* out) {
  if (cp < 0x80) {
    *out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    *out += static_cast<char>(0xC0 | (cp >> 6));
    *out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    *out += static_cast<char>(0xE0 | (cp >> 12));
    *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    *out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    *out += static_cast<char>(0xF0 | (cp >> 18));
    *out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    *out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

}  // namespace

std::string_view JsonReader::ReadString(std::string* scratch) {
  if (!Consume('"')) {
    SyntaxError("expected string");
    return {};
  }
  // Fast path: a run of bytes that need no decoding or validation ends at
  // the closing quote, and the string is that run of the input.
  const size_t start = pos_;
  while (pos_ < text_.size()) {
    unsigned char c = static_cast<unsigned char>(text_[pos_]);
    if (c == '"') {
      ++pos_;
      return text_.substr(start, pos_ - 1 - start);
    }
    if (c == '\\' || (options_.strict_strings && (c < 0x20 || c >= 0x80))) {
      break;
    }
    ++pos_;
  }
  scratch->assign(text_.data() + start, pos_ - start);
  DecodeString(scratch);
  return *scratch;
}

// Strings arrive over the wire from untrusted clients (the gdlogd request
// path), so by default the grammar is enforced in full: raw control
// characters must be escaped (RFC 8259 §7), \u surrogates must pair, and
// raw bytes must be valid, shortest-form UTF-8 — overlong encodings are the
// classic smuggling vector for "../" and NUL. With strict_strings off
// (trusted JsonWriter output), raw non-escape bytes pass through verbatim
// instead, matching what the writer emits.
void JsonReader::DecodeString(std::string* out) {
  while (pos_ < text_.size()) {
    unsigned char c = static_cast<unsigned char>(text_[pos_]);
    if (c == '"') {
      ++pos_;
      return;
    }
    if (c < 0x20 && options_.strict_strings) {
      return SyntaxError("unescaped control character in string");
    }
    if (c == '\\') {
      if (++pos_ >= text_.size()) break;
      char esc = text_[pos_];
      ++pos_;
      switch (esc) {
        case '"': *out += '"'; continue;
        case '\\': *out += '\\'; continue;
        case '/': *out += '/'; continue;
        case 'b': *out += '\b'; continue;
        case 'f': *out += '\f'; continue;
        case 'n': *out += '\n'; continue;
        case 'r': *out += '\r'; continue;
        case 't': *out += '\t'; continue;
        case 'u': {
          unsigned code = 0;
          if (!ReadHex4(&code)) return;
          if (code >= 0xDC00 && code <= 0xDFFF) {
            return SyntaxError("unpaired low surrogate escape");
          }
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return SyntaxError("unpaired high surrogate escape");
            }
            pos_ += 2;
            unsigned low = 0;
            if (!ReadHex4(&low)) return;
            if (low < 0xDC00 || low > 0xDFFF) {
              return SyntaxError("unpaired high surrogate escape");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          EncodeUtf8(code, out);
          continue;
        }
        default:
          --pos_;
          return SyntaxError("bad escape");
      }
    }
    if (c < 0x80 || !options_.strict_strings) {
      *out += static_cast<char>(c);
      ++pos_;
      continue;
    }
    // Raw multi-byte UTF-8.
    size_t len;
    unsigned cp, min_cp;
    if ((c & 0xE0) == 0xC0) {
      len = 2; cp = c & 0x1Fu; min_cp = 0x80;
    } else if ((c & 0xF0) == 0xE0) {
      len = 3; cp = c & 0x0Fu; min_cp = 0x800;
    } else if ((c & 0xF8) == 0xF0) {
      len = 4; cp = c & 0x07u; min_cp = 0x10000;
    } else {
      return SyntaxError("invalid UTF-8 byte");
    }
    if (pos_ + len > text_.size()) {
      return SyntaxError("truncated UTF-8 sequence");
    }
    for (size_t i = 1; i < len; ++i) {
      unsigned char b = static_cast<unsigned char>(text_[pos_ + i]);
      if ((b & 0xC0) != 0x80) {
        return SyntaxError("invalid UTF-8 continuation");
      }
      cp = (cp << 6) | (b & 0x3Fu);
    }
    if (cp < min_cp) return SyntaxError("overlong UTF-8 encoding");
    if (cp >= 0xD800 && cp <= 0xDFFF) {
      return SyntaxError("UTF-8-encoded surrogate");
    }
    if (cp > 0x10FFFF) return SyntaxError("code point out of range");
    out->append(text_, pos_, len);
    pos_ += len;
  }
  SyntaxError("unterminated string");
}

// RFC 8259 number grammar: -?int frac? exp?, where int is "0" or a
// nonzero-led digit run. strtod would also accept "+1", "01", ".5",
// "0x1p3" — forms other JSON tooling rejects, so scan the grammar
// explicitly and hand callers the raw text.
std::string_view JsonReader::ReadNumber() {
  size_t start = pos_;
  Consume('-');
  auto digits = [&]() -> size_t {
    size_t n = 0;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
      ++n;
    }
    return n;
  };
  if (Consume('0')) {
    // A leading zero stands alone ("0", "0.5"); "01" is not JSON.
  } else if (digits() == 0) {
    SyntaxError("bad value");
    return {};
  }
  if (Consume('.') && digits() == 0) {
    SyntaxError("bad number");
    return {};
  }
  if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    ++pos_;
    if (!Consume('+')) Consume('-');
    if (digits() == 0) {
      SyntaxError("bad number");
      return {};
    }
  }
  return text_.substr(start, pos_ - start);
}

Result<long long> JsonNumberToInt(std::string_view text) {
  long long value = 0;
  auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(),
                                   value);
  if (ec == std::errc::result_out_of_range) {
    return Status::InvalidArgument("json number out of int64 range: " +
                                   std::string(text));
  }
  if (ec != std::errc() || end != text.data() + text.size()) {
    return Status::InvalidArgument("json number is not an integer: " +
                                   std::string(text));
  }
  return value;
}

// ---------------------------------------------------------------------------
// JsonValue — a tree built on JsonReader.
// ---------------------------------------------------------------------------

/// Friend of JsonValue; builds one document's tree.
class JsonParser {
 public:
  JsonParser(std::string_view text, const JsonParseOptions& options)
      : reader_(text, options) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    ParseValue(&value);
    GDLOG_RETURN_IF_ERROR(reader_.Finish());
    return value;
  }

 private:
  // Recursion stops at JsonReader::kMaxDepth, where Peek() fails.
  void ParseValue(JsonValue* out) {
    out->kind_ = reader_.Peek();
    switch (out->kind_) {
      case JsonValue::Kind::kObject:
        for (bool more = reader_.BeginObject(); more;
             more = reader_.NextMember()) {
          std::string key(reader_.ReadKey(&scratch_));
          JsonValue value;
          ParseValue(&value);
          out->members_.emplace_back(std::move(key), std::move(value));
        }
        return;
      case JsonValue::Kind::kArray:
        for (bool more = reader_.BeginArray(); more;
             more = reader_.NextElement()) {
          out->array_.emplace_back();
          ParseValue(&out->array_.back());
        }
        return;
      case JsonValue::Kind::kString:
        out->scalar_ = reader_.ReadString(&scratch_);
        return;
      case JsonValue::Kind::kNumber:
        out->scalar_ = reader_.ReadNumber();
        return;
      case JsonValue::Kind::kBool:
        out->bool_ = reader_.ReadBool();
        return;
      case JsonValue::Kind::kNull:
        reader_.ReadNull();
        return;
    }
  }

  JsonReader reader_;
  std::string scratch_;
};

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  return JsonParser(text, JsonParseOptions{}).Parse();
}

Result<JsonValue> JsonValue::Parse(std::string_view text,
                                   const JsonParseOptions& options) {
  return JsonParser(text, options).Parse();
}

double JsonValue::NumberAsDouble() const {
  return std::strtod(scalar_.c_str(), nullptr);
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

}  // namespace gdlog
