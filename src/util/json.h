#ifndef GDLOG_UTIL_JSON_H_
#define GDLOG_UTIL_JSON_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace gdlog {

/// A minimal streaming JSON writer — enough to export engine results for
/// scripting (the CLI's --json mode). Handles escaping and comma placement;
/// callers are responsible for balanced Begin/End calls (asserted).
class JsonWriter {
 public:
  JsonWriter() = default;

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Emits an object key (must be inside an object).
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view value);
  JsonWriter& Number(double value);
  JsonWriter& Int(long long value);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();

  /// Convenience: Key + value. The const char* overload exists because a
  /// string literal would otherwise convert to bool (a standard pointer
  /// conversion, which overload resolution prefers over the user-defined
  /// conversion to string_view) and silently serialize as `true`.
  JsonWriter& KV(std::string_view key, std::string_view value) {
    return Key(key).String(value);
  }
  JsonWriter& KV(std::string_view key, const char* value) {
    return Key(key).String(value);
  }
  JsonWriter& KV(std::string_view key, double value) {
    return Key(key).Number(value);
  }
  JsonWriter& KV(std::string_view key, long long value) {
    return Key(key).Int(value);
  }
  JsonWriter& KV(std::string_view key, bool value) {
    return Key(key).Bool(value);
  }

  const std::string& str() const { return out_; }

 private:
  void MaybeComma();
  void Escape(std::string_view s);

  std::string out_;
  /// Stack of "needs comma before next element" flags per nesting level.
  std::string stack_;
  bool pending_key_ = false;
};

struct JsonParseOptions {
  /// Enforce RFC 8259 strings in full: escaped control characters only,
  /// paired surrogate escapes, shortest-form UTF-8 — what untrusted wire
  /// input (the gdlogd request path) requires. Disable only for input a
  /// JsonWriter in this process family produced: the writer copies raw
  /// bytes >= 0x20 verbatim, and program string constants may carry
  /// arbitrary bytes (the surface lexer does not restrict them), so the
  /// shard partial-space IPC must read back exactly what was written.
  bool strict_strings = true;
};

/// The integer a JSON number's source text denotes — exact for any int64;
/// kInvalidArgument on fractions, exponents or overflow.
Result<long long> JsonNumberToInt(std::string_view text);

/// A parsed JSON document — the read-side counterpart of JsonWriter, built
/// on JsonReader, used for request bodies and by any tooling that consumes
/// the CLI's --json output. Numbers keep their source text so callers can
/// parse int64s and hex-float doubles exactly instead of round-tripping
/// through a lossy double.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses one JSON document (trailing whitespace allowed, trailing
  /// content rejected). Depth-limited; ParseError carries the byte offset.
  static Result<JsonValue> Parse(std::string_view text);
  static Result<JsonValue> Parse(std::string_view text,
                                 const JsonParseOptions& options);

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool bool_value() const { return bool_; }
  /// The number's source text, verbatim (e.g. "1e-3", "-42").
  const std::string& number_text() const { return scalar_; }
  double NumberAsDouble() const;
  /// Exact for any int64; kInvalidArgument on fractions or overflow.
  Result<long long> NumberAsInt() const { return JsonNumberToInt(scalar_); }
  const std::string& string_value() const { return scalar_; }

  const std::vector<JsonValue>& array() const { return array_; }
  /// Object members in document order (duplicate keys are preserved;
  /// Find returns the first).
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }
  /// The value of `key`, or nullptr when absent.
  const JsonValue* Find(std::string_view key) const;

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::string scalar_;  ///< number text or string payload
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// A pull reader over one JSON document — the one implementation of the
/// JSON grammar: whitespace, literals, RFC 8259 numbers, strict and
/// lenient strings (JsonParseOptions) and depth-limited nesting.
/// JsonValue::Parse builds its tree on it; a reader that knows its schema
/// (PartialSpaceFromJson) reads values straight into its own structures
/// instead, with no tree in between.
///
/// The caller drives it value by value: Peek() skips whitespace and names
/// the next value's kind, then exactly one of ReadString, ReadNumber,
/// ReadBool, ReadNull, an object or array walk, or Skip() consumes that
/// value:
///
///   for (bool more = reader.BeginObject(); more;
///        more = reader.NextMember()) {
///     std::string_view key = reader.ReadKey(&scratch);
///     ...  // consume the member's value
///   }
///   GDLOG_RETURN_IF_ERROR(reader.Finish());
///
/// Errors are sticky, so the hot path carries no status: the first one is
/// kept (a ParseError with the byte offset), and from then on the reader
/// sits at the end of the input, where every read returns an empty value,
/// Peek() returns kNull and every container walk ends. A caller records
/// its own schema errors through Fail() to stop the reader the same way.
class JsonReader {
 public:
  /// Values nested deeper than this many containers are rejected, so
  /// recursive readers (and Skip) cannot be driven into stack exhaustion.
  static constexpr size_t kMaxDepth = 96;

  /// Borrows `text`: it must outlive the reader and every view returned.
  explicit JsonReader(std::string_view text,
                      const JsonParseOptions& options = JsonParseOptions{})
      : text_(text), options_(options) {}

  /// Skips whitespace and returns the kind of the next value, judged by
  /// its first byte (any byte that leads no other kind reads as a number,
  /// which ReadNumber then rejects). Fails at end of input and past
  /// kMaxDepth.
  JsonValue::Kind Peek();

  /// Consumes '{' and, for an empty object, its '}': true iff a member
  /// follows.
  bool BeginObject() { return Begin('{', '}'); }
  /// A member's key and the ':' after it. The view points into the input,
  /// or into `*scratch` when the key holds escapes.
  std::string_view ReadKey(std::string* scratch);
  /// After a member's value: true past ',', false past the closing '}'.
  bool NextMember() { return Next('}'); }

  /// Consumes '[' and, for an empty array, its ']': true iff an element
  /// follows.
  bool BeginArray() { return Begin('[', ']'); }
  /// After an element: true past ',', false past the closing ']'.
  bool NextElement() { return Next(']'); }

  /// The string at the cursor, unescaped. A string without escapes (and,
  /// under strict_strings, without bytes >= 0x80) is a view into the
  /// input; any other is decoded into `*scratch` and viewed there.
  std::string_view ReadString(std::string* scratch);
  /// The number at the cursor, as its source text.
  std::string_view ReadNumber();
  bool ReadBool();
  void ReadNull();
  /// Consumes the next value, whatever it is, checking its syntax.
  void Skip();

  /// Requires that only whitespace remains; returns status().
  Status Finish();

  bool ok() const { return status_.ok(); }
  /// The first error, or OK.
  const Status& status() const { return status_; }
  /// Records `error` unless an earlier one is kept, and stops the reader.
  void Fail(Status error);

 private:
  /// Fails with a ParseError naming `what` at the cursor's byte offset.
  void SyntaxError(const char* what);
  bool Begin(char open, char close);
  bool Next(char close);
  void SkipWhitespace();
  bool Consume(char c);
  bool ConsumeWord(std::string_view word);
  bool ReadHex4(unsigned* code);
  /// Decodes the rest of a string whose first bytes are already in `*out`.
  void DecodeString(std::string* out);

  std::string_view text_;
  JsonParseOptions options_;
  size_t pos_ = 0;
  /// Open containers around the cursor.
  size_t depth_ = 0;
  Status status_;
  std::string skip_scratch_;
};

}  // namespace gdlog

#endif  // GDLOG_UTIL_JSON_H_
