// JSON text: the one escaper and the one writer every JSON document in the
// project (characterization bodies, wire replies, the metrics registry,
// bench reports) goes through.

#ifndef ZIGGY_COMMON_JSON_ESCAPE_H_
#define ZIGGY_COMMON_JSON_ESCAPE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace ziggy {

/// \brief Escapes a string for embedding in a JSON document. Output is
/// pure ASCII: control characters and all non-ASCII input are emitted as
/// \uXXXX escapes — code points beyond the basic plane (emoji, rare CJK)
/// as surrogate pairs, which is the only way JSON can carry them; bytes
/// that are not valid UTF-8 become U+FFFD so the result is always valid
/// JSON.
std::string JsonEscape(std::string_view s);

/// \brief Inverse of JsonEscape: decodes backslash escapes (\" \\ \/ \n
/// \r \t \b \f and \uXXXX, including surrogate *pairs* for non-BMP code
/// points — lone surrogates are rejected). The input is the string
/// *body*, without the surrounding quotes. Errors on truncated or
/// unknown escapes.
Result<std::string> JsonUnescape(std::string_view s);

/// \brief Streaming JSON builder: appends compact (single-line) JSON to a
/// string and places the commas. Strings and keys are always escaped
/// with JsonEscape's rules. The caller writes a well-formed sequence — a
/// Key before each value inside an object, each Begin closed by its End;
/// the writer does not check nesting.
///
///   JsonWriter w;
///   w.BeginObject().Key("rows").Uint(900).Key("tags").BeginArray();
///   w.String("a").String("b").EndArray().EndObject();
///   w.str();  // {"rows":900,"tags":["a","b"]}
class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }
  /// An object key; the next call writes its value.
  JsonWriter& Key(std::string_view key);
  JsonWriter& String(std::string_view value);
  JsonWriter& Int(int64_t value);
  JsonWriter& Uint(uint64_t value);
  JsonWriter& Bool(bool value) { return Raw(value ? "true" : "false"); }
  /// `value` rounded to `significant_digits` significant digits (printf
  /// "%.*g"); NaN and the infinities, which JSON cannot carry, are null.
  JsonWriter& Double(double value, int significant_digits);
  /// Splices an already-rendered JSON value verbatim.
  JsonWriter& Raw(std::string_view json);

  const std::string& str() const { return out_; }
  /// Moves the document out; the writer is left empty.
  std::string Take() { return std::move(out_); }

 private:
  JsonWriter& Open(char bracket);
  JsonWriter& Close(char bracket);

  std::string out_;
  /// A value (or a closed object / array) was just written, so the next
  /// key or value at this level is preceded by a comma.
  bool comma_ = false;
};

}  // namespace ziggy

#endif  // ZIGGY_COMMON_JSON_ESCAPE_H_
