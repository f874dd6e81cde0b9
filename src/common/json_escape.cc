#include "common/json_escape.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>

namespace ziggy {

namespace {

void AppendEscapedCodeUnit(std::string* out, unsigned code_unit) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "\\u%04x", code_unit);
  *out += buf;
}

// Escapes one Unicode code point as \uXXXX — a surrogate pair for
// anything beyond the basic plane. JSON strings can only carry code
// points above U+FFFF as pairs; emitting a single \uXXXXX-style token
// (or a raw five-hex-digit truncation) is invalid JSON.
void AppendEscapedCodePoint(std::string* out, uint32_t code_point) {
  if (code_point <= 0xFFFF) {
    AppendEscapedCodeUnit(out, code_point);
    return;
  }
  const uint32_t v = code_point - 0x10000;
  AppendEscapedCodeUnit(out, 0xD800 | (v >> 10));
  AppendEscapedCodeUnit(out, 0xDC00 | (v & 0x3FF));
}

// Decodes one UTF-8 sequence starting at s[i]; on success advances i past
// it and returns the code point, on malformed input consumes one byte and
// returns U+FFFD (the replacement character) so the escaped output is
// always valid JSON even for byte garbage (e.g. Latin-1 CSV labels).
uint32_t DecodeUtf8(std::string_view s, size_t* i) {
  const auto byte = [&](size_t k) -> unsigned {
    return static_cast<unsigned char>(s[k]);
  };
  const unsigned b0 = byte(*i);
  size_t len = 0;
  uint32_t code = 0;
  if (b0 < 0x80) {
    ++*i;
    return b0;
  } else if ((b0 & 0xE0) == 0xC0) {
    len = 2;
    code = b0 & 0x1F;
  } else if ((b0 & 0xF0) == 0xE0) {
    len = 3;
    code = b0 & 0x0F;
  } else if ((b0 & 0xF8) == 0xF0) {
    len = 4;
    code = b0 & 0x07;
  } else {
    ++*i;
    return 0xFFFD;
  }
  if (*i + len > s.size()) {
    ++*i;
    return 0xFFFD;
  }
  for (size_t k = 1; k < len; ++k) {
    const unsigned bk = byte(*i + k);
    if ((bk & 0xC0) != 0x80) {
      ++*i;
      return 0xFFFD;
    }
    code = (code << 6) | (bk & 0x3F);
  }
  // Reject overlong encodings, surrogate code points, and out-of-range
  // values — none may appear in a JSON escape.
  static constexpr uint32_t kMinForLen[5] = {0, 0, 0x80, 0x800, 0x10000};
  if (code < kMinForLen[len] || code > 0x10FFFF ||
      (code >= 0xD800 && code <= 0xDFFF)) {
    ++*i;
    return 0xFFFD;
  }
  *i += len;
  return code;
}

// Appends `s` escaped (JsonEscape's rules) to `out`.
void AppendEscaped(std::string* out, std::string_view s) {
  for (size_t i = 0; i < s.size();) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    switch (c) {
      case '"':
        *out += "\\\"";
        ++i;
        continue;
      case '\\':
        *out += "\\\\";
        ++i;
        continue;
      case '\n':
        *out += "\\n";
        ++i;
        continue;
      case '\r':
        *out += "\\r";
        ++i;
        continue;
      case '\t':
        *out += "\\t";
        ++i;
        continue;
      default:
        break;
    }
    if (c < 0x20) {
      AppendEscapedCodeUnit(out, c);
      ++i;
    } else if (c < 0x80) {
      *out += static_cast<char>(c);
      ++i;
    } else {
      // Non-ASCII: escape the decoded code point so replies are pure
      // ASCII regardless of the input's encoding hygiene — non-BMP
      // labels become surrogate pairs, invalid bytes become U+FFFD.
      AppendEscapedCodePoint(out, DecodeUtf8(s, &i));
    }
  }
}

}  // namespace

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  AppendEscaped(&out, s);
  return out;
}

Result<std::string> JsonUnescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c != '\\') {
      out += c;
      continue;
    }
    if (++i >= s.size()) return Status::ParseError("truncated escape");
    switch (s[i]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u': {
        const auto read_hex4 = [&]() -> Result<unsigned> {
          if (i + 4 >= s.size()) {
            return Status::ParseError("truncated \\u escape");
          }
          unsigned code = 0;
          for (size_t k = 0; k < 4; ++k) {
            const char h = s[++i];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Status::ParseError("bad hex digit in \\u escape");
            }
          }
          return code;
        };
        ZIGGY_ASSIGN_OR_RETURN(unsigned first, read_hex4());
        uint32_t code = first;
        if (first >= 0xDC00 && first <= 0xDFFF) {
          return Status::ParseError("unpaired low surrogate \\u escape");
        }
        if (first >= 0xD800 && first <= 0xDBFF) {
          // High surrogate: JsonEscape emits non-BMP code points as
          // surrogate pairs, so the matching low half must follow.
          if (i + 2 >= s.size() || s[i + 1] != '\\' || s[i + 2] != 'u') {
            return Status::ParseError("unpaired high surrogate \\u escape");
          }
          i += 2;  // consume "\u"
          ZIGGY_ASSIGN_OR_RETURN(unsigned second, read_hex4());
          if (second < 0xDC00 || second > 0xDFFF) {
            return Status::ParseError("unpaired high surrogate \\u escape");
          }
          code = 0x10000 + ((static_cast<uint32_t>(first) - 0xD800) << 10) +
                 (second - 0xDC00);
        }
        // UTF-8 encode the code point.
        if (code < 0x80) {
          out += static_cast<char>(code);
        } else if (code < 0x800) {
          out += static_cast<char>(0xC0 | (code >> 6));
          out += static_cast<char>(0x80 | (code & 0x3F));
        } else if (code < 0x10000) {
          out += static_cast<char>(0xE0 | (code >> 12));
          out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
          out += static_cast<char>(0xF0 | (code >> 18));
          out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
          out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          out += static_cast<char>(0x80 | (code & 0x3F));
        }
        break;
      }
      default:
        return Status::ParseError(std::string("unknown escape: \\") + s[i]);
    }
  }
  return out;
}

JsonWriter& JsonWriter::Open(char bracket) {
  if (comma_) out_ += ',';
  out_ += bracket;
  comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::Close(char bracket) {
  out_ += bracket;
  comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  String(key);
  out_ += ':';
  comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  if (comma_) out_ += ',';
  out_ += '"';
  AppendEscaped(&out_, value);
  out_ += '"';
  comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  char buf[24];
  return Raw({buf, std::to_chars(buf, buf + sizeof(buf), value).ptr});
}

JsonWriter& JsonWriter::Uint(uint64_t value) {
  char buf[24];
  return Raw({buf, std::to_chars(buf, buf + sizeof(buf), value).ptr});
}

JsonWriter& JsonWriter::Double(double value, int significant_digits) {
  if (!std::isfinite(value)) return Raw("null");
  char buf[40];
  const int n =
      std::snprintf(buf, sizeof(buf), "%.*g", significant_digits, value);
  return Raw({buf, static_cast<size_t>(n)});
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  if (comma_) out_ += ',';
  out_ += json;
  comma_ = true;
  return *this;
}

}  // namespace ziggy
