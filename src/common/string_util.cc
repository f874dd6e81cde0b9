#include "common/string_util.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace ziggy {

std::string_view TrimWhitespace(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

const char* ParseDoublePrefix(const char* first, const char* last,
                              double* value) {
  // std::from_chars rounds exactly like strtod, so a token it consumes
  // whole is taken when strtod could not have flagged ERANGE: a zero
  // (from_chars itself reports an underflow to zero as out of range) or a
  // magnitude above DBL_MIN. DBL_MIN is excluded because strtod flags
  // tokens just below it that round up to it. Everything else — '+', hex,
  // nan, subnormals, padded tokens — takes ParseDouble's strtod path.
  const auto [ptr, ec] = std::from_chars(first, last, *value);
  if (ec == std::errc() &&
      (*value == 0.0 ||
       std::fabs(*value) > std::numeric_limits<double>::min())) {
    return ptr;
  }
  return nullptr;
}

Result<double> ParseDouble(std::string_view s) {
  double fast = 0.0;
  const char* last = s.data() + s.size();
  if (!s.empty() && ParseDoublePrefix(s.data(), last, &fast) == last) {
    return fast;
  }
  s = TrimWhitespace(s);
  if (s.empty()) return Status::ParseError("empty numeric token");
  std::string buf(s);
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) {
    return Status::ParseError("invalid numeric token: '" + buf + "'");
  }
  return v;
}

Result<int64_t> ParseInt(std::string_view s) {
  s = TrimWhitespace(s);
  if (s.empty()) return Status::ParseError("empty integer token");
  int64_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    return Status::ParseError("invalid integer token: '" + std::string(s) + "'");
  }
  return v;
}

std::string FormatDouble(double v, int digits) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
  return buf;
}

}  // namespace ziggy
