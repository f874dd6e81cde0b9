#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>

#include "engine/json.h"
#include "zbench.h"

namespace zbench {

// ---------------------------------------------------------------- JSON --

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  Result<Json> ParseDocument() {
    ZIGGY_ASSIGN_OR_RETURN(Json value, ParseValue(0));
    SkipSpace();
    if (pos_ != s_.size()) return Error("trailing bytes");
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return Status::ParseError("json: " + what + " at byte " + std::to_string(pos_));
  }
  void SkipSpace() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool Consume(std::string_view token) {
    if (s_.substr(pos_, token.size()) != token) return false;
    pos_ += token.size();
    return true;
  }

  Result<std::string> ParseString() {
    const size_t begin = ++pos_;  // past the opening quote
    while (pos_ < s_.size() && s_[pos_] != '"') pos_ += s_[pos_] == '\\' ? 2 : 1;
    if (pos_ >= s_.size()) return Error("unterminated string");
    return ziggy::JsonUnescape(s_.substr(begin, pos_++ - begin));
  }

  Result<Json> ParseValue(int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipSpace();
    if (pos_ >= s_.size()) return Error("unexpected end");
    Json out;
    const char c = s_[pos_];
    if (c == '{' || c == '[') {
      const bool object = c == '{';
      ++pos_;
      SkipSpace();
      if (Consume(object ? "}" : "]")) return out;
      for (;;) {
        SkipSpace();
        std::string key;
        if (object) {
          if (pos_ >= s_.size() || s_[pos_] != '"') return Error("expected key");
          ZIGGY_ASSIGN_OR_RETURN(key, ParseString());
          SkipSpace();
          if (!Consume(":")) return Error("expected ':'");
        }
        ZIGGY_ASSIGN_OR_RETURN(Json item, ParseValue(depth + 1));
        if (object) out.members_.emplace_back(std::move(key), std::move(item));
        SkipSpace();
        if (Consume(",")) continue;
        if (Consume(object ? "}" : "]")) return out;
        return Error("expected ',' or close");
      }
    }
    if (c == '"') {
      ZIGGY_RETURN_NOT_OK(ParseString().status());
      return out;
    }
    // Only numbers and object members are ever looked up; other values
    // are validated and skipped.
    if (Consume("true") || Consume("false") || Consume("null")) return out;
    const std::string rest(s_.substr(pos_, std::min<size_t>(64, s_.size() - pos_)));
    char* end = nullptr;
    out.number_ = std::strtod(rest.c_str(), &end);
    if (end == rest.c_str()) return Error("unexpected token");
    out.is_number_ = true;
    pos_ += static_cast<size_t>(end - rest.c_str());
    return out;
  }

  std::string_view s_;
  size_t pos_ = 0;
};

Result<Json> Json::Parse(std::string_view text) {
  return JsonParser(text).ParseDocument();
}

const Json* Json::Find(std::initializer_list<std::string_view> path) const {
  const Json* node = this;
  for (std::string_view key : path) {
    const Json* next = nullptr;
    for (const auto& [name, value] : node->members_) {
      if (name == key) next = &value;
    }
    if (next == nullptr) return nullptr;
    node = next;
  }
  return node;
}

double Json::Number(std::initializer_list<std::string_view> path,
                    double fallback) const {
  const Json* node = Find(path);
  return node != nullptr && node->is_number_ ? node->number_ : fallback;
}

// ---------------------------------------------------------------- stats --

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  // Nearest rank: the smallest sample with at least q of the samples at
  // or below it.
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t index = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<ptrdiff_t>(index),
                   values.end());
  return values[index];
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace zbench
