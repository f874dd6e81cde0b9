#include "serve/protocol.h"

#include <array>
#include <cstring>

#include "common/string_util.h"
#include "common/json_escape.h"

namespace ziggy {

// The one table describing the wire surface (see VerbInfo in the
// header). Order is wire order — HELLO's verb listing and the README
// table follow it. Flags:
//   mutating    — changes the table set / generations / store, so the
//                 daemon may refuse it while degraded.
//   idempotent  — re-sending after an ambiguous transport failure is
//                 safe (the client's retry policy keys off this).
// APPEND/SAVE/PERSIST/CLOSE are not idempotent: a retry could append
// twice, checkpoint a different generation, or CLOSE a table the first
// attempt already closed (turning success into NotFound). QUIT is not
// retried because the connection is gone by definition.
constexpr std::array<VerbInfo, 13> kVerbTable = {{
    {Verb::kOpen, "OPEN", 2, 2, true, true, true,
     "load a CSV or demo:// source as a served table"},
    {Verb::kList, "LIST", 0, 0, false, false, true,
     "enumerate served tables"},
    {Verb::kCharacterize, "CHARACTERIZE", 2, 2, true, false, true,
     "run a query; reply is the full characterization JSON"},
    {Verb::kViews, "VIEWS", 2, 2, true, false, true,
     "run a query; reply is the deterministic views report"},
    {Verb::kAppend, "APPEND", 2, 2, true, true, false,
     "append rows as a new table generation"},
    {Verb::kStats, "STATS", 0, 1, false, false, true,
     "serving counters, catalog-wide or per table"},
    {Verb::kSave, "SAVE", 0, 1, false, true, false,
     "checkpoint one table (or all) to the store"},
    {Verb::kPersist, "PERSIST", 2, 2, false, true, false,
     "toggle checkpoint-on-append for a table"},
    {Verb::kClose, "CLOSE", 1, 1, false, true, false,
     "stop serving a table"},
    {Verb::kHealth, "HEALTH", 0, 0, false, false, true,
     "liveness/readiness probe"},
    {Verb::kHello, "HELLO", 0, 0, false, false, true,
     "capability negotiation: version, features, limits, verbs"},
    {Verb::kQuit, "QUIT", 0, 0, false, false, false,
     "end the connection"},
    {Verb::kMetrics, "METRICS", 0, 1, false, false, true,
     "metrics registry snapshot (json or prometheus)"},
}};

namespace {

std::string_view StripCr(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

/// Pops the leading space-delimited token; advances `rest` past the
/// separator run. Empty token means `rest` was exhausted.
std::string_view PopToken(std::string_view* rest) {
  while (!rest->empty() && rest->front() == ' ') rest->remove_prefix(1);
  size_t end = rest->find(' ');
  if (end == std::string_view::npos) end = rest->size();
  std::string_view token = rest->substr(0, end);
  rest->remove_prefix(end);
  return token;
}

Result<StatusCode> StatusCodeFromString(std::string_view token) {
  static constexpr std::array<StatusCode, 12> kCodes = {
      StatusCode::kOk,           StatusCode::kInvalidArgument,
      StatusCode::kNotFound,     StatusCode::kAlreadyExists,
      StatusCode::kOutOfRange,   StatusCode::kFailedPrecondition,
      StatusCode::kUnimplemented, StatusCode::kIOError,
      StatusCode::kParseError,   StatusCode::kTypeMismatch,
      StatusCode::kInternal,     StatusCode::kUnavailable,
  };
  for (StatusCode code : kCodes) {
    if (token == StatusCodeToString(code)) return code;
  }
  return Status::ParseError("unknown status code: " + std::string(token));
}

}  // namespace

const std::array<VerbInfo, 13>& VerbTable() { return kVerbTable; }

const VerbInfo& VerbInfoOf(Verb verb) {
  for (const VerbInfo& info : kVerbTable) {
    if (info.verb == verb) return info;
  }
  return kVerbTable[0];  // unreachable: the table covers the enum
}

const char* VerbToString(Verb verb) { return VerbInfoOf(verb).name; }

Result<Verb> VerbFromString(std::string_view token) {
  for (const VerbInfo& info : kVerbTable) {
    if (EqualsIgnoreCase(token, info.name)) return info.verb;
  }
  return Status::InvalidArgument("unknown verb: " + std::string(token));
}

Result<WireRequest> LineProtocol::ParseRequest(std::string_view line) {
  line = StripCr(line);
  std::string_view rest = line;
  const std::string_view verb_token = PopToken(&rest);
  if (verb_token.empty()) return Status::InvalidArgument("empty request line");
  ZIGGY_ASSIGN_OR_RETURN(Verb verb, VerbFromString(verb_token));
  const VerbInfo& spec = VerbInfoOf(verb);

  WireRequest request;
  request.verb = verb;
  if (spec.trailing_joined) {
    // All but the last argument are single tokens; the last is the rest of
    // the line verbatim after the separating space run (interior spacing
    // is preserved; leading spaces are separator, not payload).
    for (size_t i = 0; i + 1 < spec.max_args; ++i) {
      std::string_view token = PopToken(&rest);
      if (token.empty()) break;
      request.args.emplace_back(token);
    }
    while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
    if (!rest.empty()) request.args.emplace_back(rest);
  } else {
    for (std::string_view token = PopToken(&rest); !token.empty();
         token = PopToken(&rest)) {
      request.args.emplace_back(token);
    }
  }
  if (request.args.size() < spec.min_args ||
      request.args.size() > spec.max_args) {
    return Status::InvalidArgument(
        std::string(spec.name) + " takes " + std::to_string(spec.min_args) +
        (spec.min_args == spec.max_args
             ? ""
             : ".." + std::to_string(spec.max_args)) +
        " argument(s), got " + std::to_string(request.args.size()));
  }
  for (const std::string& arg : request.args) {
    // CR/LF are framing, never payload; a stray one inside an argument
    // would not survive the round trip, so reject it up front.
    if (arg.find('\n') != std::string::npos ||
        arg.find('\r') != std::string::npos) {
      return Status::InvalidArgument("argument contains a CR/LF byte");
    }
  }
  return request;
}

Status LineProtocol::ValidateRequest(const WireRequest& request) {
  const VerbInfo& spec = VerbInfoOf(request.verb);
  if (request.args.size() < spec.min_args ||
      request.args.size() > spec.max_args) {
    return Status::InvalidArgument(
        std::string(spec.name) + " takes " + std::to_string(spec.min_args) +
        (spec.min_args == spec.max_args
             ? ""
             : ".." + std::to_string(spec.max_args)) +
        " argument(s), got " + std::to_string(request.args.size()));
  }
  for (size_t i = 0; i < request.args.size(); ++i) {
    const std::string& arg = request.args[i];
    if (arg.empty()) {
      return Status::InvalidArgument("empty argument");
    }
    if (arg.find('\n') != std::string::npos ||
        arg.find('\r') != std::string::npos) {
      return Status::InvalidArgument("argument contains a CR/LF byte");
    }
    // Only a joined tail may contain spaces; anywhere else a space would
    // shift how the receiver splits the arguments.
    const bool is_joined_tail =
        spec.trailing_joined && i + 1 == spec.max_args;
    if (!is_joined_tail && arg.find(' ') != std::string::npos) {
      return Status::InvalidArgument("argument " + std::to_string(i + 1) +
                                     " of " + spec.name +
                                     " must not contain spaces");
    }
  }
  return Status::OK();
}

std::string LineProtocol::SerializeRequest(const WireRequest& request) {
  std::string out = VerbToString(request.verb);
  for (const std::string& arg : request.args) {
    out += ' ';
    out += arg;
  }
  out += '\n';
  return out;
}

Result<WireResponse> LineProtocol::ParseResponse(std::string_view line) {
  line = StripCr(line);
  std::string_view rest = line;
  const std::string_view head = PopToken(&rest);
  if (head == "OK") {
    if (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
    if (rest.empty()) return Status::ParseError("OK response without payload");
    return WireResponse::Ok(std::string(rest));
  }
  if (head == "ERR") {
    const std::string_view code_token = PopToken(&rest);
    ZIGGY_ASSIGN_OR_RETURN(StatusCode code, StatusCodeFromString(code_token));
    if (code == StatusCode::kOk) {
      return Status::ParseError("ERR response with OK code");
    }
    if (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
    ZIGGY_ASSIGN_OR_RETURN(std::string message, JsonUnescape(rest));
    WireResponse response;
    response.ok = false;
    response.code = code;
    response.body = std::move(message);
    return response;
  }
  return Status::ParseError("response must start with OK or ERR");
}

std::string LineProtocol::SerializeResponse(const WireResponse& response) {
  std::string out;
  if (response.ok) {
    out = "OK ";
    out += response.body;
  } else {
    out = "ERR ";
    out += StatusCodeToString(response.code == StatusCode::kOk
                                  ? StatusCode::kInternal
                                  : response.code);
    out += ' ';
    out += JsonEscape(response.body);
  }
  out += '\n';
  return out;
}

void LineReader::Feed(const char* data, size_t size) {
  // Span-at-a-time: every byte of every request crosses this function, so
  // scan for the newline with memchr and append whole segments instead of
  // branching per byte.
  size_t i = 0;
  while (i < size) {
    const char* nl =
        static_cast<const char*>(memchr(data + i, '\n', size - i));
    if (discarding_) {
      if (nl == nullptr) return;  // still inside the oversized line
      discarding_ = false;
      i = static_cast<size_t>(nl - data) + 1;
      continue;
    }
    const size_t seg_end = nl ? static_cast<size_t>(nl - data) : size;
    const size_t seg_len = seg_end - i;
    if (partial_.size() + seg_len > max_line_bytes_) {
      // Line grew past the limit: drop what we buffered, skip to the next
      // newline, and surface the oversize (in order) from Next().
      partial_.clear();
      ready_.push_back(Item{true, {}});
      if (nl == nullptr) {
        discarding_ = true;
        return;
      }
      i = seg_end + 1;
      continue;
    }
    partial_.append(data + i, seg_len);
    if (nl == nullptr) return;
    ready_.push_back(Item{false, std::move(partial_)});
    partial_.clear();
    i = seg_end + 1;
  }
}

Result<std::optional<std::string>> LineReader::Next() {
  if (ready_head_ >= ready_.size()) {
    ready_.clear();
    ready_head_ = 0;
    return std::optional<std::string>();
  }
  Item item = std::move(ready_[ready_head_++]);
  if (item.oversize) {
    return Status::OutOfRange("line exceeds " + std::to_string(max_line_bytes_) +
                              " bytes");
  }
  if (!item.line.empty() && item.line.back() == '\r') item.line.pop_back();
  return std::optional<std::string>(std::move(item.line));
}

}  // namespace ziggy
