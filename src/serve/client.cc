#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "common/json_escape.h"
#include "serve/wire_io.h"

namespace ziggy {

ZiggyClient::ZiggyClient(ZiggyClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      reader_(std::move(other.reader_)),
      inflight_(std::exchange(other.inflight_, 0)),
      host_(std::move(other.host_)),
      port_(other.port_),
      retry_(other.retry_),
      retries_(other.retries_) {}

ZiggyClient& ZiggyClient::operator=(ZiggyClient&& other) noexcept {
  if (this != &other) {
    Disconnect();
    fd_ = std::exchange(other.fd_, -1);
    reader_ = std::move(other.reader_);
    inflight_ = std::exchange(other.inflight_, 0);
    host_ = std::move(other.host_);
    port_ = other.port_;
    retry_ = other.retry_;
    retries_ = other.retries_;
  }
  return *this;
}

bool ZiggyClient::IsIdempotent(Verb verb) {
  // Straight from the verb table: retry safety is part of the wire
  // surface's single source of truth (OPEN is marked idempotent there —
  // a re-OPEN of a served table is an AlreadyExists ERR reply, so a
  // retry never double-applies it).
  return VerbInfoOf(verb).idempotent;
}

Status ZiggyClient::Connect(const std::string& host, uint16_t port) {
  Disconnect();
  const std::string address = host == "localhost" ? "127.0.0.1" : host;
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("bad address: " + host);
  }
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    close(fd);
    return Status::IOError("connect " + address + ":" + std::to_string(port) +
                           ": " + err);
  }
  fd_ = fd;
  reader_ = LineReader(kMaxResponseBytes);
  host_ = host;
  port_ = port;
  return Status::OK();
}

void ZiggyClient::Disconnect() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  inflight_ = 0;  // in-flight responses die with the connection
}

Result<WireResponse> ZiggyClient::CallRaw(const WireRequest& request) {
  if (inflight_ > 0) {
    return Status::FailedPrecondition(
        "blocking call with " + std::to_string(inflight_) +
        " pipelined response(s) outstanding — drain PollResponse first");
  }
  // An unrepresentable request (newline in an argument, space in a
  // non-tail argument) would split or shift on the wire and desync the
  // strict request/response stream — reject it before sending anything.
  ZIGGY_RETURN_NOT_OK(LineProtocol::ValidateRequest(request));
  const std::string line = LineProtocol::SerializeRequest(request);

  Result<WireResponse> result = CallLineOnce(line);
  if (result.ok() || !retry_.enabled || !IsIdempotent(request.verb) ||
      host_.empty()) {
    return result;
  }
  // Transport failure on an idempotent verb: reconnect and re-send with
  // capped exponential backoff. ERR replies never reach this path — they
  // are delivered responses (result.ok() above covers them).
  uint32_t backoff_ms = retry_.initial_backoff_ms;
  for (uint32_t attempt = 1; attempt < retry_.max_attempts; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms = std::min(backoff_ms * 2, retry_.max_backoff_ms);
    if (fd_ < 0) {
      Status st = Connect(host_, port_);
      if (!st.ok()) {
        result = st;
        continue;  // daemon may still be coming back; keep backing off
      }
    }
    retries_++;
    result = CallLineOnce(line);
    if (result.ok()) return result;
  }
  return result;
}

Result<WireResponse> ZiggyClient::CallLine(std::string line) {
  if (inflight_ > 0) {
    return Status::FailedPrecondition(
        "blocking call with " + std::to_string(inflight_) +
        " pipelined response(s) outstanding — drain PollResponse first");
  }
  if (line.empty() || line.back() != '\n') line += '\n';
  return CallLineOnce(line);
}

Status ZiggyClient::SendRequest(const WireRequest& request) {
  return SendRequests({&request, 1});
}

Status ZiggyClient::SendRequests(std::span<const WireRequest> requests) {
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");
  std::string lines;
  for (const WireRequest& request : requests) {
    ZIGGY_RETURN_NOT_OK(LineProtocol::ValidateRequest(request));
    lines += LineProtocol::SerializeRequest(request);
  }
  if (!SendAll(fd_, lines)) {
    Disconnect();
    return Status::IOError("send: connection lost");
  }
  inflight_ += requests.size();
  return Status::OK();
}

Result<std::optional<WireResponse>> ZiggyClient::PollResponse() {
  if (inflight_ == 0) {
    return Status::FailedPrecondition("no pipelined request in flight");
  }
  for (;;) {
    Result<std::optional<std::string>> next = reader_.Next();
    if (!next.ok()) {
      Disconnect();
      return next.status();
    }
    if (next->has_value()) {
      ZIGGY_ASSIGN_OR_RETURN(WireResponse response,
                             LineProtocol::ParseResponse(**next));
      inflight_--;
      return std::optional<WireResponse>(std::move(response));
    }
    if (fd_ < 0) return Status::IOError("connection closed mid-response");
    char buffer[4096];
    const ssize_t n =
        RecvSome(fd_, buffer, sizeof(buffer), /*dont_wait=*/true);
    if (n > 0) {
      reader_.Feed(buffer, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return std::optional<WireResponse>();  // nothing complete yet
    }
    Disconnect();
    return Status::IOError("connection closed mid-response");
  }
}

Result<WireResponse> ZiggyClient::WaitResponse() {
  if (inflight_ == 0) {
    return Status::FailedPrecondition("no pipelined request in flight");
  }
  for (;;) {
    Result<std::optional<std::string>> next = reader_.Next();
    if (!next.ok()) {
      Disconnect();
      return next.status();
    }
    if (next->has_value()) {
      ZIGGY_ASSIGN_OR_RETURN(WireResponse response,
                             LineProtocol::ParseResponse(**next));
      inflight_--;
      return response;
    }
    if (fd_ < 0) return Status::IOError("connection closed mid-response");
    char buffer[4096];
    const ssize_t n = RecvSome(fd_, buffer, sizeof(buffer));
    if (n <= 0) {
      Disconnect();
      return Status::IOError("connection closed mid-response");
    }
    reader_.Feed(buffer, static_cast<size_t>(n));
  }
}

Result<WireResponse> ZiggyClient::CallLineOnce(const std::string& line) {
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");
  if (!SendAll(fd_, line)) {
    Disconnect();
    return Status::IOError("send: connection lost");
  }
  for (;;) {
    Result<std::optional<std::string>> next = reader_.Next();
    if (!next.ok()) {
      Disconnect();
      return next.status();
    }
    if (next->has_value()) return LineProtocol::ParseResponse(**next);
    char buffer[4096];
    const ssize_t n = RecvSome(fd_, buffer, sizeof(buffer));
    if (n <= 0) {
      Disconnect();
      return Status::IOError("connection closed mid-response");
    }
    reader_.Feed(buffer, static_cast<size_t>(n));
  }
}

Result<std::string> ZiggyClient::Call(const WireRequest& request) {
  ZIGGY_ASSIGN_OR_RETURN(WireResponse response, CallRaw(request));
  if (!response.ok) return Status(response.code, response.body);
  return std::move(response.body);
}

Result<std::string> ZiggyClient::Open(const std::string& table,
                                      const std::string& source) {
  return Call(WireRequest{Verb::kOpen, {table, source}});
}

Result<std::string> ZiggyClient::List() {
  return Call(WireRequest{Verb::kList, {}});
}

Result<std::string> ZiggyClient::Characterize(const std::string& table,
                                              const std::string& query) {
  return Call(WireRequest{Verb::kCharacterize, {table, query}});
}

Result<std::string> ZiggyClient::Views(const std::string& table,
                                       const std::string& query) {
  ZIGGY_ASSIGN_OR_RETURN(std::string body,
                         Call(WireRequest{Verb::kViews, {table, query}}));
  // The payload is a bare JSON string: "...escaped report...".
  if (body.size() < 2 || body.front() != '"' || body.back() != '"') {
    return Status::ParseError("VIEWS payload is not a JSON string");
  }
  return JsonUnescape(std::string_view(body).substr(1, body.size() - 2));
}

Result<std::string> ZiggyClient::Append(const std::string& table,
                                        const std::string& source) {
  return Call(WireRequest{Verb::kAppend, {table, source}});
}

Result<std::string> ZiggyClient::Stats(const std::string& table) {
  WireRequest request{Verb::kStats, {}};
  if (!table.empty()) request.args.push_back(table);
  return Call(request);
}

Result<std::string> ZiggyClient::Save(const std::string& table) {
  WireRequest request{Verb::kSave, {}};
  if (!table.empty()) request.args.push_back(table);
  return Call(request);
}

Result<std::string> ZiggyClient::Persist(const std::string& table, bool on) {
  return Call(WireRequest{Verb::kPersist, {table, on ? "on" : "off"}});
}

Result<std::string> ZiggyClient::CloseTable(const std::string& table) {
  return Call(WireRequest{Verb::kClose, {table}});
}

Result<std::string> ZiggyClient::Health() {
  return Call(WireRequest{Verb::kHealth, {}});
}

Result<std::string> ZiggyClient::Hello() {
  return Call(WireRequest{Verb::kHello, {}});
}

Result<std::string> ZiggyClient::Metrics(const std::string& format) {
  WireRequest request{Verb::kMetrics, {}};
  if (!format.empty()) request.args.push_back(format);
  ZIGGY_ASSIGN_OR_RETURN(std::string body, Call(request));
  // JSON format arrives as the object itself; the Prometheus exposition
  // is framed as one JSON string (it is multi-line text) — unwrap it.
  if (body.size() >= 2 && body.front() == '"' && body.back() == '"') {
    return JsonUnescape(std::string_view(body).substr(1, body.size() - 2));
  }
  return body;
}

Status ZiggyClient::Quit() {
  Result<std::string> reply = Call(WireRequest{Verb::kQuit, {}});
  Disconnect();
  return reply.status();
}

}  // namespace ziggy
