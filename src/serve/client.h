// ZiggyClient: the one line-protocol client implementation. The CLI's
// `connect` REPL, the daemon tests, and bench_daemon all speak to the
// daemon through this class, so client-side framing and error mapping
// exist exactly once.
//
// Not thread-safe: a client instance is owned by one thread (open several
// clients for concurrent traffic — that is what sessions are for). Two
// call styles share the connection:
//
//   Blocking   — Call/CallRaw/the verb helpers: one request, wait for its
//                response. The REPL and the retry policy live here.
//   Pipelined  — SendRequest/PollResponse: queue many requests without
//                waiting; the server answers strictly in send order, so
//                responses pop in the same order requests were pushed.
//                No automatic retry (a failure mid-pipeline leaves the
//                outcome of every in-flight request unknown; the caller
//                owns recovery). bench_daemon's high-concurrency scenario
//                drives thousands of connections this way from a few
//                threads.

#ifndef ZIGGY_SERVE_CLIENT_H_
#define ZIGGY_SERVE_CLIENT_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "common/result.h"
#include "serve/protocol.h"

namespace ziggy {

/// \brief Automatic retry of *idempotent* verbs on transport failure.
///
/// Retries cover send/recv errors, EOF mid-response, and reconnection —
/// never server ERR replies (those reached the server and came back; the
/// caller decides). Verbs with side effects per invocation (APPEND, SAVE,
/// PERSIST, CLOSE, QUIT) are never retried: a lost response leaves the
/// operation's fate unknown, so the error must surface.
struct RetryPolicy {
  bool enabled = true;
  uint32_t max_attempts = 4;        ///< total tries, including the first
  uint32_t initial_backoff_ms = 10;  ///< doubles per retry, capped below
  uint32_t max_backoff_ms = 500;
};

/// \brief Blocking TCP client of the Ziggy line protocol.
class ZiggyClient {
 public:
  ZiggyClient() = default;
  ~ZiggyClient() { Disconnect(); }

  ZiggyClient(const ZiggyClient&) = delete;
  ZiggyClient& operator=(const ZiggyClient&) = delete;
  ZiggyClient(ZiggyClient&& other) noexcept;
  ZiggyClient& operator=(ZiggyClient&& other) noexcept;

  /// Connects to `host:port` (IPv4 dotted quad or "localhost").
  Status Connect(const std::string& host, uint16_t port);
  void Disconnect();
  bool connected() const { return fd_ >= 0; }

  /// Sends one request and blocks for its response line. A transport
  /// failure (send/recv error, EOF mid-response) disconnects the client
  /// and — for idempotent verbs under the RetryPolicy — reconnects and
  /// retries with capped exponential backoff before giving up with
  /// IOError. An ERR response is returned as an *error Status* carrying
  /// the server's code and message — so callers handle wire errors and
  /// local errors identically; use CallRaw when the distinction matters.
  Result<std::string> Call(const WireRequest& request);

  /// Like Call, but hands back the WireResponse (ok or ERR) untranslated.
  /// Retry happens at this layer: an ERR reply is a *delivered* response
  /// and is never retried.
  Result<WireResponse> CallRaw(const WireRequest& request);

  /// Sends one raw protocol line verbatim (a newline is appended when
  /// missing) and reads the response. Lets tests and the REPL's `raw`
  /// command exercise the server's handling of malformed requests.
  Result<WireResponse> CallLine(std::string line);

  /// \name Pipelined (non-blocking) call pair.
  /// @{

  /// Validates and sends one request without waiting for its response.
  /// Responses arrive in send order: each successful SendRequest promises
  /// exactly one future PollResponse/WaitResponse hit. A send failure
  /// disconnects (every in-flight response is lost with the connection).
  Status SendRequest(const WireRequest& request);

  /// SendRequest for a window of requests, all validated first and then
  /// written with one send, so the server receives them as one batch.
  Status SendRequests(std::span<const WireRequest> requests);

  /// Non-blocking poll for the oldest in-flight response: nullopt when no
  /// complete response line has arrived yet, the WireResponse (ok or ERR)
  /// when one has, an error Status on transport failure. Never blocks —
  /// uses MSG_DONTWAIT regardless of the socket's mode.
  Result<std::optional<WireResponse>> PollResponse();

  /// Blocks until the oldest in-flight response arrives.
  Result<WireResponse> WaitResponse();

  /// Requests sent but not yet answered. Call/CallRaw refuse to run while
  /// this is non-zero: a blocking call interleaved into a pipeline would
  /// steal the next pipelined response.
  size_t inflight() const { return inflight_; }

  /// The connection's fd, for poll(2)/epoll-based readiness multiplexing
  /// over many pipelined clients. -1 when disconnected.
  int native_handle() const { return fd_; }
  /// @}

  /// \name Verb helpers (thin wrappers over Call).
  /// @{
  Result<std::string> Open(const std::string& table, const std::string& source);
  Result<std::string> List();
  Result<std::string> Characterize(const std::string& table,
                                   const std::string& query);
  /// The deterministic report text (the JSON string payload, decoded).
  Result<std::string> Views(const std::string& table, const std::string& query);
  Result<std::string> Append(const std::string& table,
                             const std::string& source);
  Result<std::string> Stats(const std::string& table = "");
  /// Checkpoints one table (or all, with an empty name) to the daemon's
  /// store.
  Result<std::string> Save(const std::string& table = "");
  /// Toggles checkpoint-on-append for a table.
  Result<std::string> Persist(const std::string& table, bool on);
  Result<std::string> CloseTable(const std::string& table);
  /// The daemon's health probe: {"status":"ok|degraded", ...} JSON.
  Result<std::string> Health();
  /// Capability negotiation: server version, feature flags, wire limits.
  Result<std::string> Hello();
  /// Metrics snapshot. Empty format or "json" returns the JSON object;
  /// "prometheus" returns the text exposition, decoded from its wire
  /// framing (one JSON string) into plain multi-line text.
  Result<std::string> Metrics(const std::string& format = "");
  Status Quit();
  /// @}

  /// True for verbs safe to re-send after an ambiguous transport failure.
  static bool IsIdempotent(Verb verb);

  RetryPolicy& retry_policy() { return retry_; }
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }
  /// Transport-level retries performed since construction.
  uint64_t retries() const { return retries_; }

  /// Response-line ceiling. Larger than the request-side default: a
  /// CHARACTERIZE over a very wide table can legitimately produce a
  /// multi-megabyte JSON reply, and the client trusts its server.
  static constexpr size_t kMaxResponseBytes = 64ull << 20;

 private:
  /// One send+receive over the current connection, no retry.
  Result<WireResponse> CallLineOnce(const std::string& line);

  int fd_ = -1;
  LineReader reader_ = LineReader(kMaxResponseBytes);
  /// Pipelined requests awaiting their responses (see SendRequest).
  size_t inflight_ = 0;
  /// Last successful Connect() target; empty host = never connected, so
  /// nothing to reconnect to.
  std::string host_;
  uint16_t port_ = 0;
  RetryPolicy retry_;
  uint64_t retries_ = 0;
};

}  // namespace ziggy

#endif  // ZIGGY_SERVE_CLIENT_H_
