// ZiggyDaemon: the network front door. A plain POSIX TCP server speaking
// the newline-delimited line protocol (serve/protocol.h) over a
// ServerCatalog — one epoll event loop owning every socket, a small
// dispatch pool executing verbs on the resident worker machinery, no
// external dependencies.
//
// Architecture (since the event-loop rewrite):
//
//   loop thread      owns ALL socket I/O: the non-blocking listener, one
//                    epoll instance, every connection's fd, LineReader,
//                    and output buffer flushing. It never executes verbs.
//   dispatch pool    N threads (DaemonOptions::dispatch_threads) pop
//                    connections with queued requests and run their
//                    DaemonHandler. At most one dispatch runs per
//                    connection at a time, so the handler stays
//                    single-threaded per connection while different
//                    connections' verbs run concurrently; CHARACTERIZE/
//                    VIEWS fan out onto the catalog's WorkerPool as
//                    before. Finished responses are appended to the
//                    connection's output buffer and the loop is woken
//                    through an eventfd to flush them.
//
// Pipelining: the framing already permits it — the loop decodes as many
// complete request lines as arrive in one readable event, queues them,
// and the dispatch answers strictly in request order (responses for one
// batch coalesce into one output buffer, so they leave as few large
// writes instead of many small ones).
//
// Backpressure: a connection stops being read (its EPOLLIN is dropped
// and bytes accumulate in the kernel socket buffer, throttling the peer
// via TCP flow control) while queued+executing requests reach
// max_pipeline or the un-flushed output buffer reaches max_outbuf_bytes;
// reading resumes at half of either bound. Admission control
// (--max-connections) sheds excess connections with an explicit
// Unavailable reply, and the accept loop survives EMFILE/ENFILE bursts
// by sleep-and-retry, exactly as the threaded daemon did.
//
// Lifecycle: Start() binds and begins accepting (port 0 = kernel-
// assigned, reported by port()); Stop() shuts the listener and every
// live connection down and joins all threads; the destructor calls
// Stop(). Malformed input never kills a connection: parse failures
// produce ERR replies in request order, and oversized lines are skipped
// through their newline so the stream re-synchronizes (see LineReader).

#ifndef ZIGGY_SERVE_DAEMON_DAEMON_H_
#define ZIGGY_SERVE_DAEMON_DAEMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/sync.h"
#include "obs/metrics.h"
#include "serve/catalog.h"
#include "serve/daemon/handler.h"

namespace ziggy {

/// \brief Daemon knobs on top of the catalog's serving options.
struct DaemonOptions {
  std::string host = "127.0.0.1";
  /// TCP port; 0 asks the kernel for a free one (tests, CI random port).
  uint16_t port = 0;
  size_t max_line_bytes = LineProtocol::kMaxLineBytes;
  size_t max_connections = 64;
  /// Per-connection idle timeout in milliseconds (0 = none). A connection
  /// with no queued work that sends nothing for this long — a stalled
  /// client, a dead peer no FIN ever arrived from — is answered with an
  /// ERR and closed, so it cannot hold a connection slot forever.
  size_t request_timeout_ms = 0;
  /// Pipelining depth: queued + executing requests per connection before
  /// the loop stops reading from it (resumes at half).
  size_t max_pipeline = 64;
  /// Un-flushed response bytes per connection before the loop stops
  /// reading from it (a slow reader must not balloon server memory).
  size_t max_outbuf_bytes = 4u << 20;
  /// Verb-execution threads. Requests from one connection always run
  /// serially; this bounds how many *connections* execute concurrently
  /// (each CHARACTERIZE/VIEWS still fans out on the catalog's pool).
  size_t dispatch_threads = 4;
  /// Store directory for durable checkpoints (empty = no store). Attached
  /// to the catalog before the listener starts; opening fails if the
  /// directory is unusable or holds a corrupt manifest.
  std::string store_dir;
  /// Slow-query log threshold in milliseconds (0 = off). A request whose
  /// queue-wait + execute + reply-flush total reaches the threshold logs
  /// one structured Warning line with its span breakdown.
  size_t slow_request_ms = 0;
  CatalogOptions catalog;
};

/// \brief The serving process: event loop + dispatch pool + catalog.
class ZiggyDaemon {
 public:
  /// Binds, listens, and starts the event loop. The returned daemon is
  /// already serving.
  static Result<std::unique_ptr<ZiggyDaemon>> Start(DaemonOptions options);

  ~ZiggyDaemon();

  ZiggyDaemon(const ZiggyDaemon&) = delete;
  ZiggyDaemon& operator=(const ZiggyDaemon&) = delete;

  /// The bound port (resolved when options.port was 0).
  uint16_t port() const { return port_; }
  const std::string& host() const { return options_.host; }

  /// Stops accepting, closes every connection, joins all threads.
  /// Idempotent.
  void Stop();

  /// The catalog; its metrics() registry also holds the daemon's
  /// counters (ziggy_daemon_*), which STATS and HEALTH render.
  ServerCatalog& catalog() { return catalog_; }

 private:
  /// One decoded framing event, in arrival order: a complete request
  /// line, or an oversize mark carrying the framing error to send.
  struct Pending {
    bool oversize = false;
    Status error = Status::OK();
    std::string line;
    /// Registry-clock stamp when the line was decoded into the queue;
    /// the dispatch pop measures queue wait against it.
    uint64_t enqueued_us = 0;
  };

  /// Flush bookkeeping for one response: when the connection's absolute
  /// flushed-byte offset passes `end_offset`, the reply has fully left
  /// the process and its flush span (and slow-log line, if armed) fires.
  struct ResponseMark {
    uint64_t end_offset = 0;  ///< absolute outbuf offset of the last byte
    uint64_t done_us = 0;     ///< when the response was serialized
    uint64_t queue_us = 0;
    uint64_t execute_us = 0;
    /// Slow-log payload (only filled while slow_request_ms > 0): verb
    /// name, span summary, and a truncated copy of the request line.
    std::string detail;
  };

  /// Everything the loop and the dispatch pool share about one
  /// connection. The loop owns fd/reader/epoll interest outright; `mu`
  /// guards the queue/outbuf/flags both sides touch. Held by shared_ptr
  /// so a connection that dies mid-dispatch stays valid until the
  /// dispatch drops it; the DaemonHandler destructor then closes its
  /// sessions exactly once, after the last concurrent user is gone.
  struct Connection {
    Connection(ServerCatalog* catalog, size_t max_line_bytes)
        : handler(catalog), reader(max_line_bytes) {}

    int fd = -1;
    DaemonHandler handler;
    LineReader reader;          ///< loop thread only
    uint32_t epoll_mask = 0;    ///< loop thread only: current registration
    bool registered = false;    ///< loop thread only: fd is in the epoll set
    std::chrono::steady_clock::time_point last_activity;  ///< loop only

    /// kConnection: only one connection's lock is ever held at a time,
    /// and always released before the daemon-level dispatch/notify locks.
    Mutex mu{LockRank::kConnection, "daemon.connection.mu"};
    std::deque<Pending> queue ZIGGY_GUARDED_BY(mu);  ///< decoded, not executed
    std::string outbuf ZIGGY_GUARDED_BY(mu);  ///< serialized, not yet flushed
    size_t out_head ZIGGY_GUARDED_BY(mu) = 0;  ///< bytes of outbuf already sent
    /// Bytes that have left outbuf entirely (flushed-then-cleared or
    /// compacted away); out_base + out_head is the connection-lifetime
    /// flushed-byte offset ResponseMark::end_offset is measured against.
    uint64_t out_base ZIGGY_GUARDED_BY(mu) = 0;
    /// Responses awaiting full flush.
    std::deque<ResponseMark> marks ZIGGY_GUARDED_BY(mu);
    /// A pool thread is executing verbs.
    bool dispatch_active ZIGGY_GUARDED_BY(mu) = false;
    /// The dispatch run has popped a request whose response is not yet in
    /// outbuf: set by the pop, cleared with the append, so a request a
    /// client sends after reading the previous reply is not pipelined.
    bool executing ZIGGY_GUARDED_BY(mu) = false;
    /// Backpressure dropped EPOLLIN.
    bool read_paused ZIGGY_GUARDED_BY(mu) = false;
    /// recv saw EOF; drain then close.
    bool peer_half_closed ZIGGY_GUARDED_BY(mu) = false;
    /// QUIT handled: close after flush.
    bool close_requested ZIGGY_GUARDED_BY(mu) = false;
    /// Socket error: close asap.
    bool dead ZIGGY_GUARDED_BY(mu) = false;

    size_t PendingOut() const ZIGGY_REQUIRES(mu) {
      return outbuf.size() - out_head;
    }
  };

  explicit ZiggyDaemon(DaemonOptions options);

  void LoopThread();
  void DispatchThread();

  /// Accepts until EAGAIN: shed, register, or sleep-and-retry on EMFILE.
  void HandleAccept();
  /// Drains readable bytes into the LineReader until EAGAIN, EOF, or a
  /// backpressure pause.
  void HandleReadable(const std::shared_ptr<Connection>& c);
  /// Pulls complete lines out of the LineReader into the request queue
  /// (bounded by max_pipeline) and schedules a dispatch if none is
  /// running. Loop thread only.
  void DecodePending(const std::shared_ptr<Connection>& c);
  /// Sends as much buffered output as the socket accepts. Loop thread.
  void FlushOut(const std::shared_ptr<Connection>& c);
  /// Recomputes backpressure / EPOLLOUT interest and closes the
  /// connection if it is finished. Loop thread only.
  void UpdateConnection(const std::shared_ptr<Connection>& c);
  void CloseConnection(const std::shared_ptr<Connection>& c);
  void CheckTimeouts();

  /// Dispatch → loop: "this connection has new output / finished a
  /// batch". Wakes the loop through the eventfd.
  void NotifyLoop(std::shared_ptr<Connection> c);
  /// Hands a connection with queued requests to the dispatch pool.
  void ScheduleDispatch(std::shared_ptr<Connection> c);

  /// Updates the registry's daemon-level gauges (live connections,
  /// dispatch-queue depth); run by STATS, HEALTH and METRICS before
  /// rendering.
  void RefreshMetrics();
  /// Records the flush span for each completed response and emits the
  /// slow-query log line when armed. Called outside the connection lock.
  void CompleteResponses(std::vector<ResponseMark> completed);

  DaemonOptions options_;
  ServerCatalog catalog_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: dispatch results, Stop()
  uint16_t port_ = 0;
  std::thread loop_thread_;
  std::vector<std::thread> dispatch_threads_;
  std::atomic<bool> stopping_{false};

  // The four daemon locks are each taken on their own (never nested with
  // one another or with a connection's lock); their ranks encode the
  // loop -> connection -> dispatch -> notify dataflow.
  mutable Mutex connections_mu_{LockRank::kDaemonConnections,
                                "daemon.connections_mu_"};
  /// Connections by fd.
  std::map<int, std::shared_ptr<Connection>> connections_
      ZIGGY_GUARDED_BY(connections_mu_);
  /// Fds removed from `connections_` whose close(2) is deferred to the
  /// end of the loop iteration (an immediate close would let accept()
  /// reuse the number while stale epoll events still reference it).
  std::vector<int> pending_close_ ZIGGY_GUARDED_BY(connections_mu_);

  Mutex dispatch_mu_{LockRank::kDaemonDispatch, "daemon.dispatch_mu_"};
  CondVar dispatch_cv_;
  std::deque<std::shared_ptr<Connection>> dispatch_queue_
      ZIGGY_GUARDED_BY(dispatch_mu_);

  Mutex notify_mu_{LockRank::kDaemonNotify, "daemon.notify_mu_"};
  std::vector<std::shared_ptr<Connection>> notified_
      ZIGGY_GUARDED_BY(notify_mu_);

  /// \name Registry-backed instrumentation.
  /// All resolved once from catalog_.metrics() in the constructor (the
  /// registry owns them; pointers are stable). The registry is the
  /// counters' only store: STATS and HEALTH render their `connections`
  /// object from these series.
  /// @{
  obs::Clock* clock_ = nullptr;
  obs::Counter* connections_accepted_ = nullptr;
  obs::Counter* connections_rejected_ = nullptr;
  obs::Counter* connections_timed_out_ = nullptr;
  obs::Counter* requests_handled_ = nullptr;
  obs::Counter* protocol_errors_ = nullptr;
  /// Transient accept(2) failures survived by sleep-and-retry.
  obs::Counter* accept_retries_ = nullptr;
  /// Backpressure pauses of a connection's reading.
  obs::Counter* reads_throttled_ = nullptr;
  /// Requests decoded while earlier ones from the same connection were
  /// still queued or executing (a blocking client never counts).
  obs::Counter* pipelined_requests_ = nullptr;
  /// Dispatch runs that executed at least one request, counted as a run
  /// pops its first.
  obs::Counter* dispatch_batches_ = nullptr;
  /// Per-verb series, indexed by the Verb enum (VerbTable order).
  std::vector<obs::Counter*> verb_requests_;
  std::vector<obs::Histogram*> verb_us_;
  /// Request phase spans: queue wait, handler execution, reply flush.
  obs::Histogram* queue_us_ = nullptr;
  obs::Histogram* execute_us_ = nullptr;
  obs::Histogram* flush_us_ = nullptr;
  /// @}
};

}  // namespace ziggy

#endif  // ZIGGY_SERVE_DAEMON_DAEMON_H_
